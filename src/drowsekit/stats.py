"""Nonparametric tests for alert-vs-drowsy feature separation.

The normality of each feature is gated (informationally) with a
Kolmogorov-Smirnov test corrected for estimated parameters; the actual
separation p-value always comes from the two-sided Wilcoxon rank-sum
(Mann-Whitney) test. For small tie-free samples it is exact: the null
counts of U are the coefficients of a Gaussian binomial, computed in
integers. Otherwise a refined normal approximation is used.
``separation_report`` runs both per feature and returns plain report rows;
the cohort and the config digest live only in the report built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
from scipy.stats import norm, rankdata

from .errors import (
    EmptySample,
    NeedTwoGroups,
    NonFiniteSample,
    TooFewSamples,
    ZeroVariance,
)
from .features import FeatureMatrix
from .session import BinaryState

DEFAULT_ALPHA = 0.05

# Largest min(n_a, n_b) that still takes the exact tie-free path.
EXACT_PATH_MAX_MIN_N = 8

KS_MIN_SAMPLES = 4


class TestMethod(Enum):
    __test__ = False  # not a pytest class

    EXACT_ENUMERATION = "ExactEnumeration"
    NORMAL_APPROX = "NormalApprox"
    KS_LILLIEFORS = "KsLilliefors"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test."""

    __test__ = False  # not a pytest class

    statistic: float
    p_value: float
    method: TestMethod
    n_a: int
    n_b: int


@dataclass(frozen=True)
class ReportRow:
    """Separation verdict for one feature."""

    feature: str
    n_alert: int
    n_drowsy: int
    ks_p_alert: float | None
    ks_p_drowsy: float | None
    statistic: float
    p_value: float
    method: TestMethod
    significant: bool

    def to_json_dict(self) -> dict:
        return {
            "feature": self.feature,
            "n_alert": self.n_alert,
            "n_drowsy": self.n_drowsy,
            "ks_p_alert": self.ks_p_alert,
            "ks_p_drowsy": self.ks_p_drowsy,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "method": self.method.value,
            "significant": self.significant,
        }


# ---- Kolmogorov-Smirnov normality gate ------------------------------------

def _lilliefors_p(d: float, n: int) -> float:
    """Approximate p-value for the KS statistic with estimated mean and sd.

    Uses the Dallal-Wilkinson analytic formula, accurate below 0.1; larger
    values switch to the standard polynomial fit in the size-adjusted
    statistic. The result is clamped to [0, 1].
    """
    p = math.exp(
        -7.01256 * d * d * (n + 2.78019)
        + 2.99587 * d * math.sqrt(n + 2.78019)
        - 0.122119
        + 0.974598 / math.sqrt(n)
        + 1.67997 / n
    )
    if p > 0.1:
        kd = (math.sqrt(n) - 0.01 + 0.85 / math.sqrt(n)) * d
        if kd <= 0.302:
            p = 1.0
        elif kd <= 0.5:
            p = 2.76773 - 19.828315 * kd + 80.709644 * kd**2 \
                - 138.55152 * kd**3 + 81.218052 * kd**4
        elif kd <= 0.9:
            p = -4.901232 + 40.662806 * kd - 97.490286 * kd**2 \
                + 94.029866 * kd**3 - 32.355711 * kd**4
        elif kd <= 1.31:
            p = 6.198765 - 19.558097 * kd + 23.186922 * kd**2 \
                - 12.234627 * kd**3 + 2.423045 * kd**4
        else:
            p = 0.0
    return min(1.0, max(0.0, p))


def ks_normal_test(sample: Sequence[float]) -> TestResult:
    """Two-sided KS test against a normal fitted to the sample.

    The statistic is the largest gap between the empirical CDF and the
    fitted normal CDF over the sorted points; because the normal's mean
    and standard deviation are estimated from the sample, the p-value uses
    the estimated-parameter correction rather than the standard KS
    distribution.

    Raises:
        NonFiniteSample: A NaN or infinite observation.
        TooFewSamples: Fewer than 4 observations.
        ZeroVariance: All observations identical.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64))
    if not np.isfinite(x).all():
        raise NonFiniteSample("sample holds a NaN or infinite value")
    n = len(x)
    if n < KS_MIN_SAMPLES:
        raise TooFewSamples(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    sd = float(x.std(ddof=1))
    if sd == 0.0:
        raise ZeroVariance("sample has zero variance")
    z = (x - x.mean()) / sd
    cdf = norm.cdf(z)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - cdf)
    d_minus = np.max(cdf - (i - 1) / n)
    d = float(max(d_plus, d_minus))
    return TestResult(statistic=d, p_value=_lilliefors_p(d, n),
                      method=TestMethod.KS_LILLIEFORS, n_a=n, n_b=0)


# ---- Wilcoxon rank-sum / Mann-Whitney U ------------------------------------

def _rank_sum_null_counts(n_a: int, n_b: int) -> list[int]:
    """Exact counts of the tie-free Mann-Whitney U null distribution.

    Entry u counts the n_a-subsets of the ranks 1..n_a+n_b whose rank sum
    is u + n_a(n_a+1)/2. These are the coefficients of the Gaussian
    binomial [N choose k]_q = prod_{i=1..k} (1 - q^(m+i)) / (1 - q^i) with
    k = min(n_a, n_b) and m = N - k, built one factor pair at a time in
    arbitrary-precision integers.
    """
    k = min(n_a, n_b)
    m = n_a + n_b - k
    # room for the degree-(i*m + i) numerator product before each division
    c = [1] + [0] * (k * m + k)
    for i in range(1, k + 1):
        for j in range(len(c) - 1, m + i - 1, -1):
            c[j] -= c[j - m - i]
        for j in range(i, len(c)):
            c[j] += c[j - i]
    return c[: k * m + 1]


def _two_sided(n_le: int, n_ge: int, total: int) -> float:
    return min(1.0, 2.0 * min(n_le, n_ge) / total)


def _rank_sum_kurtosis_excess(n_a: int, n_b: int) -> float:
    """Excess kurtosis of the tie-free rank-sum null distribution."""
    var = n_a * n_b * (n_a + n_b + 1) / 12.0
    k4 = -(n_a * n_b * (n_a + n_b + 1) / 120.0) * (
        n_a * n_a + n_b * n_b + n_a * n_b + n_a + n_b
    )
    return k4 / (var * var)


def rank_sum_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test.

    Ranks are midranks (ties averaged) and the statistic is the U of the
    first sample. Tie-free problems whose smaller group has at most
    ``EXACT_PATH_MAX_MIN_N`` (8) observations take their p-value from the
    exact null distribution of U (Gaussian binomial coefficients);
    everything else uses a normal approximation with tie-corrected
    variance, a 0.5 continuity correction, and a small-sample kurtosis
    refinement of the tail areas. The two-sided p-value is twice the
    smaller tail, clamped to [0, 1].

    Raises:
        EmptySample: Either sample is empty.
        NonFiniteSample: A NaN or infinite value in either sample.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, n_b = len(a), len(b)
    if n_a == 0 or n_b == 0:
        raise EmptySample(f"both samples must be non-empty, got sizes ({n_a}, {n_b})")
    pooled = np.concatenate([a, b])
    if not np.isfinite(pooled).all():
        raise NonFiniteSample("samples hold a NaN or infinite value")
    if min(n_a, n_b) > EXACT_PATH_MAX_MIN_N or len(np.unique(pooled)) < n_a + n_b:
        return _rank_sum_normal_approx(pooled, n_a)

    u = float(rankdata(pooled, method="average")[:n_a].sum()) - n_a * (n_a + 1) / 2.0
    counts = _rank_sum_null_counts(n_a, n_b)
    u_obs = int(round(u))
    p = _two_sided(sum(counts[: u_obs + 1]), sum(counts[u_obs:]), math.comb(n_a + n_b, n_a))
    return TestResult(statistic=u, p_value=p,
                      method=TestMethod.EXACT_ENUMERATION, n_a=n_a, n_b=n_b)


def _rank_sum_normal_approx(pooled: np.ndarray, n_a: int) -> TestResult:
    """Normal-approximation rank-sum test of pooled[:n_a] against the rest."""
    total_n = len(pooled)
    n_b = total_n - n_a
    w = float(rankdata(pooled, method="average")[:n_a].sum())
    u = w - n_a * (n_a + 1) / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts).sum())) / (total_n * (total_n - 1.0))
    variance = n_a * n_b / 12.0 * ((total_n + 1.0) - tie_term)
    if variance <= 0.0:
        # every pooled value identical
        return TestResult(statistic=u, p_value=1.0,
                          method=TestMethod.NORMAL_APPROX, n_a=n_a, n_b=n_b)
    sd = math.sqrt(variance)
    mu_w = n_a * (total_n + 1) / 2.0
    g2 = _rank_sum_kurtosis_excess(n_a, n_b)
    lower = _edgeworth_tail((w - mu_w + 0.5) / sd, g2, upper=False)
    upper = _edgeworth_tail((w - mu_w - 0.5) / sd, g2, upper=True)
    p = min(1.0, 2.0 * min(lower, upper))
    return TestResult(statistic=u, p_value=p,
                      method=TestMethod.NORMAL_APPROX, n_a=n_a, n_b=n_b)


# The kurtosis refinement is a central-region correction; past this |z|
# it is smaller than double precision cares about yet would eventually
# dominate (and corrupt) the true tail, so the plain normal tail is used.
_EDGEWORTH_Z_LIMIT = 5.0


def _edgeworth_tail(z: float, g2: float, upper: bool) -> float:
    """Normal tail area with a kurtosis (fourth-cumulant) refinement.

    The survival function is evaluated directly so extreme tails keep
    full floating-point precision instead of cancelling against 1.
    """
    base = norm.sf(z) if upper else norm.cdf(z)
    if abs(z) <= _EDGEWORTH_Z_LIMIT:
        correction = norm.pdf(z) * g2 / 24.0 * (z**3 - 3.0 * z)
        base = base + correction if upper else base - correction
    return min(1.0, max(0.0, float(base)))


# ---- per-feature report -----------------------------------------------------

def separation_report(features: FeatureMatrix,
                      alpha: float = DEFAULT_ALPHA) -> list[ReportRow]:
    """Test every feature's alert-vs-drowsy separation, one row per feature.

    Features are pooled across whatever sessions the matrix holds. Each
    row records the per-group normality gate (None when a group is
    degenerate), the rank-sum result, and the strict ``p < alpha``
    significance flag. Row order follows the matrix's feature order.

    Raises:
        NeedTwoGroups: Only one state present.
        TooFewSamples: A state has fewer than 4 rows.
    """
    n_alert = sum(1 for s in features.states if s is BinaryState.ALERT)
    n_drowsy = len(features) - n_alert
    if n_alert == 0 or n_drowsy == 0:
        raise NeedTwoGroups(
            f"need both states, got {n_alert} alert / {n_drowsy} drowsy rows"
        )
    if min(n_alert, n_drowsy) < KS_MIN_SAMPLES:
        raise TooFewSamples(
            f"need at least {KS_MIN_SAMPLES} rows per state, "
            f"got {n_alert} alert / {n_drowsy} drowsy"
        )

    rows = []
    for name in features.feature_names:
        groups = features.by_state(name)
        alert = groups[BinaryState.ALERT]
        drowsy = groups[BinaryState.DROWSY]
        result = rank_sum_test(alert, drowsy)
        rows.append(ReportRow(
            feature=name,
            n_alert=n_alert,
            n_drowsy=n_drowsy,
            ks_p_alert=_ks_p_or_none(alert),
            ks_p_drowsy=_ks_p_or_none(drowsy),
            statistic=result.statistic,
            p_value=result.p_value,
            method=result.method,
            significant=result.p_value < alpha,
        ))
    return rows


def _ks_p_or_none(sample: np.ndarray) -> float | None:
    try:
        return ks_normal_test(sample).p_value
    except (ZeroVariance, TooFewSamples):
        return None
