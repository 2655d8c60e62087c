"""Nonparametric tests for alert-vs-drowsy feature separation.

The normality of each feature is gated (informationally) with a
Kolmogorov-Smirnov test corrected for estimated parameters (Lilliefors):
``ks_normal_test`` tests every row of a block and returns one p-value per
row. The actual separation p-value always comes from the two-sided
Wilcoxon rank-sum (Mann-Whitney) test. For small tie-free samples it is
exact: the null counts of U are the coefficients of a Gaussian binomial,
computed in integers, once per pair of group sizes. Otherwise a refined
normal approximation is used. Each test sorts the pooled sample once; its
midranks and tie runs serve both paths. ``separation_report`` splits the
feature matrix once into an alert and a drowsy block, runs the rank-sum
test per feature and ``ks_normal_test`` once on each block, and returns the
report rows as the dicts ``report.json`` holds; the cohort and the config
digest live only in the report built from them.

Normal tails come from ``_ndtr``, an array port of the Cephes ``ndtr``
(Moshier, *Methods and Programs for Mathematical Functions*, 1989) that
``scipy.special.ndtr`` also runs; the rank-sum test calls it once on its
two tails and the normality gate once on its whole standardised block.
The density and midranks come from numpy, computed as ``scipy.stats.norm``
and ``rankdata`` compute them. The oracle tests pin the values bit for bit
against scipy (checked with scipy 1.17.1); the module itself needs numpy
alone.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import NeedTwoGroups, NonFiniteSample, TooFewSamples
from .features import FeatureMatrix

DEFAULT_ALPHA = 0.05

# Largest min(n_a, n_b) that still takes the exact tie-free path.
EXACT_PATH_MAX_MIN_N = 8

KS_MIN_SAMPLES = 4


class TestMethod(Enum):
    __test__ = False  # not a pytest class

    EXACT_ENUMERATION = "ExactEnumeration"
    NORMAL_APPROX = "NormalApprox"


@dataclass(frozen=True)
class TestResult:
    """Outcome of one hypothesis test."""

    __test__ = False  # not a pytest class

    statistic: float
    p_value: float
    method: TestMethod


# ---- standard normal CDF ------------------------------------------------------

# Cephes ``ndtr``'s rational approximations: erfc(z) for 1 <= z < 8 (P/Q)
# and z >= 8 (R/S), erf(x) for |x| < 1 (T/U).
_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
      4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
      9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
      9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
      1.65666309194161350182E3, 5.57535340817727675546E2)
_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
      6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
      1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
      7.00332514112805075473E3, 5.55923013010394962768E4)
_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
      2.26290000613890934246E4, 4.92673942608635921086E4)
_SQRTH = 7.07106781186547524401E-1
# exp(-z * z) underflows past this
_MAXLOG = 7.09782712893383996843E2


def _polevl(x, coef):
    """Horner's rule from ``coef[0]``, the leading coefficient."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implied leading coefficient of 1."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of every entry of the float64 array ``a`` as
    Cephes ``ndtr`` (and ``scipy.special.ndtr``) computes it, bit for bit:
    0.5 + 0.5 * erf(a / sqrt 2) near 0, half of erfc(|a| / sqrt 2) in the
    tails, so small tails keep full precision. Each branch runs on its own
    entries as numpy array steps, which round as the scalar steps do; ``exp``
    comes from ``math``, because numpy's may round differently (see
    ``_norm_pdf``). NaN maps to NaN and +/-inf to 1 and 0, without a warning.
    """
    x = np.asarray(a, dtype=np.float64) * _SQRTH
    z = np.abs(x)
    with np.errstate(over="ignore"):  # z * z past 1.3e154
        zz = z * z  # the same float as x * x, and -zz as -z * z
    # NaN fails every comparison, so it takes the last branch
    near = z < _SQRTH
    erf = z < 1.0
    below8 = z < 8.0
    far = ~below8 & ~(-zz < -_MAXLOG)  # elsewhere past 8, exp(-z * z) underflows
    c = np.zeros_like(x)
    if near.any():
        w = zz[near]
        c[near] = x[near] * _polevl(w, _T) / _p1evl(w, _U)
    mid = erf & ~near
    if mid.any():
        w = zz[mid]
        c[mid] = 1.0 - z[mid] * _polevl(w, _T) / _p1evl(w, _U)
    for rows, num, den in ((below8 & ~erf, _P, _Q), (far, _R, _S)):
        if rows.any():
            v = z[rows]
            e = np.array([math.exp(t) for t in (-zz[rows]).tolist()])
            c[rows] = e * _polevl(v, num) / _p1evl(v, den)
    y = 0.5 * c
    return np.where(near, 0.5 + y, np.where(x > 0, 1.0 - y, y))


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


def ks_normal_test(block: np.ndarray) -> list[float | None]:
    """Two-sided KS test of every row of a (rows, n) block against a normal
    fitted to that row; one p-value per row, None for a row with zero variance.

    The statistic is the largest gap between the empirical CDF and the
    fitted normal CDF over the sorted points; because the normal's mean
    and standard deviation are estimated from the row, the p-value uses
    the estimated-parameter correction rather than the standard KS
    distribution. Each row is sorted, scaled by a power of two into [-1, 1]
    (which keeps its standardised values bit for bit, and its squared
    deviations finite) and reduced along the contiguous last axis, which
    numpy sums in the same order as a 1-D array, so every row's p-value is
    the one it alone gives.

    Raises:
        ValueError: ``block`` is not 2-D.
        NonFiniteSample: A NaN or infinite observation.
        TooFewSamples: Rows of fewer than 4 observations.
    """
    x = np.asarray(block, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"need a (rows, n) block, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteSample("sample holds a NaN or infinite value")
    n = x.shape[-1]
    if n < KS_MIN_SAMPLES:
        raise TooFewSamples(f"need at least {KS_MIN_SAMPLES} samples, got {n}")
    x = np.sort(x, axis=-1)
    x = np.ldexp(x, -np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))[1])
    sd = x.std(ddof=1, axis=-1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-variance rows
        z = (x - x.mean(axis=-1, keepdims=True)) / sd
    cdf = _ndtr(z)  # zero-variance rows hold NaN or +/-inf, which it maps quietly
    i = np.arange(1, n + 1)
    d = np.maximum(np.max(i / n - cdf, axis=-1), np.max(cdf - (i - 1) / n, axis=-1))
    return [None if s == 0.0 else _lilliefors_p(float(di), n) for s, di in zip(sd[:, 0], d)]


# ---- Wilcoxon rank-sum / Mann-Whitney U ------------------------------------

def _average_ranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """1-based ranks of ``x`` with ties given the mean of their ranks, and
    the size of each run of equal values in sorted order, which are
    ``np.unique(x, return_counts=True)``'s counts.

    Every midrank is an exact half-integer, so the values (and any sum of
    them) equal ``scipy.stats.rankdata(x, method="average")``'s.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    ends = np.append(starts[1:], len(x))
    runs = ends - starts
    ranks = np.empty(len(x))
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, runs)
    return ranks, runs


@functools.lru_cache(maxsize=32)
def _rank_sum_null_cumulative(k: int, m: int) -> tuple[int, ...]:
    """Entry j + 1 counts the null outcomes with U <= j, for groups of k <= m.

    The count of U = u is the number of k-subsets of the ranks 1..k+m whose
    rank sum is u + k(k+1)/2: the coefficients of the Gaussian binomial
    [k+m choose k]_q = prod_{i=1..k} (1 - q^(m+i)) / (1 - q^i), built one
    factor pair at a time in arbitrary-precision integers. The null
    distribution of U depends only on the two group sizes, and a report
    tests every feature on the same pair, so it is built once per pair.
    Entry 0 is 0 and the last entry is C(k + m, k), all exact ints.
    """
    # room for the degree-(i*m + i) numerator product before each division
    c = [1] + [0] * (k * m + k)
    for i in range(1, k + 1):
        for j in range(len(c) - 1, m + i - 1, -1):
            c[j] -= c[j - m - i]
        for j in range(i, len(c)):
            c[j] += c[j - i]
    return (0, *itertools.accumulate(c[: k * m + 1]))


def _rank_sum_kurtosis_excess(n_a: int, n_b: int) -> float:
    """Excess kurtosis of the tie-free rank-sum null distribution."""
    var = n_a * n_b * (n_a + n_b + 1) / 12.0
    k4 = -(n_a * n_b * (n_a + n_b + 1) / 120.0) * (
        n_a * n_a + n_b * n_b + n_a * n_b + n_a + n_b
    )
    return k4 / (var * var)


def rank_sum_test(a: Sequence[float], b: Sequence[float]) -> TestResult:
    """Two-sided Wilcoxon rank-sum (Mann-Whitney U) test of two non-empty samples.

    Ranks are midranks (ties averaged) and the statistic is the U of the
    first sample. Tie-free problems whose smaller group has at most
    ``EXACT_PATH_MAX_MIN_N`` (8) observations take their p-value from the
    exact null distribution of U (Gaussian binomial coefficients);
    everything else uses a normal approximation with tie-corrected
    variance, a 0.5 continuity correction, and a small-sample kurtosis
    refinement of the tail areas. The two-sided p-value is twice the
    smaller tail, clamped to [0, 1].

    Raises:
        NonFiniteSample: A NaN or infinite value in either sample.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, n_b = len(a), len(b)
    pooled = np.concatenate([a, b])
    if not np.isfinite(pooled).all():
        raise NonFiniteSample("samples hold a NaN or infinite value")
    ranks, runs = _average_ranks(pooled)
    w = float(ranks[:n_a].sum())
    if min(n_a, n_b) > EXACT_PATH_MAX_MIN_N or len(runs) < n_a + n_b:
        return _rank_sum_normal_approx(w, n_a, n_b, runs)

    u = w - n_a * (n_a + 1) / 2.0
    cum = _rank_sum_null_cumulative(min(n_a, n_b), max(n_a, n_b))
    u_obs = int(round(u))
    total = cum[-1]
    p = min(1.0, 2.0 * min(cum[u_obs + 1], total - cum[u_obs]) / total)
    return TestResult(statistic=u, p_value=p, method=TestMethod.EXACT_ENUMERATION)


def _rank_sum_normal_approx(w: float, n_a: int, n_b: int, runs: np.ndarray) -> TestResult:
    """Normal-approximation rank-sum test of a first sample of ``n_a`` values
    whose ranks in the pooled sample sum to ``w`` against ``n_b`` others;
    ``runs`` are the pooled sample's tie run sizes (``_average_ranks``)."""
    total_n = n_a + n_b
    u = w - n_a * (n_a + 1) / 2.0
    tie_term = float(((runs**3 - runs).sum())) / (total_n * (total_n - 1.0))
    variance = n_a * n_b / 12.0 * ((total_n + 1.0) - tie_term)
    if variance <= 0.0:
        # every pooled value identical
        return TestResult(statistic=u, p_value=1.0, method=TestMethod.NORMAL_APPROX)
    sd = math.sqrt(variance)
    mu_w = n_a * (total_n + 1) / 2.0
    g2 = _rank_sum_kurtosis_excess(n_a, n_b)
    lower, upper = _edgeworth_tails((w - mu_w + 0.5) / sd, (w - mu_w - 0.5) / sd, g2)
    p = min(1.0, 2.0 * min(lower, upper))
    return TestResult(statistic=u, p_value=p, method=TestMethod.NORMAL_APPROX)


# The kurtosis refinement is a central-region correction; past this |z|
# it is smaller than double precision cares about yet would eventually
# dominate (and corrupt) the true tail, so the plain normal tail is used.
_EDGEWORTH_Z_LIMIT = 5.0


_SQRT_2PI = np.sqrt(2 * np.pi)


def _norm_pdf(z: float) -> np.float64:
    """The standard normal density as ``scipy.stats.norm.pdf`` computes it:
    squared and exponentiated by numpy on an array, whose ``exp`` may round
    differently from ``math.exp``."""
    x = np.asarray(z, dtype=np.float64)
    return np.exp(-x**2 / 2.0) / _SQRT_2PI


def _edgeworth_tails(z_lower: float, z_upper: float, g2: float) -> tuple[float, float]:
    """Normal tail areas below ``z_lower`` and above ``z_upper``, each with a
    kurtosis (fourth-cumulant) refinement.

    The survival function is evaluated directly so extreme tails keep
    full floating-point precision instead of cancelling against 1; one
    ``_ndtr`` call takes both tails.
    """
    lower, upper = _ndtr(np.array([z_lower, -z_upper])).tolist()
    if abs(z_lower) <= _EDGEWORTH_Z_LIMIT:
        lower = lower - _norm_pdf(z_lower) * g2 / 24.0 * (z_lower**3 - 3.0 * z_lower)
    if abs(z_upper) <= _EDGEWORTH_Z_LIMIT:
        upper = upper + _norm_pdf(z_upper) * g2 / 24.0 * (z_upper**3 - 3.0 * z_upper)
    return min(1.0, max(0.0, float(lower))), min(1.0, max(0.0, float(upper)))


# ---- per-feature report -----------------------------------------------------

def separation_report(features: FeatureMatrix,
                      alpha: float = DEFAULT_ALPHA) -> list[dict]:
    """Test every feature's alert-vs-drowsy separation, one report row per
    feature.

    Features are pooled across whatever sessions the matrix holds. Each
    row is the dict ``report.json`` holds: the feature name and group
    sizes, the per-group normality gate p-values (None when a group is
    degenerate), the rank-sum statistic, p-value and method name, and the
    strict ``p < alpha`` significance flag. Row order follows the matrix's
    feature order.

    Raises:
        NeedTwoGroups: Only one state present.
        TooFewSamples: A state has fewer than 4 rows.
        NonFiniteSample: A NaN or infinite value.
    """
    n_drowsy = int(np.count_nonzero(features.drowsy))
    n_alert = len(features) - n_drowsy
    if n_alert == 0 or n_drowsy == 0:
        raise NeedTwoGroups(
            f"need both states, got {n_alert} alert / {n_drowsy} drowsy rows"
        )
    if min(n_alert, n_drowsy) < KS_MIN_SAMPLES:
        raise TooFewSamples(
            f"need at least {KS_MIN_SAMPLES} rows per state, "
            f"got {n_alert} alert / {n_drowsy} drowsy"
        )

    # one contiguous (features, rows) block per state
    alert = np.ascontiguousarray(features.values[~features.drowsy].T)
    drowsy = np.ascontiguousarray(features.values[features.drowsy].T)
    # the rank-sum tests run first: they reject non-finite values
    results = [rank_sum_test(a, b) for a, b in zip(alert, drowsy)]
    ks_alert = ks_normal_test(alert)
    ks_drowsy = ks_normal_test(drowsy)
    return [
        {
            "feature": name,
            "n_alert": n_alert,
            "n_drowsy": n_drowsy,
            "ks_p_alert": ka,
            "ks_p_drowsy": kd,
            "statistic": result.statistic,
            "p_value": result.p_value,
            "method": result.method.value,
            "significant": result.p_value < alpha,
        }
        for name, result, ka, kd in zip(features.feature_names, results, ks_alert, ks_drowsy)
    ]
