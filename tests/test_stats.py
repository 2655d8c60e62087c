import json
import math

import numpy as np
import pytest
from helpers import exact_rank_sum_p, rank_sum_counts_dp
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import mannwhitneyu, norm

from drowsekit.errors import (
    EmptySample,
    NeedTwoGroups,
    NonFiniteSample,
    TooFewSamples,
    ZeroVariance,
)
from drowsekit.features import FeatureMatrix
from drowsekit.session import BinaryState
from drowsekit.stats import (
    EXACT_PATH_MAX_MIN_N,
    TestMethod,
    _rank_sum_normal_approx,
    _rank_sum_null_counts,
    ks_normal_test,
    rank_sum_test,
    separation_report,
)


# ---- KS normality gate -------------------------------------------------

def _ks_d_oracle(sample):
    """Closed-form D for a sorted sample: envelope gap at every point."""
    x = np.sort(np.asarray(sample, dtype=float))
    n = len(x)
    z = (x - x.mean()) / x.std(ddof=1)
    cdf = norm.cdf(z)
    gaps = [max(abs((i + 1) / n - c), abs(i / n - c)) for i, c in enumerate(cdf)]
    return max(gaps)


def test_ks_normal_quantile_sample_passes():
    n = 100
    sample = norm.ppf(np.arange(1, n + 1) / (n + 1))
    result = ks_normal_test(sample)
    assert result.method is TestMethod.KS_LILLIEFORS
    assert result.statistic == pytest.approx(_ks_d_oracle(sample), abs=1e-12)
    assert result.p_value > 0.5


def test_ks_alternating_sample_fails():
    sample = np.array([0.0, 1.0] * 50)
    result = ks_normal_test(sample)
    # oracle: fitted normal has mean 0.5, sd sqrt(25/99); the empirical CDF
    # jumps 0 -> 0.5 at x=0, so the gap there is 0.5 - Phi(-0.5/sd)
    sd = math.sqrt(100 * 0.25 / 99)
    expected_d = 0.5 - norm.cdf(-0.5 / sd)
    assert result.statistic == pytest.approx(expected_d, abs=1e-12)
    assert result.p_value < 0.01


def test_ks_constant_sample():
    with pytest.raises(ZeroVariance):
        ks_normal_test([2.0] * 10)


def test_ks_too_few_samples():
    with pytest.raises(TooFewSamples):
        ks_normal_test([1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_non_finite_sample(bad):
    # a NaN statistic used to clamp to p = 0
    with pytest.raises(NonFiniteSample):
        ks_normal_test([1.0, 2.0, 3.0, bad, 5.0])


@pytest.mark.parametrize("scale,shift", [(2.0, 0.0), (0.5, -7.0), (100.0, 1e6)])
def test_ks_affine_invariance(rng, scale, shift):
    sample = rng.normal(size=50)
    base = ks_normal_test(sample)
    moved = ks_normal_test(scale * sample + shift)
    assert moved.statistic == pytest.approx(base.statistic, abs=1e-9)


def test_ks_null_rate_reasonable(rng):
    rejections = sum(ks_normal_test(rng.normal(size=100)).p_value < 0.05
                     for _ in range(200))
    assert rejections <= 30  # approximation is mildly anti-conservative at most


# ---- rank-sum test --------------------------------------------------------

def test_rank_sum_identical_multisets():
    result = rank_sum_test([1, 2, 3, 4, 5], [1, 2, 3, 4, 5])
    assert result.p_value == 1.0
    assert result.statistic == pytest.approx(12.5)  # U at its null mean


def test_rank_sum_exact_small_pairs():
    result = rank_sum_test([1.0, 2.0], [3.0, 4.0])
    assert result.method is TestMethod.EXACT_ENUMERATION
    assert result.p_value == pytest.approx(1 / 3, abs=1e-15)

    result = rank_sum_test([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    assert result.method is TestMethod.EXACT_ENUMERATION
    assert result.p_value == pytest.approx(0.1, abs=1e-15)


def test_rank_sum_routes_large_to_approx(rng):
    a = rng.normal(size=50)
    b = rng.normal(size=50)
    assert rank_sum_test(a, b).method is TestMethod.NORMAL_APPROX


def test_rank_sum_ties_route_to_approx():
    result = rank_sum_test([1.0, 2.0, 2.0], [2.0, 3.0, 4.0])
    assert result.method is TestMethod.NORMAL_APPROX


def test_rank_sum_empty_sample():
    with pytest.raises(EmptySample):
        rank_sum_test([], [1.0])


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_rank_sum_non_finite_sample(bad):
    # large enough for the normal approximation, where NaN used to give p = 0
    a = np.arange(12.0)
    a[3] = bad
    with pytest.raises(NonFiniteSample):
        rank_sum_test(a, np.arange(12.0) + 0.5)


def test_rank_sum_all_tied():
    result = rank_sum_test([5.0] * 10, [5.0] * 12)
    assert result.p_value == 1.0


def test_exact_rank_sum_oracle_values():
    assert exact_rank_sum_p([1, 2], [3, 4]) == pytest.approx(1 / 3, abs=1e-15)
    assert exact_rank_sum_p([5], [1, 2, 3]) == pytest.approx(0.5, abs=1e-15)
    assert exact_rank_sum_p([1], [1]) == 1.0


def test_exact_rank_sum_size_limit():
    with pytest.raises(ValueError):
        exact_rank_sum_p(list(range(9)), list(range(8)))
    with pytest.raises(EmptySample):
        exact_rank_sum_p([], [1.0])


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (3, 5), (5, 3), (8, 24), (24, 8), (8, 50)])
def test_null_counts_match_dynamic_program(n_a, n_b):
    counts = _rank_sum_null_counts(n_a, n_b)
    by_rank_sum = rank_sum_counts_dp(n_a, n_b)
    w_min = n_a * (n_a + 1) // 2
    assert by_rank_sum[:w_min] == [0] * w_min
    assert counts == by_rank_sum[w_min:]
    assert sum(counts) == math.comb(n_a + n_b, n_a)


def _random_tie_free_pair(rng, lo=3, hi=6):
    n_a, n_b = rng.integers(lo, hi + 1, 2)
    while True:
        values = rng.integers(0, 10_000, n_a + n_b)
        if len(np.unique(values)) == n_a + n_b:
            break
    return values[:n_a].astype(float), values[n_a:].astype(float)


def test_exact_path_matches_brute_force(rng):
    for _ in range(200):
        a, b = _random_tie_free_pair(rng)
        result = rank_sum_test(a, b)
        assert result.method is TestMethod.EXACT_ENUMERATION
        assert abs(result.p_value - exact_rank_sum_p(a, b)) <= 1e-12


def test_exact_path_matches_scipy_mannwhitneyu(rng):
    # a third oracle, on sizes the brute force cannot reach and in both
    # orientations; the two differ only by rounding of the final division
    worst = 0.0
    for _ in range(400):
        n_small = int(rng.integers(1, EXACT_PATH_MAX_MIN_N + 1))
        n_large = int(rng.integers(n_small, 61))
        values = rng.permutation(10_000)[:n_small + n_large].astype(float)
        a, b = values[:n_large], values[n_large:]
        if rng.integers(2):
            a, b = b, a
        result = rank_sum_test(a, b)
        assert result.method is TestMethod.EXACT_ENUMERATION
        p = mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
        worst = max(worst, abs(result.p_value - p) / p)
    assert worst <= 1e-14


def test_approx_tracks_exact(rng):
    worst = 0.0
    for _ in range(200):
        a, b = _random_tie_free_pair(rng)
        p_exact = exact_rank_sum_p(a, b)
        p_approx = _rank_sum_normal_approx(np.concatenate([a, b]), len(a)).p_value
        worst = max(worst, abs(p_approx - p_exact))
    assert worst <= 0.03


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10),
       st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=10))
@settings(max_examples=50, deadline=None)
def test_rank_sum_symmetric(a, b):
    assert rank_sum_test(a, b).p_value == pytest.approx(
        rank_sum_test(b, a).p_value, abs=1e-12)


@given(st.lists(st.floats(-100, 100), min_size=3, max_size=8, unique=True),
       st.lists(st.floats(-100, 100), min_size=3, max_size=8, unique=True),
       st.floats(0.1, 10.0), st.floats(-50.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_rank_sum_monotone_transform_invariant(a, b, scale, shift):
    pooled = a + b
    moved_pool = [scale * v + shift for v in pooled]
    # float rounding can merge nearly equal values, making the map
    # non-injective; the invariant presumes a genuinely increasing map
    assume(len(set(moved_pool)) == len(set(pooled)))
    base = rank_sum_test(a, b)
    moved = rank_sum_test(moved_pool[:len(a)], moved_pool[len(a):])
    assert moved.statistic == base.statistic
    assert moved.p_value == base.p_value


def test_rank_sum_invariant_under_exp(rng):
    a = rng.uniform(-3, 3, 12)
    b = rng.uniform(-3, 3, 15)
    base = rank_sum_test(a, b)
    moved = rank_sum_test(np.exp(a), np.exp(b))
    assert moved.statistic == base.statistic
    assert moved.p_value == base.p_value


# ---- separation report ------------------------------------------------------

def _matrix(alert_rows, drowsy_rows, names=("f1", "f2")):
    rows = [(k, BinaryState.ALERT, r) for k, r in enumerate(alert_rows)]
    rows += [(len(alert_rows) + k, BinaryState.DROWSY, r)
             for k, r in enumerate(drowsy_rows)]
    return FeatureMatrix.from_rows(names, rows, session_id="t")


def test_separation_report_flags_shifted_feature(rng):
    n = 200
    alert = np.column_stack([rng.normal(0, 1, n), rng.normal(5, 1, n)])
    drowsy = np.column_stack([rng.normal(0, 1, n), rng.normal(9, 1, n)])
    rows = separation_report(_matrix(alert, drowsy), alpha=0.05)
    by_name = {r.feature: r for r in rows}
    assert not by_name["f1"].significant
    assert by_name["f2"].significant
    assert by_name["f2"].p_value < 1e-6
    assert by_name["f2"].n_alert == n and by_name["f2"].n_drowsy == n


def test_separation_report_single_state(rng):
    rows = [(k, BinaryState.ALERT, [float(k), 1.0]) for k in range(10)]
    matrix = FeatureMatrix.from_rows(("f1", "f2"), rows)
    with pytest.raises(NeedTwoGroups):
        separation_report(matrix)


def test_separation_report_too_few(rng):
    matrix = _matrix(rng.normal(size=(3, 2)), rng.normal(size=(10, 2)))
    with pytest.raises(TooFewSamples):
        separation_report(matrix)


def test_separation_report_zero_variance_group_records_none(rng):
    alert = np.column_stack([np.full(10, 3.0), rng.normal(size=10)])
    drowsy = np.column_stack([rng.normal(size=12), rng.normal(size=12)])
    rows = separation_report(_matrix(alert, drowsy))
    by_name = {r.feature: r for r in rows}
    assert by_name["f1"].ks_p_alert is None
    assert by_name["f1"].ks_p_drowsy is not None


def test_separation_significance_is_strict(rng):
    # significance must be exactly (p < alpha)
    alert = rng.normal(0, 1, (30, 1))
    drowsy = rng.normal(0.4, 1, (30, 1))
    row = separation_report(_matrix(alert, drowsy, names=("f",)), alpha=0.05)[0]
    assert row.significant == (row.p_value < 0.05)


def test_separation_report_row_order_follows_matrix(rng):
    names = ("z_last", "a_first", "m_mid")
    matrix = _matrix(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)), names=names)
    rows = separation_report(matrix)
    assert tuple(r.feature for r in rows) == names


def test_separation_report_json_round_trip(rng):
    matrix = _matrix(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    rows = [row.to_json_dict() for row in separation_report(matrix)]
    recovered = json.loads(json.dumps(rows))
    assert recovered == rows
    assert {"feature", "n_alert", "n_drowsy", "ks_p_alert", "ks_p_drowsy",
            "statistic", "p_value", "method", "significant"} == set(rows[0])


def test_permutation_null_calibration(rng):
    # fixed feature table, labels shuffled: the significant fraction
    # averages near alpha
    n = 120
    values = rng.normal(size=(2 * n, 10))
    fractions = []
    for _ in range(50):
        states = np.array([BinaryState.ALERT] * n + [BinaryState.DROWSY] * n)
        rng.shuffle(states)
        matrix = FeatureMatrix(
            feature_names=tuple(f"f{i}" for i in range(10)),
            values=values,
            states=tuple(states),
            interval_indices=tuple(range(2 * n)),
            session_ids=("s",) * (2 * n),
        )
        rows = separation_report(matrix, alpha=0.05)
        fractions.append(np.mean([r.significant for r in rows]))
    assert 0.02 <= np.mean(fractions) <= 0.08
