import json
import math
import warnings

import numpy as np
import pytest
from helpers import (
    average_ranks_scipy,
    exact_rank_sum_p,
    ks_normal_1d,
    normal_tails_scipy,
    rank_sum_counts_dp,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from scipy.stats import mannwhitneyu, norm

from drowsekit import stats
from drowsekit.errors import (
    NeedTwoGroups,
    NonFiniteSample,
    TooFewSamples,
)
from drowsekit.features import FeatureMatrix
from drowsekit.stats import (
    EXACT_PATH_MAX_MIN_N,
    TestMethod,
    _average_ranks,
    _edgeworth_tails,
    _lilliefors_p,
    _ndtr,
    _norm_pdf,
    _rank_sum_kurtosis_excess,
    _rank_sum_normal_approx,
    _rank_sum_null_cumulative,
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
    [p] = ks_normal_test([sample])
    d, p_reference = ks_normal_1d(sample)
    assert d == pytest.approx(_ks_d_oracle(sample), abs=1e-12)
    assert p == p_reference
    assert p > 0.5


def test_ks_alternating_sample_fails():
    sample = np.array([0.0, 1.0] * 50)
    [p] = ks_normal_test([sample])
    # oracle: fitted normal has mean 0.5, sd sqrt(25/99); the empirical CDF
    # jumps 0 -> 0.5 at x=0, so the gap there is 0.5 - Phi(-0.5/sd)
    sd = math.sqrt(100 * 0.25 / 99)
    expected_d = 0.5 - norm.cdf(-0.5 / sd)
    d, p_reference = ks_normal_1d(sample)
    assert d == pytest.approx(expected_d, abs=1e-12)
    assert p == p_reference
    assert p == pytest.approx(_lilliefors_p(expected_d, 100), rel=1e-9)
    assert p < 0.01


def test_ks_constant_sample():
    assert ks_normal_test([[2.0] * 10]) == [None]


def test_ks_too_few_samples():
    with pytest.raises(TooFewSamples):
        ks_normal_test([[1.0, 2.0, 3.0]])


def test_ks_rejects_a_one_dimensional_sample():
    with pytest.raises(ValueError, match=r"shape \(5,\)"):
        ks_normal_test([1.0, 2.0, 3.0, 4.0, 5.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_ks_non_finite_sample(bad):
    # a NaN statistic used to clamp to p = 0
    with pytest.raises(NonFiniteSample):
        ks_normal_test([[1.0, 2.0, 3.0, bad, 5.0]])


@pytest.mark.parametrize("scale,shift", [(2.0, 0.0), (0.5, -7.0), (100.0, 1e6)])
def test_ks_affine_invariance(rng, scale, shift):
    sample = rng.normal(size=50)
    [base], [moved] = ks_normal_test([sample]), ks_normal_test([scale * sample + shift])
    assert 0.0 < base < 1.0  # not clamped, so it moves with the statistic
    assert moved == pytest.approx(base, abs=1e-9)
    assert ks_normal_1d(scale * sample + shift)[0] == \
        pytest.approx(ks_normal_1d(sample)[0], abs=1e-9)


@pytest.mark.parametrize("exponent", [-1000, 1000])
def test_ks_power_of_two_scale_leaves_result_identical(rng, exponent):
    # at 2^1000 the squared deviations overflow float64 and at 2^-1000 they
    # underflow to a zero variance, unless the rows are scaled first
    sample = rng.normal(size=30)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ks_normal_test([np.ldexp(sample, exponent)]) == ks_normal_test([sample]) \
            == [ks_normal_1d(sample)[1]]


def test_ks_null_rate_reasonable(rng):
    # the same draws, row by row, as 200 separate samples of 100
    rejections = sum(p < 0.05 for p in ks_normal_test(rng.normal(size=(200, 100))))
    assert rejections <= 30  # approximation is mildly anti-conservative at most


def test_ks_block_matches_one_dimensional_test(rng):
    n = 37
    block = np.vstack([
        rng.normal(size=(4, n)) * np.array([[1.0], [1e-3], [50.0], [1e6]]) + 7.0,
        np.full(n, 2.5),  # zero variance
        rng.exponential(size=n),
        np.repeat(rng.normal(size=n // 2 + 1), 2)[:n],  # ties
    ])
    results = ks_normal_test(block)
    assert len(results) == len(block)
    for row, result in zip(block, results):
        assert [result] == ks_normal_test(row[np.newaxis])
        if np.ptp(row) == 0.0:
            assert result is None
            continue
        assert result == ks_normal_1d(row)[1]


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
    with pytest.raises(ValueError):
        exact_rank_sum_p([], [1.0])


def _null_counts(n_a, n_b):
    """The null counts of U, from a fresh (uncached) cumulative build."""
    cum = _rank_sum_null_cumulative.__wrapped__(min(n_a, n_b), max(n_a, n_b))
    return [hi - lo for lo, hi in zip(cum, cum[1:])]


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (3, 5), (5, 3), (8, 24), (24, 8), (8, 50)])
def test_null_counts_match_dynamic_program(n_a, n_b):
    counts = _null_counts(n_a, n_b)
    by_rank_sum = rank_sum_counts_dp(n_a, n_b)
    w_min = n_a * (n_a + 1) // 2
    assert by_rank_sum[:w_min] == [0] * w_min
    assert counts == by_rank_sum[w_min:]
    assert sum(counts) == math.comb(n_a + n_b, n_a)


def _exact_p_by_slice_sums(a, b):
    """The exact-path p-value from slices of freshly built null counts."""
    n_a, n_b = len(a), len(b)
    w = float(_average_ranks(np.concatenate([a, b]))[0][:n_a].sum())
    u = int(round(w - n_a * (n_a + 1) / 2.0))
    counts = _null_counts(n_a, n_b)
    return min(1.0, 2.0 * min(sum(counts[:u + 1]), sum(counts[u:]))
               / math.comb(n_a + n_b, n_a))


def test_memoised_exact_p_matches_slice_sums(rng):
    sizes = sorted({(k, m) for k in range(1, EXACT_PATH_MAX_MIN_N + 1)
                    for m in (k, k + 3, 24, 40, 61)})
    maxsize = _rank_sum_null_cumulative.cache_info().maxsize
    assert len(sizes) > maxsize  # later keys evict earlier ones
    _rank_sum_null_cumulative.cache_clear()
    for _ in range(2):  # the second pass rebuilds evicted entries
        for k, m in sizes:
            low, high = np.arange(k, dtype=float), np.arange(k, k + m, dtype=float)
            shuffled = rng.permutation(10_000)[:k + m].astype(float)
            # U at 0, at k*m and in between; each pair in both orientations,
            # the first call with its key cold, the second warm
            for a, b in ((low, high), (high + m, low), (shuffled[:k], shuffled[k:])):
                for x, y in ((a, b), (b, a)):
                    result = rank_sum_test(x, y)
                    assert result.method is TestMethod.EXACT_ENUMERATION
                    assert result.p_value == _exact_p_by_slice_sums(x, y)
    info = _rank_sum_null_cumulative.cache_info()
    assert info.hits > 0 and info.currsize == maxsize


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
        ranks, runs = _average_ranks(np.concatenate([a, b]))
        p_approx = _rank_sum_normal_approx(float(ranks[:len(a)].sum()), len(a), len(b),
                                           runs).p_value
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


# ---- normal tails and ranks against the scipy oracles ------------------------

# 0, the Edgeworth limit +/-5 and its neighbours, and tails past it
TAIL_Z = np.concatenate([
    [0.0, -0.0, 5.0, -5.0, np.nextafter(5.0, 6.0), -np.nextafter(5.0, 6.0),
     8.0, -8.0, 37.5, -37.5, 40.0, -40.0],
    np.linspace(-12.0, 12.0, 961),
    np.random.default_rng(5).normal(0.0, 3.0, 400),
])


def test_normal_tails_match_scipy_oracle():
    g2 = _rank_sum_kurtosis_excess(6, 9)
    for z in TAIL_Z.tolist():  # the rank-sum tails take Python floats
        cdf, sf, pdf = normal_tails_scipy(z)
        assert np.float64(_norm_pdf(z)).tobytes() == pdf.tobytes()
        correction = pdf * g2 / 24.0 * (z**3 - 3.0 * z) if abs(z) <= 5.0 else 0.0
        assert _edgeworth_tails(z, z, g2) == (min(1.0, max(0.0, float(cdf - correction))),
                                              min(1.0, max(0.0, float(sf + correction))))


def _ndtr_inputs():
    """Inputs on both sides of every branch of Cephes ``ndtr``: |a| * sqrt(1/2)
    at sqrt(1/2), 1 and 8 and where exp(-z * z) underflows, a few ulps
    either way; +/-0, subnormals, the largest floats and 100k random inputs."""
    edges = []
    for z in (stats._SQRTH, 1.0, 8.0, math.sqrt(stats._MAXLOG)):
        a = z / stats._SQRTH
        for _ in range(4):
            a = np.nextafter(a, 0.0)
        for _ in range(9):
            edges += [a, -a]
            a = np.nextafter(a, np.inf)
    tiny = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.7976931348623157e308]
    rng = np.random.default_rng(13)
    return np.concatenate([edges, tiny, np.negative(tiny), rng.uniform(-40.0, 40.0, 60000),
                           rng.normal(0.0, 3.0, 20000), rng.uniform(-1.5, 1.5, 20000)])


def test_ndtr_matches_scipy_bit_for_bit():
    a = _ndtr_inputs()
    z = np.abs(a[:72] * stats._SQRTH)
    for k, edge in enumerate((stats._SQRTH, 1.0, 8.0)):  # both sides of each edge
        assert {False, True} == set(z[18 * k:18 * k + 18] < edge)
    assert {False, True} == set(-z[54:] * z[54:] < -stats._MAXLOG)
    assert _ndtr(a).tobytes() == ndtr(a).tobytes()


def test_ndtr_of_nan_and_inf_is_quiet():
    # zero-variance KS rows standardise to NaN (0/0); z * z overflows past
    # 1.3e154, and pytest makes any warning an error
    assert _ndtr(np.array([math.inf, -math.inf, 1e200, -1e200])).tolist() == [1.0, 0.0, 1.0, 0.0]
    assert math.isnan(_ndtr(np.array([math.nan]))[0])


@pytest.mark.parametrize("ties", [False, True], ids=["tie-free", "tie-heavy"])
def test_average_ranks_match_scipy_oracle(rng, ties):
    for n in (1, 2, 7, 40, 500):
        for _ in range(20):
            x = rng.integers(0, 4, n).astype(float) if ties else rng.normal(size=n)
            ranks, runs = _average_ranks(x)
            assert ranks.tobytes() == average_ranks_scipy(x).tobytes()
            assert runs.tolist() == np.unique(x, return_counts=True)[1].tolist()


# ---- separation report ------------------------------------------------------

def _matrix(alert_rows, drowsy_rows, names=("f1", "f2")):
    n_alert, n = len(alert_rows), len(alert_rows) + len(drowsy_rows)
    return FeatureMatrix(
        feature_names=tuple(names),
        values=np.concatenate([np.reshape(alert_rows, (n_alert, len(names))),
                               np.reshape(drowsy_rows, (n - n_alert, len(names)))]),
        drowsy=np.arange(n) >= n_alert,
        interval_index=np.arange(n, dtype=np.int64))


@pytest.mark.parametrize("field, value", [
    ("drowsy", np.array([False, True, False, True], dtype=object)),
    ("drowsy", np.array([0, 1, 0, 1])),
    ("drowsy", np.zeros((4, 1), dtype=bool)),
    ("interval_index", np.arange(4.0)),
], ids=["object-drowsy", "int-drowsy", "2d-drowsy", "float-interval-index"])
def test_feature_matrix_rejects_wrong_label_arrays(field, value):
    # an int or object array used as a row mask would pick the wrong rows silently
    good = {"feature_names": ("f",), "values": np.zeros((4, 1)),
            "drowsy": np.zeros(4, dtype=bool), "interval_index": np.arange(4, dtype=np.int64)}
    FeatureMatrix(**good)
    with pytest.raises(ValueError, match=field):
        FeatureMatrix(**{**good, field: value})


def test_separation_report_flags_shifted_feature(rng):
    n = 200
    alert = np.column_stack([rng.normal(0, 1, n), rng.normal(5, 1, n)])
    drowsy = np.column_stack([rng.normal(0, 1, n), rng.normal(9, 1, n)])
    rows = separation_report(_matrix(alert, drowsy), alpha=0.05)
    by_name = {r["feature"]: r for r in rows}
    assert not by_name["f1"]["significant"]
    assert by_name["f2"]["significant"]
    assert by_name["f2"]["p_value"] < 1e-6
    assert by_name["f2"]["n_alert"] == n and by_name["f2"]["n_drowsy"] == n


def test_separation_report_single_state(rng):
    matrix = _matrix([[float(k), 1.0] for k in range(10)], [])
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
    by_name = {r["feature"]: r for r in rows}
    assert by_name["f1"]["ks_p_alert"] is None
    assert by_name["f1"]["ks_p_drowsy"] is not None


def test_separation_report_ks_matches_per_group_test(rng):
    alert = rng.normal(size=(12, 3)) * [1.0, 1e4, 1.0]
    drowsy = rng.exponential(size=(9, 3))
    alert[:, 2] = -1.5  # zero variance
    rows = separation_report(_matrix(alert, drowsy, names=("f1", "f2", "f3")))
    assert rows[2]["ks_p_alert"] is None
    for j, row in enumerate(rows):
        assert [row["ks_p_alert"]] == ks_normal_test([alert[:, j]])
        assert [row["ks_p_drowsy"]] == ks_normal_test([drowsy[:, j]])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_separation_report_non_finite_raises_rank_sum_error(rng, bad):
    # the rank-sum test's error, not one from the normality gate
    alert = rng.normal(size=(10, 3))
    drowsy = rng.normal(size=(10, 3))
    drowsy[4, 2] = bad
    with pytest.raises(NonFiniteSample, match="^samples hold a NaN or infinite value$"):
        separation_report(_matrix(alert, drowsy, names=("f1", "f2", "f3")))


def test_exact_report_builds_null_distribution_once(rng):
    _rank_sum_null_cumulative.cache_clear()
    names = tuple(f"f{i}" for i in range(44))
    rows = separation_report(_matrix(rng.normal(size=(24, 44)), rng.normal(size=(8, 44)),
                                     names=names))
    built = _rank_sum_null_cumulative.cache_info()
    _rank_sum_null_cumulative(8, 24)  # the one key it built
    looked_up = _rank_sum_null_cumulative.cache_info()
    _rank_sum_null_cumulative.cache_clear()
    assert all(r["method"] == TestMethod.EXACT_ENUMERATION.value for r in rows)
    assert (built.misses, built.hits) == (1, 43)
    assert (looked_up.misses, looked_up.hits) == (1, 44)


def test_separation_significance_is_strict(rng):
    # significance must be exactly (p < alpha)
    alert = rng.normal(0, 1, (30, 1))
    drowsy = rng.normal(0.4, 1, (30, 1))
    row = separation_report(_matrix(alert, drowsy, names=("f",)), alpha=0.05)[0]
    assert row["significant"] == (row["p_value"] < 0.05)


def test_separation_report_row_order_follows_matrix(rng):
    names = ("z_last", "a_first", "m_mid")
    matrix = _matrix(rng.normal(size=(8, 3)), rng.normal(size=(8, 3)), names=names)
    rows = separation_report(matrix)
    assert tuple(r["feature"] for r in rows) == names


def test_separation_report_json_round_trip(rng):
    matrix = _matrix(rng.normal(size=(10, 2)), rng.normal(size=(10, 2)))
    rows = separation_report(matrix)
    recovered = json.loads(json.dumps(rows))
    assert recovered == rows
    assert list(rows[0]) == ["feature", "n_alert", "n_drowsy", "ks_p_alert", "ks_p_drowsy",
                             "statistic", "p_value", "method", "significant"]


def test_permutation_null_calibration(rng):
    # fixed feature table, labels shuffled: the significant fraction
    # averages near alpha
    n = 120
    values = rng.normal(size=(2 * n, 10))
    fractions = []
    for _ in range(50):
        drowsy = np.arange(2 * n) >= n
        rng.shuffle(drowsy)
        matrix = FeatureMatrix(
            feature_names=tuple(f"f{i}" for i in range(10)),
            values=values,
            drowsy=drowsy,
            interval_index=np.arange(2 * n),
        )
        rows = separation_report(matrix, alpha=0.05)
        fractions.append(np.mean([r["significant"] for r in rows]))
    assert 0.02 <= np.mean(fractions) <= 0.08
