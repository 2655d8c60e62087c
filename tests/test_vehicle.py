import tracemalloc
import warnings

import numpy as np
import pytest
from helpers import interval_aggregate_mask

from drowsekit.errors import NonFiniteSample
from drowsekit.session import (
    VEHICLE_SERIES,
    OrdLabelTrack,
    make_telemetry,
)
from drowsekit.synthgen import SynthSpec, generate_session
from drowsekit.vehicle import interval_aggregate


def _labels(ratings_per_interval):
    return OrdLabelTrack(intervals=tuple(ratings_per_interval))


def _telemetry(n_intervals, rate=50.0, fill=0.0):
    n = int(n_intervals * 30 * rate)
    return make_telemetry(np.full((4, n), fill), sample_rate_hz=rate)


@pytest.mark.parametrize("rate", [0.0, -50.0, float("nan"), float("inf")])
def test_rejects_rate_not_finite_and_positive(rate):
    # such a rate gives no ascending timestamps or expected sample count, so
    # telemetry with it cannot be built
    with pytest.raises(ValueError, match="finite and positive"):
        make_telemetry(np.zeros((4, 4500)), sample_rate_hz=rate)


def test_constant_signal_mean():
    rate = 50.0
    n = int(30 * rate)
    series = [np.zeros(n), np.zeros(n), np.full(n, 0.4), np.zeros(n)]
    tel = make_telemetry(series, sample_rate_hz=rate)
    out = interval_aggregate(tel, _labels([(1, 1, 1)]))
    assert len(out) == 1
    lane_idx = VEHICLE_SERIES.index("lane_deviation")
    assert out.values[0, lane_idx] == pytest.approx(0.4)


def test_signed_mean_cancels():
    rate = 50.0
    n = int(30 * rate)
    steer = np.tile([5.0, -5.0], n // 2)
    tel = make_telemetry([steer, np.zeros(n), np.zeros(n), np.zeros(n)],
                         sample_rate_hz=rate)
    out = interval_aggregate(tel, _labels([(1, 1, 1)]))
    assert out.values[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_abs_mean_variant():
    rate = 50.0
    n = int(30 * rate)
    steer = np.tile([5.0, -5.0], n // 2)
    tel = make_telemetry([steer, np.zeros(n), np.zeros(n), np.zeros(n)],
                         sample_rate_hz=rate)
    out = interval_aggregate(tel, _labels([(1, 1, 1)]), abs_mean=True)
    assert out.values[0, 0] == pytest.approx(5.0)


@pytest.mark.parametrize("spike,abs_mean", [((1.7e308, 1.7e308), False),
                                             ((1.7e308, 1.7e308), True),
                                             ((1.7e308, -1.7e308), True)])
def test_overflowing_interval_mean_raises_naming_series_and_interval(spike, abs_mean):
    # the two samples sum past float64's largest; signed, +/-1.7e308 cancel
    tel = _telemetry(3)
    series = tel.series.copy()
    series[VEHICLE_SERIES.index("torque"), 1500 + 20:1500 + 22] = spike
    tel = make_telemetry(series, sample_rate_hz=50.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteSample, match=r"^series torque of interval 1 has a "
                                                  r"non-finite mean \(inf\)$"):
            interval_aggregate(tel, _labels([(1, 1, 1)] * 3), abs_mean=abs_mean)
        if spike[0] != spike[1]:
            signed = interval_aggregate(tel, _labels([(1, 1, 1)] * 3))
            assert signed.values[1, VEHICLE_SERIES.index("torque")] == 0.0


def test_low_coverage_interval_skipped():
    # the stage only computes: process_session records the skipped interval
    rate = 50.0
    n = int(0.1 * 30 * rate)  # 10% of one interval
    tel = make_telemetry(np.zeros((4, n)), sample_rate_hz=rate)
    out = interval_aggregate(tel, _labels([(1, 1, 1)]))
    assert len(out) == 0
    assert out.feature_names == VEHICLE_SERIES
    assert out.interval_index.shape == (0,)


def test_mean_invariant_to_sample_rate():
    labels = _labels([(1, 1, 1)])
    means = []
    for rate in (10.0, 50.0):
        tel = _telemetry(1, rate=rate, fill=2.5)
        out = interval_aggregate(tel, labels)
        means.append(out.values[0, 0])
    assert means[0] == pytest.approx(means[1])


def test_emitted_indices_subset_of_labels():
    rate = 20.0
    # telemetry covers only 2 of 4 labeled intervals
    tel = _telemetry(2, rate=rate)
    out = interval_aggregate(tel, _labels([(1, 1, 1)] * 4))
    indices = out.interval_index.tolist()
    assert indices == [0, 1]
    assert len(set(indices)) == len(indices)


def test_states_follow_majority_vote():
    tel = _telemetry(2)
    out = interval_aggregate(tel, _labels([(1, 2, 1), (3, 4, 4)]))
    assert out.drowsy.dtype == bool
    assert out.drowsy.tolist() == [False, True]


def test_vehicle_feature_matrix_shape():
    tel = _telemetry(3, fill=1.5)
    matrix = interval_aggregate(tel, _labels([(1, 1, 1), (4, 4, 4), (2, 2, 2)]))
    assert matrix.feature_names == VEHICLE_SERIES
    assert matrix.values.shape == (3, 4)
    assert np.all(matrix.values == 1.5)


@pytest.mark.parametrize("abs_mean", [False, True])
@pytest.mark.parametrize("n_intervals,n_labels,rate,start_s", [
    (10, 10, 50.0, 0.0),
    (40, 40, 50.0, 0.0),
    (160, 160, 50.0, 0.0),
    (10, 10, 33.3, 12.25),  # interval edges fall between samples
    (10, 13, 50.0, 0.0),    # labels past the telemetry: coverage skip
    (10, 12, 37.0, 16.0),   # a part-covered interval, then none
])
def test_sliced_aggregate_matches_mask_reference(rng, abs_mean, n_intervals, n_labels,
                                                 rate, start_s):
    n = int(n_intervals * 30 * rate)
    tel = make_telemetry(rng.normal(0.5, 3.0, (4, n)), sample_rate_hz=rate,
                         start_time_s=start_s)
    labels = _labels([(1 + k % 5,) * 3 for k in range(n_labels)])
    got = interval_aggregate(tel, labels, abs_mean=abs_mean)
    want = interval_aggregate_mask(tel, labels, abs_mean=abs_mean)
    assert got.values.tobytes() == want.values.tobytes()
    assert got.interval_index.tobytes() == want.interval_index.tobytes()
    assert got.drowsy.tobytes() == want.drowsy.tobytes()


@pytest.mark.parametrize("abs_mean", [False, True])
def test_aggregate_copies_one_interval_at_a_time(abs_mean):
    # a copy of the whole (4, 24000) record, 0.77 MB, would reach the bound
    session = generate_session(SynthSpec(n_intervals=16), seed=3)
    telemetry = session.telemetry
    interval_aggregate(telemetry, session.labels, abs_mean=abs_mean)  # warm-up
    tracemalloc.start()
    try:
        interval_aggregate(telemetry, session.labels, abs_mean=abs_mean)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < telemetry.series.nbytes
