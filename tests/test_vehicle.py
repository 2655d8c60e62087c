import logging

import numpy as np
import pytest

from drowsekit.session import (
    VEHICLE_SERIES,
    BinaryState,
    OrdInterval,
    OrdLabelTrack,
    make_telemetry,
)
from drowsekit.vehicle import interval_aggregate


def _labels(ratings_per_interval):
    return OrdLabelTrack(intervals=tuple(
        OrdInterval(index=k, ratings=r) for k, r in enumerate(ratings_per_interval)))


def _telemetry(n_intervals, rate=50.0, fill=0.0):
    n = int(n_intervals * 30 * rate)
    return make_telemetry(np.full((4, n), fill), sample_rate_hz=rate)


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


def test_low_coverage_interval_skipped(caplog):
    rate = 50.0
    n = int(0.1 * 30 * rate)  # 10% of one interval
    tel = make_telemetry(np.zeros((4, n)), sample_rate_hz=rate)
    with caplog.at_level(logging.WARNING, logger="drowsekit.vehicle"):
        out = interval_aggregate(tel, _labels([(1, 1, 1)]))
    assert len(out) == 0
    assert out.feature_names == VEHICLE_SERIES
    assert "skipped 1" in caplog.text


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
    indices = list(out.interval_indices)
    assert indices == [0, 1]
    assert len(set(indices)) == len(indices)


def test_states_follow_majority_vote():
    tel = _telemetry(2)
    out = interval_aggregate(tel, _labels([(1, 2, 1), (3, 4, 4)]))
    assert out.states[0] is BinaryState.ALERT
    assert out.states[1] is BinaryState.DROWSY


def test_vehicle_feature_matrix_shape():
    tel = _telemetry(3, fill=1.5)
    matrix = interval_aggregate(tel, _labels([(1, 1, 1), (4, 4, 4), (2, 2, 2)]),
                                session_id="v1")
    assert matrix.feature_names == VEHICLE_SERIES
    assert matrix.session_ids == ("v1",) * 3
    assert matrix.values.shape == (3, 4)
    assert np.all(matrix.values == 1.5)
