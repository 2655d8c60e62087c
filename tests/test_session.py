import itertools

import numpy as np
import pytest
from helpers import epoch_starts_loop, interval_slices_loop
from hypothesis import given
from hypothesis import strategies as st

from drowsekit.errors import InvalidRating
from drowsekit.preprocess import epoch_signal
from drowsekit.session import (
    EegRecording,
    OrdLabelTrack,
    Session,
    VehicleTelemetry,
    epoch_starts,
    interval_slices,
    make_eeg_recording,
    make_telemetry,
    validate_session,
)
from drowsekit.vehicle import interval_aggregate

ratings_strategy = st.tuples(*[st.integers(1, 5)] * 3)


# the ids predate the bool vote; they stay so that test histories line up
_VOTES = [((1, 1, 2), False), ((3, 4, 5), True), ((1, 3, 5), True),
          ((2, 3, 2), False), ((2, 2, 2), False), ((5, 5, 5), True)]


@pytest.mark.parametrize("ratings,expected", _VOTES, ids=[
    f"ratings{k}-BinaryState.{'DROWSY' if drowsy else 'ALERT'}"
    for k, (_, drowsy) in enumerate(_VOTES)])
def test_majority_label_examples(ratings, expected):
    assert OrdLabelTrack(intervals=(ratings,)).drowsy.tolist() == [expected]


# a bool is an int, but the labels CSV would hold "True", which no loader reads back
@pytest.mark.parametrize("ratings", [(0, 1, 2), (1, 6, 3), (1, 2), (1, 2, 3, 4),
                                     (True, 2, 3), (1, 2, False)])
def test_majority_label_rejects_bad_input(ratings):
    # an interval holds three ratings in 1..5 by construction
    with pytest.raises(InvalidRating):
        OrdLabelTrack(intervals=((1, 1, 1), ratings))


@given(ratings_strategy, st.permutations(range(3)))
def test_majority_label_permutation_invariant(ratings, perm):
    shuffled = tuple(ratings[i] for i in perm)
    assert (OrdLabelTrack(intervals=(shuffled,)).drowsy.tolist()
            == OrdLabelTrack(intervals=(ratings,)).drowsy.tolist())


@given(ratings_strategy)
def test_majority_label_unanimous_bounds(ratings):
    (drowsy,) = OrdLabelTrack(intervals=(ratings,)).drowsy.tolist()
    if all(r >= 3 for r in ratings):
        assert drowsy is True
    if all(r <= 2 for r in ratings):
        assert drowsy is False


def test_label_track_votes_per_position():
    track = OrdLabelTrack(intervals=tuple(r for r, _ in _VOTES))
    assert track.drowsy.dtype == bool
    assert track.drowsy.tolist() == [d for _, d in _VOTES]
    assert OrdLabelTrack(intervals=()).drowsy.shape == (0,)


def _labels(n, ratings=(1, 1, 2)):
    return OrdLabelTrack(intervals=(ratings,) * n)


def _session(n_intervals=20, sample_rate=256.0,
             samples_per_channel=None, telemetry=None):
    if samples_per_channel is None:
        samples_per_channel = int(n_intervals * 30 * 256)
    eeg = make_eeg_recording(
        [np.zeros(samples_per_channel)] * 4,
        sample_rate_hz=sample_rate,
    )
    return Session(id="s1", eeg=eeg,
                   labels=_labels(n_intervals),
                   telemetry=telemetry)


def test_validate_well_formed_session():
    assert validate_session(_session()) == []


def test_validate_flags_wrong_sample_rate():
    codes = [v.code for v in validate_session(_session(sample_rate=250.0))]
    assert "WrongSampleRate" in codes


@pytest.mark.parametrize("rows", [
    [np.zeros(7680), np.zeros(7680), np.zeros(7680), np.zeros(100)],  # ragged
    np.zeros(7680),  # one row, not one per channel
], ids=["ragged", "1d"])
@pytest.mark.parametrize("build", [
    make_eeg_recording,
    lambda rows: make_telemetry(rows, sample_rate_hz=50.0),
], ids=["eeg", "telemetry"])
def test_recording_must_be_a_rectangular_array(build, rows):
    # a recording holds equal-length rows by construction: nothing to validate
    with pytest.raises(ValueError):
        build(rows)


@pytest.mark.parametrize("build", [
    lambda: EegRecording(channels=(np.zeros(7680),) * 4),
    lambda: EegRecording(channels=np.zeros((4, 7680), dtype=np.float32)),
    lambda: VehicleTelemetry(series=np.zeros(100), sample_rate_hz=50.0),
    # one row per EEG_CHANNELS / VEHICLE_SERIES entry
    lambda: EegRecording(channels=np.zeros((3, 7680))),
    lambda: EegRecording(channels=np.zeros((5, 7680))),
    lambda: VehicleTelemetry(series=np.zeros((3, 1500)), sample_rate_hz=50.0),
], ids=["tuple", "float32", "1d", "eeg-3-rows", "eeg-5-rows", "telemetry-3-rows"])
def test_recording_constructors_take_only_2d_float64_arrays(build):
    with pytest.raises(ValueError, match="2-D float64 array"):
        build()


def test_validate_flags_labels_past_recording():
    # 5 intervals of labels over 3 intervals of EEG exceeds the 1-interval slack
    session = _session(n_intervals=5, samples_per_channel=3 * 7680)
    codes = [v.code for v in validate_session(session)]
    assert "CoverageMismatch" in codes


def test_validate_allows_one_interval_slack():
    session = _session(n_intervals=4, samples_per_channel=3 * 7680)
    assert validate_session(session) == []


def _telemetry(n_intervals, start_time_s=0.0, rate=50.0):
    return make_telemetry(np.zeros((4, int(n_intervals * 30 * rate))), sample_rate_hz=rate,
                          start_time_s=start_time_s)


@pytest.mark.parametrize("start_time_s", [1000.0, float("nan"), float("inf")])
def test_validate_flags_eeg_clock_off_the_label_grid(start_time_s):
    # a clock past the labels, or no finite clock at all, covers no interval
    eeg = make_eeg_recording(np.zeros((4, 4 * 7680)), start_time_s=start_time_s)
    session = Session(id="s", eeg=eeg, labels=_labels(4))
    assert [v.code for v in validate_session(session)] == ["CoverageMismatch"]


@pytest.mark.parametrize("start_time_s, codes", [
    (1000.0, ["TelemetryCoverageMismatch"]),
    (30.0, []),  # one interval left uncovered: the slack
    (45.0, []),  # the second interval holds half its samples, which is enough
    (46.0, ["TelemetryCoverageMismatch"]),  # ... and under half
    (-46.0, ["TelemetryCoverageMismatch"]),  # the last two hold under half and none
])
def test_validate_checks_the_telemetry_clock(start_time_s, codes):
    session = _session(n_intervals=4, telemetry=_telemetry(4, start_time_s))
    assert [v.code for v in validate_session(session)] == codes


@pytest.mark.parametrize("start_time_s", [-45.0, -30.0, -15.0, -0.01, 0.0, 0.01, 15.0, 30.0,
                                          31.0, 60.0, 75.0, 1000.0])
def test_validate_and_the_stages_agree_on_coverage(start_time_s):
    # a recording is flagged exactly when the stages would skip more than
    # one label interval of it
    labels = _labels(4)
    eeg = make_eeg_recording(np.zeros((4, 4 * 7680)), start_time_s=start_time_s)
    telemetry = _telemetry(4, start_time_s)
    session = Session(id="s", eeg=eeg, labels=labels, telemetry=telemetry)
    codes = [v.code for v in validate_session(session)]
    n_epochs = len(epoch_signal(eeg, labels))
    n_rows = len(interval_aggregate(telemetry, labels))
    assert ("CoverageMismatch" in codes) == (len(labels) - n_epochs > 1)
    assert ("TelemetryCoverageMismatch" in codes) == (len(labels) - n_rows > 1)


def test_validate_never_mutates(rng):
    session = _session(sample_rate=250.0)
    before = [c.copy() for c in session.eeg.channels]
    validate_session(session)
    for b, c in zip(before, session.eeg.channels):
        np.testing.assert_array_equal(b, c)


# clock starts (half a sample at 256 Hz either way last: the grid's offsets
# then end in .5 and round half to even), rates, recording lengths in
# samples and track lengths on which the array coverage meets the loop
_STARTS = [0.0, 1e300, -1e300, 1.7e308, -1.7e308, float("nan"), float("inf"),
           float("-inf"), 0.5 / 256, -0.5 / 256]
_RATES = [256.0, 250.0, 1e-300, 1e300]
_LENGTHS = [0, 7679, 7680, 7681, 10 * 7680]
_TRACKS = [0, 1, 3, 10]


@pytest.mark.parametrize("rate", _RATES)
@pytest.mark.parametrize("start_time_s", _STARTS)
def test_coverage_arrays_match_the_per_interval_loop(start_time_s, rate):
    for n_samples, n_intervals in itertools.product(_LENGTHS, _TRACKS):
        labels = _labels(n_intervals)
        eeg = EegRecording(np.zeros((4, n_samples)), rate, start_time_s)
        telemetry = VehicleTelemetry(np.zeros((4, n_samples)), rate, start_time_s)
        with np.errstate(all="raise"):
            got = (epoch_starts(eeg, labels), interval_slices(telemetry, labels))
            want = (epoch_starts_loop(eeg, labels), interval_slices_loop(telemetry, labels))
        for got_arrays, want_lists in zip(got, want):
            for a, b in zip(got_arrays, want_lists, strict=True):
                assert a.dtype == np.int64
                assert a.tolist() == b, (n_samples, n_intervals)
