"""The session pipeline against a per-epoch reference built on the scipy
filter and Welch oracles, its per-session record, its memory bound, and the
cohort pass that holds one session at a time."""

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from helpers import band_limit, band_power, sine_wave, total_power, welch_psd_scipy

from drowsekit import preprocess
from drowsekit.pipeline import RunConfig, analyze_cohort, denoise_table, process_session
from drowsekit.preprocess import (
    DEFAULT_AMPLITUDE_THRESHOLD_UV,
    DEFAULT_MAX_OUTLIER_FRACTION,
    EPOCH_SAMPLES,
)
from drowsekit.session import Session, make_eeg_recording, validate_session
from drowsekit.spectral import BANDS
from drowsekit.synthgen import SynthSpec, generate_session

# a 150 uV tone exceeds 70 uV for about 69% of its samples
TONE = sine_wave(10.0, amplitude=150.0)
# the epoch counts of a session record, as the reference returns them
COUNT_KEYS = ("pre_alert", "pre_drowsy", "post_alert", "post_drowsy")


def _session_with_tones(seed, all_channels, channel0):
    """A synthetic session with the tone added to every channel of the
    ``all_channels`` intervals and to channel 0 of the ``channel0`` ones."""
    session = generate_session(SynthSpec(n_intervals=8, drowsy_fraction=0.5), seed)
    channels = [np.array(c) for c in session.eeg.channels]
    for k in all_channels:
        for c in channels:
            c[k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] += TONE
    for k in channel0:
        channels[0][k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] += TONE
    return Session(id=session.id, eeg=make_eeg_recording(channels), labels=session.labels,
                   telemetry=session.telemetry)


def _per_epoch_reference(session, per_channel):
    """Features, dropped record and (alert, drowsy) counts, one epoch at a time."""
    rows, dropped_index, dropped_fraction = [], [], []
    pre = {False: 0, True: 0}  # keyed by drowsy
    post = dict(pre)
    for k, drowsy in enumerate(session.labels.drowsy.tolist()):
        span = slice(k * EPOCH_SAMPLES, (k + 1) * EPOCH_SAMPLES)
        x = np.stack([c[span] for c in session.eeg.channels])
        x = band_limit(x)
        outliers = np.abs(x) > DEFAULT_AMPLITUDE_THRESHOLD_UV
        fraction = (float(np.max(np.mean(outliers, axis=-1))) if per_channel
                    else float(np.mean(outliers)))
        pre[drowsy] += 1
        if fraction > DEFAULT_MAX_OUTLIER_FRACTION:
            dropped_index.append(k)
            dropped_fraction.append(fraction)
            continue
        post[drowsy] += 1
        row = []
        for channel in x:
            _, psd = welch_psd_scipy(channel)
            total = total_power(psd)
            for band in BANDS:
                power = band_power(psd, band)
                row += [power, power / total]
        rows.append(row)
    counts = (pre[False], pre[True], post[False], post[True])
    return np.array(rows).reshape(-1, 40), (dropped_index, dropped_fraction), counts


@pytest.mark.parametrize("per_channel", [False, True], ids=["pooled", "per-channel"])
@pytest.mark.parametrize("seed, all_channels, channel0", [
    (3, (1, 6), (2, 5)),
    (4, (), (0, 7)),
    (5, tuple(range(8)), ()),
])
def test_block_pipeline_matches_per_epoch_reference(seed, all_channels, channel0, per_channel):
    session = _session_with_tones(seed, all_channels, channel0)
    values, dropped, counts = _per_epoch_reference(session, per_channel)

    result = process_session(session, RunConfig(per_channel_outliers=per_channel))
    assert result.eeg_features.values.tobytes() == values.tobytes()
    record = result.record
    assert tuple(record[k] for k in COUNT_KEYS) == counts
    assert record["dropped"] == [list(pair) for pair in zip(*dropped)]
    assert result.eeg_features.interval_index.tolist() == [
        k for k in range(len(session.labels)) if k not in dropped[0]]
    # the tones drop what the rule says: every all-channel one, and the
    # channel-0 ones only per channel
    expected = sorted(all_channels + (channel0 if per_channel else ()))
    assert dropped[0] == expected


def test_denoise_table_adds_up_the_sessions_counts():
    # the tones drop 2, 0, 1 and 0 epochs of the four sessions
    tones = [(3, (1, 6)), (4, ()), (5, (0,)), (6, ())]
    sessions = [_session_with_tones(seed, all_channels, ()) for seed, all_channels in tones]
    counts = np.array([_per_epoch_reference(s, per_channel=False)[2] for s in sessions])
    pre, post = counts[:, :2], counts[:, 2:]
    assert (pre.sum(axis=1) - post.sum(axis=1)).tolist() == [2, 0, 1, 0]

    report = analyze_cohort(sessions, RunConfig(), cohort_id="four")
    assert [[r[k] for k in COUNT_KEYS] for r in report["sessions"]] == counts.tolist()
    assert report["denoise_table"] == denoise_table(
        [dict(zip(COUNT_KEYS, counts.sum(axis=0).tolist()))])
    assert report["denoise_table"]["pre_total"] == 32


def _cut_last_interval(session):
    """The session with its EEG cut by 15 s and its telemetry by 20 s, which
    leaves its last interval without a full epoch and with 10 s of
    telemetry, under half."""
    eeg, telemetry = session.eeg, session.telemetry
    return replace(
        session,
        eeg=replace(eeg, channels=eeg.channels[:, :eeg.n_samples - int(15 * eeg.sample_rate_hz)]),
        telemetry=replace(telemetry, series=telemetry.series[
            :, :telemetry.n_samples - int(20 * telemetry.sample_rate_hz)]))


def _skipped(result):
    return result.record["eeg_skipped"], result.record["telemetry_skipped"]


def test_process_session_records_the_skipped_intervals():
    session = generate_session(SynthSpec(n_intervals=4, drowsy_fraction=0.5), seed=2)
    cut = replace(_cut_last_interval(session), id="cut")
    # one interval whose telemetry covers 10% of it: validate accepts it (one
    # interval may go uncovered), and its vehicle matrix has no row
    one = generate_session(SynthSpec(n_intervals=1), seed=3)
    telemetry = one.telemetry
    sparse = replace(one, id="sparse", telemetry=replace(
        telemetry, series=telemetry.series[:, :int(3 * telemetry.sample_rate_hz)]))
    assert validate_session(sparse) == []

    result = process_session(session, RunConfig())
    assert list(result.record) == ["id", *COUNT_KEYS, "dropped", "eeg_skipped",
                                   "telemetry_skipped"]
    assert _skipped(result) == ([], [])
    result = process_session(cut, RunConfig())
    assert result.record["id"] == "cut"
    assert (len(result.eeg_features), len(result.vehicle_features)) == (3, 3)
    assert _skipped(result) == ([3], [3])
    result = process_session(sparse, RunConfig())
    assert (len(result.eeg_features), len(result.vehicle_features)) == (1, 0)
    assert _skipped(result) == ([], [0])
    assert _skipped(process_session(replace(cut, telemetry=None), RunConfig())) == ([3], None)


def test_process_session_never_holds_an_epoch_block(monkeypatch):
    # the pass keeps a few numbers per epoch and one worker's workspace, two
    # (4, 16202) float64 blocks and a (4, 7680) mask (1.07 MB), so one
    # worker's peak stays near half the session's epochs as one
    # (16, 4, 7680) float64 block (3.9 MB)
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 1)
    session = generate_session(SynthSpec(n_intervals=16), seed=3)
    process_session(session, RunConfig())  # the kernel spectra are cached from here on
    tracemalloc.start()
    try:
        process_session(session, RunConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_analyze_cohort_holds_one_session_at_a_time():
    spec = SynthSpec(n_intervals=4, drowsy_fraction=0.5)
    refs, dead = [], []

    def sessions():
        for k in range(5):
            if k:
                # no frame may hold session k - 1 while session k is asked for
                dead.append(refs[k - 1]() is None)
            session = generate_session(spec, seed=60 + k)
            refs.append(weakref.ref(session))
            yield session
            del session  # the generator's own reference

    report = analyze_cohort(sessions(), RunConfig(), cohort_id="stream")
    assert dead == [True, True, True, True]
    assert report["n_sessions"] == 5
    assert report["denoise_table"]["pre_total"] == 20


def test_analyze_cohort_rejects_an_empty_generator():
    with pytest.raises(ValueError, match="cohort is empty"):
        analyze_cohort((s for s in ()), RunConfig(), cohort_id="empty")
