import logging
import sys
import threading
import time

import numpy as np
import pytest
import scipy.fft
from helpers import apply_kernel_scipy, freq_response_db, make_epochs, sine_wave

from drowsekit import preprocess
from drowsekit.errors import TooShort
from drowsekit.preprocess import (
    EPOCH_SAMPLES,
    HP_TAPS,
    LP_TAPS,
    DenoiseSummary,
    Epochs,
    _mirror_convolver,
    _next_fast_len,
    denoise_epochs,
    denoise_summary,
    epoch_signal,
    filter_epoch,
    for_each_chunk,
    outlier_fraction,
)
from drowsekit.session import (
    BinaryState,
    OrdInterval,
    OrdLabelTrack,
    make_eeg_recording,
)
from drowsekit.spectral import extract_features

# region excluded when measuring interior amplitudes (high-pass group delay)
EDGE = 2112


def _labels(n, ratings=(1, 1, 1)):
    return OrdLabelTrack(intervals=tuple(
        OrdInterval(index=k, ratings=ratings) for k in range(n)))


# ---- epoching ---------------------------------------------------------------

def test_epoch_signal_full_coverage(rng):
    rec = make_eeg_recording(rng.normal(size=(4, 20 * EPOCH_SAMPLES)))
    epochs = epoch_signal(rec, _labels(20))
    assert len(epochs) == 20
    assert epochs.samples.shape == (20, 4, EPOCH_SAMPLES)
    assert epochs.interval_index.tolist() == list(range(20))
    np.testing.assert_array_equal(
        epochs.samples[3, 1], rec.channels[1][3 * EPOCH_SAMPLES:4 * EPOCH_SAMPLES])


def test_epoch_signal_skips_partial_interval(rng, caplog):
    rec = make_eeg_recording(rng.normal(size=(4, 20 * EPOCH_SAMPLES + 100)))
    with caplog.at_level(logging.WARNING, logger="drowsekit.preprocess"):
        epochs = epoch_signal(rec, _labels(21))
    assert len(epochs) == 20
    assert "skipped 1" in caplog.text


def test_epoch_signal_too_short_recording(rng, caplog):
    rec = make_eeg_recording(rng.normal(size=(4, 7000)))
    with caplog.at_level(logging.WARNING, logger="drowsekit.preprocess"):
        epochs = epoch_signal(rec, _labels(1))
    assert epochs.samples.shape == (0, 4, EPOCH_SAMPLES)
    assert "skipped 1" in caplog.text
    # an empty block passes through the rest of the pipeline
    kept = denoise_epochs(filter_epoch(epochs))
    assert len(kept.epochs) == 0
    assert [a.tolist() for a in kept.dropped] == [[], []]
    assert denoise_summary(epochs, kept).removal_fraction == 0.0
    assert extract_features(kept.epochs).values.shape == (0, 40)


@pytest.mark.parametrize("n_samples,n_labels", [
    (5 * EPOCH_SAMPLES, 3),
    (3 * EPOCH_SAMPLES, 5),
    (EPOCH_SAMPLES - 1, 1),
])
def test_epoch_count_is_min_of_coverage_and_labels(rng, n_samples, n_labels):
    rec = make_eeg_recording(rng.normal(size=(4, n_samples)))
    epochs = epoch_signal(rec, _labels(n_labels))
    assert len(epochs) == min(n_samples // EPOCH_SAMPLES, n_labels)


def test_epoch_signal_assigns_majority_state(rng):
    rec = make_eeg_recording(rng.normal(size=(4, 2 * EPOCH_SAMPLES)))
    labels = OrdLabelTrack(intervals=(
        OrdInterval(index=0, ratings=(1, 2, 1)),
        OrdInterval(index=1, ratings=(4, 3, 5)),
    ))
    epochs = epoch_signal(rec, labels)
    assert epochs.state[0] is BinaryState.ALERT
    assert epochs.state[1] is BinaryState.DROWSY


# ---- FIR design -------------------------------------------------------------

def test_lowpass_kernel_shape_and_dc():
    assert len(LP_TAPS) == 213
    assert len(LP_TAPS) % 2 == 1
    assert abs(LP_TAPS.sum() - 1.0) < 1e-6


def test_highpass_kernel_shape_and_dc():
    assert len(HP_TAPS) == 4225
    assert len(HP_TAPS) % 2 == 1
    assert abs(HP_TAPS.sum()) < 1e-6


def test_lowpass_response_oracle():
    assert abs(freq_response_db(LP_TAPS, 10.0)) < 0.05
    assert freq_response_db(LP_TAPS, 50.0) <= -40.0
    assert abs(freq_response_db(LP_TAPS, 40.0) + 6.0) < 0.5


def test_highpass_response_oracle():
    assert freq_response_db(HP_TAPS, 0.0) <= -60.0
    assert abs(freq_response_db(HP_TAPS, 0.1) + 6.0) < 0.5
    assert abs(freq_response_db(HP_TAPS, 10.0)) < 0.05


@pytest.mark.parametrize("taps", [HP_TAPS, LP_TAPS], ids=["hp", "lp"])
def test_taps_are_read_only(taps):
    with pytest.raises(ValueError, match="read-only"):
        taps[0] = 0.0


# ---- filtering --------------------------------------------------------------

def test_filter_removes_dc():
    out = filter_epoch(make_epochs([np.full((4, EPOCH_SAMPLES), 100.0)]))
    assert out.samples.shape == (1, 4, EPOCH_SAMPLES)
    assert np.max(np.abs(out.samples)) < 0.1


def test_filter_passband_amplitude():
    out = filter_epoch(make_epochs([sine_wave(10.0)]))
    interior = out.samples[0, :, EDGE:-EDGE]
    assert abs(np.max(np.abs(interior)) - 1.0) < 0.01


def test_filter_stopband_amplitude():
    out = filter_epoch(make_epochs([sine_wave(60.0)]))
    interior = out.samples[0, :, EDGE:-EDGE]
    assert np.max(np.abs(interior)) <= 0.01


def test_filter_is_linear(rng):
    x = rng.normal(size=(4, EPOCH_SAMPLES))
    y = rng.normal(size=(4, EPOCH_SAMPLES))
    a, b = 2.5, -1.25
    fx, fy, fxy = filter_epoch(make_epochs([x, y, a * x + b * y])).samples
    scale = np.max(np.abs(fxy))
    assert np.max(np.abs(fxy - (a * fx + b * fy))) < 1e-9 * scale


def test_filter_shift_covariant_in_interior(rng):
    shift = 128
    long = rng.normal(size=(4, EPOCH_SAMPLES + shift))
    f0, f1 = filter_epoch(make_epochs([long[:, :EPOCH_SAMPLES], long[:, shift:]])).samples
    margin = EDGE + 256
    lo, hi = margin, EPOCH_SAMPLES - margin - shift
    np.testing.assert_allclose(f0[:, lo + shift:hi + shift], f1[:, lo:hi],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("n", [2113, 4000, EPOCH_SAMPLES])
@pytest.mark.parametrize("channels", [(), (4,)], ids=["1d", "4ch"])
def test_apply_kernel_matches_scipy_oracle(rng, n, channels):
    # the convolver that filter_epoch builds per kernel; 2113 is one sample
    # more than the high-pass group delay
    x = rng.normal(0.0, 30.0, channels + (n,))
    for taps in (HP_TAPS, LP_TAPS):
        convolve = _mirror_convolver(taps, x.shape)
        assert convolve(x).tobytes() == apply_kernel_scipy(x, taps).tobytes()


def test_next_fast_len_matches_scipy():
    # the convolver's transform length, so it fixes the last bits of every filter
    assert [_next_fast_len(n) for n in range(1, 20001)] == \
        [scipy.fft.next_fast_len(n, real=True) for n in range(1, 20001)]


def test_apply_kernel_rejects_input_within_group_delay(rng):
    # one mirror image pads at most n - 1 samples; the low-pass delay is 106
    delay = (len(LP_TAPS) - 1) // 2
    for n in (0, 1, delay):
        with pytest.raises(TooShort):
            _mirror_convolver(LP_TAPS, (4, n))
    x = rng.normal(size=delay + 1)
    assert _mirror_convolver(LP_TAPS, x.shape)(x).tobytes() == \
        apply_kernel_scipy(x, LP_TAPS).tobytes()


def test_filter_epoch_rejects_epochs_within_group_delay():
    # a hand-built block too short for the high-pass to mirror-pad
    epochs = Epochs(samples=np.zeros((1, 4, (len(HP_TAPS) - 1) // 2)),
                    interval_index=np.arange(1), state=np.array([BinaryState.ALERT]))
    with pytest.raises(TooShort):
        filter_epoch(epochs)


# ---- the thread split of the epoch block -------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_filter_epoch_split_matches_per_epoch_convolvers(rng, monkeypatch, workers, n):
    epochs = make_epochs([rng.normal(0.0, 30.0, (4, EPOCH_SAMPLES)) for _ in range(n)])
    # a fresh pair of convolvers per epoch: no buffer is reused
    expected = np.array([
        _mirror_convolver(LP_TAPS, x.shape)(_mirror_convolver(HP_TAPS, x.shape)(x))
        for x in epochs.samples]).reshape(epochs.samples.shape)
    threads = set()

    def recording(taps, shape):
        convolve = _mirror_convolver(taps, shape)

        def counted(x):
            threads.add(threading.current_thread())
            return convolve(x)
        return counted

    monkeypatch.setattr(preprocess, "_mirror_convolver", recording)
    assert filter_epoch(epochs).samples.tobytes() == expected.tobytes()
    assert len(threads) == min(workers, n)


@pytest.mark.parametrize("n", [1, 3])
def test_filter_epoch_split_rejects_a_too_short_block(workers, n):
    epochs = Epochs(samples=np.zeros((n, 4, (len(HP_TAPS) - 1) // 2)),
                    interval_index=np.arange(n), state=np.array([BinaryState.ALERT] * n))
    with pytest.raises(TooShort):
        filter_epoch(epochs)


def test_epoch_split_under_fast_thread_switching(rng, monkeypatch):
    # more workers than cores, switching every microsecond: a buffer that
    # two workers shared would mix epochs and change the bytes
    epochs = make_epochs([rng.normal(0.0, 30.0, (4, EPOCH_SAMPLES)) for _ in range(8)])
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 1)
    serial = filter_epoch(epochs)
    expected = serial.samples.tobytes(), extract_features(serial).values.tobytes()
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            split = filter_epoch(epochs)
            assert (split.samples.tobytes(), extract_features(split).values.tobytes()) == expected
    finally:
        sys.setswitchinterval(interval)


def test_for_each_chunk_covers_the_range_in_contiguous_chunks(monkeypatch):
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 3)
    chunks = []
    for_each_chunk(7, lambda lo, hi: chunks.append((lo, hi, threading.current_thread())))
    assert sorted(c[:2] for c in chunks) == [(0, 2), (2, 4), (4, 7)]
    assert len({c[2] for c in chunks}) == 3
    # the calling thread runs the first chunk
    assert [c[2] for c in chunks if c[0] == 0] == [threading.current_thread()]


def test_for_each_chunk_raises_the_first_failing_chunk_after_every_join(monkeypatch):
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 3)
    errors = {1: ValueError("chunk 1"), 3: KeyError("chunk 2")}
    finished = []

    def work(lo, hi):
        if lo == 3:
            time.sleep(0.2)  # the last chunk fails after the one before it
        finished.append(lo)
        if lo in errors:
            raise errors[lo]

    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        for_each_chunk(5, work)
    assert raised.value is errors[1]
    assert sorted(finished) == [0, 1, 3]
    assert threading.active_count() == before


# ---- artifact decisions -----------------------------------------------------

def _judge(samples, per_channel=False):
    """Whether denoising keeps one filtered epoch, and its outlier fraction."""
    fraction = outlier_fraction(samples[None], per_channel)
    assert fraction.shape == (1,)
    result = denoise_epochs(make_epochs([samples]), per_channel)
    kept = len(result.epochs) == 1
    expected_dropped = [[], []] if kept else [[0], [fraction[0]]]
    assert [a.tolist() for a in result.dropped] == expected_dropped
    return kept, float(fraction[0])


def test_artifact_drop_above_threshold():
    samples = np.zeros((4, EPOCH_SAMPLES))
    n_out = int(0.40 * samples.size)
    samples.reshape(-1)[:n_out] = 80.0
    kept, fraction = _judge(samples)
    assert not kept
    assert fraction == pytest.approx(0.40)


def test_artifact_keep_when_in_range():
    kept, fraction = _judge(np.full((4, EPOCH_SAMPLES), 69.9))
    assert kept
    assert fraction == 0.0


def test_artifact_boundary_is_strict():
    samples = np.zeros((4, EPOCH_SAMPLES))
    n_out = int(round(0.30 * samples.size))
    samples.reshape(-1)[:n_out] = 80.0
    kept, fraction = _judge(samples)
    assert fraction == pytest.approx(0.30)
    assert kept


def test_artifact_monotone_in_amplitude(rng):
    samples = rng.normal(0, 50.0, (4, EPOCH_SAMPLES))
    block = np.stack([scale * samples for scale in (1.0, 1.5, 3.0, 10.0)])
    for per_channel in (False, True):
        assert np.all(np.diff(outlier_fraction(block, per_channel)) >= 0.0)


def test_artifact_per_channel_variant():
    samples = np.zeros((4, EPOCH_SAMPLES))
    samples[0, :] = 80.0  # one fully saturated channel
    pooled_kept, pooled_fraction = _judge(samples)
    assert pooled_fraction == pytest.approx(0.25)
    assert pooled_kept
    per_kept, per_fraction = _judge(samples, per_channel=True)
    assert per_fraction == pytest.approx(1.0)
    assert not per_kept


# ---- denoise bookkeeping ----------------------------------------------------

def _epochs_with_states(states, noisy=()):
    """Zero epochs, except ``noisy`` ones at 90 uV, which denoising drops."""
    return make_epochs([np.full((4, EPOCH_SAMPLES), 90.0 if k in noisy else 0.0)
                        for k in range(len(states))], states)


def test_denoise_epochs_partitions():
    epochs = _epochs_with_states([BinaryState.ALERT, BinaryState.DROWSY, BinaryState.DROWSY],
                                 noisy=(2,))
    result = denoise_epochs(epochs)
    assert result.epochs.interval_index.tolist() == [0, 1]
    assert result.epochs.state.tolist() == [BinaryState.ALERT, BinaryState.DROWSY]
    assert [a.tolist() for a in result.dropped] == [[2], [1.0]]


def test_denoise_summary_counts():
    pre = _epochs_with_states([BinaryState.ALERT] * 3 + [BinaryState.DROWSY] * 5,
                              noisy=(2, 6, 7))
    summary = denoise_summary(pre, denoise_epochs(pre))
    assert (summary.pre_alert, summary.pre_drowsy) == (3, 5)
    assert (summary.post_alert, summary.post_drowsy) == (2, 3)
    assert summary.removal_fraction == pytest.approx(3 / 8)


def test_denoise_summary_identity():
    pre = _epochs_with_states([BinaryState.ALERT, BinaryState.DROWSY])
    summary = denoise_summary(pre, denoise_epochs(pre))
    assert summary.removal_fraction == 0.0


def test_reference_removal_percentage():
    summary = DenoiseSummary(1058, 2986, 998, 2814)
    assert summary.pre_total == 4044
    assert summary.post_total == 3812
    assert summary.removal_fraction == pytest.approx(232 / 4044)
    assert summary.removal_percent == 5.74  # round-half-up of 5.7369...


def test_summary_combine():
    a = DenoiseSummary(10, 20, 9, 18)
    b = DenoiseSummary(5, 5, 5, 4)
    c = a.combine(b)
    assert (c.pre_alert, c.pre_drowsy, c.post_alert, c.post_drowsy) == (15, 25, 14, 22)
    assert c.removal_fraction == pytest.approx(1 - 36 / 40)
