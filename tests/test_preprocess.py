import sys
import threading
import time
import tracemalloc

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft
from helpers import (
    band_limit,
    freq_response_db,
    make_recording,
    make_spectra,
    sine_wave,
)

from drowsekit import preprocess
from drowsekit.preprocess import (
    DEFAULT_AMPLITUDE_THRESHOLD_UV,
    DEFAULT_MAX_OUTLIER_FRACTION,
    EPOCH_SAMPLES,
    HP_TAPS,
    LP_TAPS,
    WORK_WIDTH,
    Epochs,
    _KERNELS,
    _band_limit,
    denoise_epochs,
    epoch_signal,
    filter_epoch,
    for_each_chunk,
    outlier_counts,
    outlier_fraction,
)
from drowsekit.pipeline import RunConfig, denoise_table, process_session
from drowsekit.session import (
    OrdLabelTrack,
    Session,
    make_eeg_recording,
)
from drowsekit.spectral import FREQS_HZ, extract_features, welch_psd

# region excluded when measuring interior amplitudes (high-pass group delay)
EDGE = 2112


def _labels(n, ratings=(1, 1, 1)):
    return OrdLabelTrack(intervals=(ratings,) * n)


# ---- epoching ---------------------------------------------------------------

def test_epoch_signal_full_coverage(rng):
    rec = make_eeg_recording(rng.normal(size=(4, 20 * EPOCH_SAMPLES)))
    epochs = epoch_signal(rec, _labels(20))
    assert len(epochs) == 20
    assert epochs.start.tolist() == [k * EPOCH_SAMPLES for k in range(20)]
    assert epochs.interval_index.tolist() == list(range(20))


def test_epoch_signal_skips_partial_interval(rng):
    # the stage only computes: process_session records the skipped interval
    rec = make_eeg_recording(rng.normal(size=(4, 20 * EPOCH_SAMPLES + 100)))
    epochs = epoch_signal(rec, _labels(21))
    assert len(epochs) == 20
    assert epochs.interval_index.tolist() == list(range(20))


def test_epoch_signal_too_short_recording(rng):
    rec = make_eeg_recording(rng.normal(size=(4, 7000)))
    epochs = epoch_signal(rec, _labels(1))
    assert epochs.start.shape == (0,)
    # no epochs pass through the rest of the pipeline
    spectra = filter_epoch(rec, epochs)
    assert (spectra.outliers.shape, spectra.density.shape) == ((0, 4), (0, 4, 513))
    kept = denoise_epochs(spectra)
    assert len(kept.epochs) == 0
    assert [a.tolist() for a in kept.dropped] == [[], []]
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
    labels = OrdLabelTrack(intervals=((1, 2, 1), (4, 3, 5)))
    epochs = epoch_signal(rec, labels)
    assert epochs.drowsy.dtype == bool
    assert epochs.drowsy.tolist() == [False, True]


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


def test_kernel_spectra_are_read_only():
    # fftconvolve's transform lengths for one mirror-padded epoch
    assert [(d, size) for d, size, _ in _KERNELS] == [(2112, 16200), (106, 8192)]
    for _, _, spectrum in _KERNELS:
        with pytest.raises(ValueError, match="read-only"):
            spectrum[0] = 0.0


# ---- filtering --------------------------------------------------------------

def _fresh_blocks(x):
    """A fresh pair of ``_band_limit`` work blocks for ``x``, filled with NaN."""
    shape = x.shape[:-1] + (WORK_WIDTH,)
    return np.full(shape, np.nan), np.full(shape, np.nan)


def _fresh_filter(x):
    """One epoch through the band-limit in a fresh pair of blocks."""
    return _band_limit(x, _fresh_blocks(x))


def test_filter_removes_dc():
    out = _fresh_filter(np.full((4, EPOCH_SAMPLES), 100.0))
    assert out.shape == (4, EPOCH_SAMPLES)
    assert np.max(np.abs(out)) < 0.1


def test_filter_passband_amplitude():
    interior = _fresh_filter(np.tile(sine_wave(10.0), (4, 1)))[:, EDGE:-EDGE]
    assert abs(np.max(np.abs(interior)) - 1.0) < 0.01


def test_filter_stopband_amplitude():
    interior = _fresh_filter(np.tile(sine_wave(60.0), (4, 1)))[:, EDGE:-EDGE]
    assert np.max(np.abs(interior)) <= 0.01


def test_filter_is_linear(rng):
    x = rng.normal(size=(4, EPOCH_SAMPLES))
    y = rng.normal(size=(4, EPOCH_SAMPLES))
    a, b = 2.5, -1.25
    fx, fy, fxy = (_fresh_filter(v) for v in (x, y, a * x + b * y))
    scale = np.max(np.abs(fxy))
    assert np.max(np.abs(fxy - (a * fx + b * fy))) < 1e-9 * scale


def test_filter_shift_covariant_in_interior(rng):
    shift = 128
    long = rng.normal(size=(4, EPOCH_SAMPLES + shift))
    f0, f1 = _fresh_filter(long[:, :EPOCH_SAMPLES]), _fresh_filter(long[:, shift:])
    margin = EDGE + 256
    lo, hi = margin, EPOCH_SAMPLES - margin - shift
    np.testing.assert_allclose(f0[:, lo + shift:hi + shift], f1[:, lo:hi],
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("channels", [(), (4,)], ids=["1d", "4ch"])
def test_band_limit_matches_scipy_oracle(rng, channels):
    # the filter of every epoch; a second call reuses the blocks that the
    # first call's inverse FFTs filled
    x = rng.normal(0.0, 30.0, channels + (EPOCH_SAMPLES,))
    y = rng.normal(0.0, 30.0, channels + (EPOCH_SAMPLES,))
    work = _fresh_blocks(x)
    assert _band_limit(x, work).tobytes() == band_limit(x).tobytes()
    assert _band_limit(y, work).tobytes() == band_limit(y).tobytes()


def test_band_limit_rejects_other_lengths():
    # the transform lengths and kernel spectra are built for one epoch's length
    for n in (0, 1, (len(HP_TAPS) - 1) // 2, EPOCH_SAMPLES - 1, EPOCH_SAMPLES + 1):
        x = np.zeros((4, n))
        with pytest.raises(ValueError, match=f"need an epoch of {EPOCH_SAMPLES} samples"):
            _band_limit(x, _fresh_blocks(x))


def test_kernel_lengths_match_scipy():
    # the length fftconvolve pads a mirror-padded epoch to, so it fixes the
    # last bits of every filter
    for taps, (delay, size, _) in zip((HP_TAPS, LP_TAPS), _KERNELS):
        assert delay == (len(taps) - 1) // 2
        assert size == scipy.fft.next_fast_len(EPOCH_SAMPLES + 4 * delay, real=True)


# ---- the per-epoch pass and its thread split -----------------------------------

def _epoch_samples(rng, n):
    """``n`` epochs whose filtered samples pass +/-70 uV about a quarter of the time."""
    return [rng.normal(0.0, 60.0, (4, EPOCH_SAMPLES)) for _ in range(n)]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_filter_epoch_split_matches_per_epoch_convolvers(rng, monkeypatch, workers, n):
    samples = _epoch_samples(rng, n)
    recording, epochs = make_recording(samples)
    # fresh blocks per epoch: no buffer is reused
    filtered = [_fresh_filter(x) for x in samples]
    expected_outliers = np.array([outlier_counts(y) for y in filtered]).reshape(n, 4)
    expected_density = np.array([welch_psd(y) for y in filtered]).reshape(n, 4, 513)
    threads = set()

    def recording_band_limit(x, work):
        threads.add(threading.current_thread())
        return _band_limit(x, work)

    monkeypatch.setattr(preprocess, "_band_limit", recording_band_limit)
    spectra = filter_epoch(recording, epochs)
    assert spectra.outliers.dtype == np.int64
    assert spectra.outliers.tobytes() == expected_outliers.astype(np.int64).tobytes()
    assert spectra.density.tobytes() == expected_density.tobytes()
    assert spectra.interval_index.tolist() == list(range(n))
    assert len(threads) == min(workers, n)
    if n:
        assert 0 < expected_outliers.sum() < expected_outliers.size * EPOCH_SAMPLES


def test_filter_epoch_reads_each_epoch_from_its_start(rng, workers):
    # a clock 10.5 s before the label grid puts interval k at sample
    # 7680 k + 2688; the recording's tail covers no third interval
    recording = make_eeg_recording(rng.normal(0.0, 60.0, (4, 3 * EPOCH_SAMPLES + 2000)))
    recording = replace(recording, start_time_s=-10.5)
    before = recording.channels.tobytes()
    epochs = epoch_signal(recording, _labels(3))
    assert epochs.start.tolist() == [2688, 2688 + EPOCH_SAMPLES]
    spectra = filter_epoch(recording, epochs)
    for k, s0 in enumerate(epochs.start):
        filtered = band_limit(recording.channels[:, s0:s0 + EPOCH_SAMPLES])
        assert spectra.outliers[k].tolist() == outlier_counts(filtered).tolist()
        assert spectra.density[k].tobytes() == welch_psd(filtered).tobytes()
    # the pass only reads the recording
    assert recording.channels.tobytes() == before


def test_filter_epoch_workspace_never_aliases_the_recording(rng, workers):
    # every per-epoch array is a view of a worker's own blocks; a view that
    # aliased the read-only recording could not be written
    samples = _epoch_samples(rng, 5)
    recording, epochs = make_recording(samples)
    recording.channels.setflags(write=False)
    spectra = filter_epoch(recording, epochs)
    filtered = [_fresh_filter(x) for x in samples]
    assert spectra.outliers.tolist() == [outlier_counts(y).tolist() for y in filtered]
    assert spectra.density.tobytes() == np.array([welch_psd(y) for y in filtered]).tobytes()


def test_filter_epoch_peak_does_not_grow_with_the_session(rng, monkeypatch):
    # beyond its output rows (4 counts and 4 x 513 densities an epoch), one
    # worker's pass holds the same epoch-sized buffers for 4 epochs as for 24
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 1)

    def peak(n):
        recording, epochs = make_recording(_epoch_samples(rng, n))
        filter_epoch(recording, epochs)
        tracemalloc.start()
        try:
            filter_epoch(recording, epochs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    row = 4 * 8 + 4 * len(FREQS_HZ) * 8
    assert 20 * row <= peak(24) - peak(4) < 20 * row + 64 * 1024


def _epochs_past_the_end(n, short):
    """A recording whose ``n``-th epoch holds only ``short`` samples, and
    the ``Epochs`` of all ``n``, as no label grid would place them."""
    recording = make_eeg_recording(np.zeros((4, (n - 1) * EPOCH_SAMPLES + short)))
    return recording, Epochs(start=np.arange(n) * EPOCH_SAMPLES, interval_index=np.arange(n),
                             drowsy=np.zeros(n, dtype=bool))


def test_filter_epoch_rejects_epochs_within_group_delay():
    # a recording that holds no more of its one epoch than the high-pass delay
    with pytest.raises(ValueError):
        filter_epoch(*_epochs_past_the_end(1, (len(HP_TAPS) - 1) // 2))


@pytest.mark.parametrize("n", [1, 3])
def test_filter_epoch_split_rejects_a_too_short_block(workers, n):
    # the last epoch runs past the end of the recording; whichever chunk
    # holds it, the pass raises rather than filter a truncated slice
    with pytest.raises(ValueError):
        filter_epoch(*_epochs_past_the_end(n, (len(HP_TAPS) - 1) // 2))


def test_epoch_split_under_fast_thread_switching(rng, monkeypatch):
    # more workers than cores, switching every microsecond: a buffer that
    # two workers shared would mix epochs and change the bytes
    recording, epochs = make_recording(_epoch_samples(rng, 8))

    def run():
        spectra = filter_epoch(recording, epochs)
        return (spectra.outliers.tobytes(), spectra.density.tobytes(),
                extract_features(spectra).values.tobytes())

    monkeypatch.setattr(preprocess, "available_cpus", lambda: 1)
    expected = run()
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            assert run() == expected
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
    spectra = make_spectra([samples])
    fraction = outlier_fraction(spectra.outliers, per_channel)
    assert fraction.shape == (1,)
    result = denoise_epochs(spectra, per_channel)
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
        assert np.all(np.diff(outlier_fraction(outlier_counts(block), per_channel)) >= 0.0)


def test_artifact_per_channel_variant():
    samples = np.zeros((4, EPOCH_SAMPLES))
    samples[0, :] = 80.0  # one fully saturated channel
    pooled_kept, pooled_fraction = _judge(samples)
    assert pooled_fraction == pytest.approx(0.25)
    assert pooled_kept
    per_kept, per_fraction = _judge(samples, per_channel=True)
    assert per_fraction == pytest.approx(1.0)
    assert not per_kept


def test_outlier_fraction_is_the_mean_of_the_outlier_mask(rng):
    # the counts are exact in float64, so the fractions are the boolean
    # mask's means bit for bit, samples at exactly +/-70 uV included
    block = rng.normal(0.0, 70.0, (6, 4, EPOCH_SAMPLES))
    block[0, 1, :10] = DEFAULT_AMPLITUDE_THRESHOLD_UV
    block[1, 2, :10] = -DEFAULT_AMPLITUDE_THRESHOLD_UV
    mask = np.abs(block) > DEFAULT_AMPLITUDE_THRESHOLD_UV
    counts = outlier_counts(block)
    assert outlier_fraction(counts).tobytes() == np.mean(mask, axis=(1, 2)).tobytes()
    assert outlier_fraction(counts, per_channel=True).tobytes() == \
        np.max(np.mean(mask, axis=-1), axis=-1).tobytes()


def test_non_finite_samples_count_as_outliers():
    filtered = np.zeros((4, EPOCH_SAMPLES))
    filtered[0, :3] = np.nan
    filtered[1, :2] = np.inf
    filtered[2, :1] = -np.inf
    assert outlier_counts(filtered).tolist() == [3, 2, 1, 0]


# ---- denoise bookkeeping ----------------------------------------------------

def _epochs_with_labels(drowsy, noisy=()):
    """Zero epochs labelled by the bools ``drowsy``, except ``noisy`` ones
    at 90 uV, which denoising drops."""
    return make_spectra([np.full((4, EPOCH_SAMPLES), 90.0 if k in noisy else 0.0)
                        for k in range(len(drowsy))], drowsy)


def test_denoise_epochs_partitions():
    epochs = _epochs_with_labels([False, True, True], noisy=(2,))
    result = denoise_epochs(epochs)
    assert result.epochs.interval_index.tolist() == [0, 1]
    assert result.epochs.drowsy.tolist() == [False, True]
    assert [a.tolist() for a in result.dropped] == [[2], [1.0]]


def test_denoise_epochs_keeps_each_epochs_counts_and_density():
    spectra = _epochs_with_labels([False] * 5, noisy=(1, 3))
    kept = denoise_epochs(spectra).epochs
    assert kept.interval_index.tolist() == [0, 2, 4]
    assert kept.outliers.tobytes() == spectra.outliers[[0, 2, 4]].tobytes()
    assert kept.density.tobytes() == spectra.density[[0, 2, 4]].tobytes()


def _session_with_labels(rng, drowsy, noisy=()):
    """A session of 10 uV noise with one epoch per bool of ``drowsy``, and a
    150 uV tone, which the artifact rule drops, on the ``noisy`` epochs."""
    x = rng.normal(scale=10.0, size=(4, len(drowsy) * EPOCH_SAMPLES))
    for k in noisy:
        x[:, k * EPOCH_SAMPLES:(k + 1) * EPOCH_SAMPLES] += sine_wave(10.0, amplitude=150.0)
    labels = OrdLabelTrack(intervals=tuple((5, 5, 5) if d else (1, 1, 1) for d in drowsy))
    return Session(id="labels", eeg=make_eeg_recording(x), labels=labels)


def test_denoise_summary_counts(rng):
    session = _session_with_labels(rng, [False] * 3 + [True] * 5, noisy=(2, 6, 7))
    result = process_session(session, RunConfig())
    dropped = result.record["dropped"]
    assert [k for k, _ in dropped] == [2, 6, 7]
    assert all(fraction > DEFAULT_MAX_OUTLIER_FRACTION for _, fraction in dropped)
    table = denoise_table([result.record])
    assert (table["pre_alert"], table["pre_drowsy"]) == (3, 5)
    assert (table["post_alert"], table["post_drowsy"]) == (2, 3)
    assert table["removal_percent"] == 37.5


def test_denoise_summary_identity(rng):
    result = process_session(_session_with_labels(rng, [False, True]), RunConfig())
    record = result.record
    assert (record["pre_alert"], record["pre_drowsy"]) == (1, 1)
    assert (record["post_alert"], record["post_drowsy"]) == (1, 1)
    assert record["dropped"] == []
    assert result.eeg_features.drowsy.tolist() == [False, True]
    assert denoise_table([record])["removal_percent"] == 0.0


def test_reference_removal_percentage():
    table = denoise_table([{"pre_alert": 1058, "pre_drowsy": 2986,
                            "post_alert": 998, "post_drowsy": 2814}])
    assert table["pre_total"] == 4044
    assert table["post_total"] == 3812
    assert table["removal_percent"] == 5.74  # round-half-up of 5.7369...
