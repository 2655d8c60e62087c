import logging

import numpy as np
import pytest
from helpers import freq_response_db, make_epochs, sine_wave

from drowsekit.errors import InvalidCutoff, InvalidTransition
from drowsekit.preprocess import (
    EPOCH_SAMPLES,
    DenoiseSummary,
    FilterKind,
    denoise_epochs,
    denoise_summary,
    design_fir,
    epoch_signal,
    filter_epoch,
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


def test_epoch_signal_too_short_recording(rng, caplog, hp_kernel, lp_kernel):
    rec = make_eeg_recording(rng.normal(size=(4, 7000)))
    with caplog.at_level(logging.WARNING, logger="drowsekit.preprocess"):
        epochs = epoch_signal(rec, _labels(1))
    assert epochs.samples.shape == (0, 4, EPOCH_SAMPLES)
    assert "skipped 1" in caplog.text
    # an empty block passes through the rest of the pipeline
    kept = denoise_epochs(filter_epoch(epochs, hp_kernel, lp_kernel))
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

def test_lowpass_kernel_shape_and_dc(lp_kernel):
    assert len(lp_kernel.taps) == 213
    assert len(lp_kernel.taps) % 2 == 1
    assert abs(lp_kernel.taps.sum() - 1.0) < 1e-6


def test_highpass_kernel_shape_and_dc(hp_kernel):
    assert len(hp_kernel.taps) == 4225
    assert len(hp_kernel.taps) % 2 == 1
    assert abs(hp_kernel.taps.sum()) < 1e-6


def test_lowpass_response_oracle(lp_kernel):
    assert abs(freq_response_db(lp_kernel.taps, 10.0)) < 0.05
    assert freq_response_db(lp_kernel.taps, 50.0) <= -40.0
    assert abs(freq_response_db(lp_kernel.taps, 40.0) + 6.0) < 0.5


def test_highpass_response_oracle(hp_kernel):
    assert freq_response_db(hp_kernel.taps, 0.0) <= -60.0
    assert abs(freq_response_db(hp_kernel.taps, 0.1) + 6.0) < 0.5
    assert abs(freq_response_db(hp_kernel.taps, 10.0)) < 0.05


@pytest.mark.parametrize("cutoff", [0.0, -1.0, 128.0, 200.0])
def test_design_rejects_bad_cutoff(cutoff):
    with pytest.raises(InvalidCutoff):
        design_fir(FilterKind.LOW_PASS, cutoff, transition_hz=4.0)


def test_design_rejects_bad_transition():
    with pytest.raises(InvalidTransition):
        design_fir(FilterKind.LOW_PASS, 40.0, transition_hz=0.0)


# ---- filtering --------------------------------------------------------------

def test_filter_removes_dc(hp_kernel, lp_kernel):
    out = filter_epoch(make_epochs([np.full((4, EPOCH_SAMPLES), 100.0)]), hp_kernel, lp_kernel)
    assert out.samples.shape == (1, 4, EPOCH_SAMPLES)
    assert np.max(np.abs(out.samples)) < 0.1


def test_filter_passband_amplitude(hp_kernel, lp_kernel):
    out = filter_epoch(make_epochs([sine_wave(10.0)]), hp_kernel, lp_kernel)
    interior = out.samples[0, :, EDGE:-EDGE]
    assert abs(np.max(np.abs(interior)) - 1.0) < 0.01


def test_filter_stopband_amplitude(hp_kernel, lp_kernel):
    out = filter_epoch(make_epochs([sine_wave(60.0)]), hp_kernel, lp_kernel)
    interior = out.samples[0, :, EDGE:-EDGE]
    assert np.max(np.abs(interior)) <= 0.01


def test_filter_is_linear(rng, hp_kernel, lp_kernel):
    x = rng.normal(size=(4, EPOCH_SAMPLES))
    y = rng.normal(size=(4, EPOCH_SAMPLES))
    a, b = 2.5, -1.25
    fx, fy, fxy = filter_epoch(make_epochs([x, y, a * x + b * y]), hp_kernel, lp_kernel).samples
    scale = np.max(np.abs(fxy))
    assert np.max(np.abs(fxy - (a * fx + b * fy))) < 1e-9 * scale


def test_filter_shift_covariant_in_interior(rng, hp_kernel, lp_kernel):
    shift = 128
    long = rng.normal(size=(4, EPOCH_SAMPLES + shift))
    f0, f1 = filter_epoch(make_epochs([long[:, :EPOCH_SAMPLES], long[:, shift:]]),
                          hp_kernel, lp_kernel).samples
    margin = EDGE + 256
    lo, hi = margin, EPOCH_SAMPLES - margin - shift
    np.testing.assert_allclose(f0[:, lo + shift:hi + shift], f1[:, lo:hi],
                               rtol=0, atol=1e-9)


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
    summary = DenoiseSummary.from_counts(1058, 2986, 998, 2814)
    assert summary.pre_total == 4044
    assert summary.post_total == 3812
    assert summary.removal_fraction == pytest.approx(232 / 4044)
    assert summary.removal_percent == 5.74  # round-half-up of 5.7369...


def test_summary_combine():
    a = DenoiseSummary.from_counts(10, 20, 9, 18)
    b = DenoiseSummary.from_counts(5, 5, 5, 4)
    c = a.combine(b)
    assert (c.pre_alert, c.pre_drowsy, c.post_alert, c.post_drowsy) == (15, 25, 14, 22)
    assert c.removal_fraction == pytest.approx(1 - 36 / 40)
