import numpy as np
import pytest
from helpers import band_power, make_epochs, relative_band_power, sine_wave, total_power

from drowsekit.errors import DegeneratePower, TooShort
from drowsekit.preprocess import EPOCH_SAMPLES
from drowsekit.session import BinaryState
from drowsekit.spectral import (
    BANDS,
    PsdEstimate,
    eeg_feature_names,
    extract_features,
    welch_psd,
)

BAND_BY_NAME = {b.name: b for b in BANDS}


# ---- Welch estimation ---------------------------------------------------

def test_welch_grid():
    psd = welch_psd(np.zeros(EPOCH_SAMPLES))
    assert len(psd.freqs_hz) == 513
    assert psd.freqs_hz[0] == 0.0
    assert psd.freqs_hz[-1] == 128.0
    assert np.allclose(np.diff(psd.freqs_hz), 0.25)


def test_welch_zero_signal():
    psd = welch_psd(np.zeros(EPOCH_SAMPLES))
    assert np.all(psd.density == 0.0)


def test_welch_too_short():
    with pytest.raises(TooShort):
        welch_psd(np.zeros(1023))


def test_welch_parseval_oracle(rng):
    # oracle: the direct mean square of the signal
    ratios = []
    for _ in range(1000):
        x = rng.normal(0.0, 3.0, EPOCH_SAMPLES)
        psd = welch_psd(x)
        integral = np.trapezoid(psd.density, psd.freqs_hz)
        ratios.append(integral / np.mean(x**2))
    ratios = np.asarray(ratios)
    assert np.all(np.abs(ratios - 1.0) < 0.1)
    assert abs(ratios.mean() - 1.0) < 0.02


def test_welch_tone_concentration():
    x = sine_wave(10.0, amplitude=np.sqrt(2.0))  # unit variance
    psd = welch_psd(x)
    near = (psd.freqs_hz >= 9.0) & (psd.freqs_hz <= 11.0)
    total = np.trapezoid(psd.density, psd.freqs_hz)
    near_power = np.trapezoid(np.where(near, psd.density, 0.0), psd.freqs_hz)
    assert near_power / total >= 0.95


def test_welch_density_nonnegative(rng):
    psd = welch_psd(rng.normal(size=EPOCH_SAMPLES))
    assert np.all(psd.density >= 0.0)


# ---- band powers ---------------------------------------------------------

def test_band_power_single_grid_point():
    freqs = np.arange(513) * 0.25
    density = np.zeros(513)
    density[40] = 8.0  # spike at 10 Hz, integrated power 8 * 0.25
    psd = PsdEstimate(freqs_hz=freqs, density=density)
    assert band_power(psd, BAND_BY_NAME["alpha"]) == pytest.approx(2.0)
    assert band_power(psd, BAND_BY_NAME["delta"]) == 0.0


def test_band_powers_partition_total(rng):
    psd = welch_psd(rng.normal(size=EPOCH_SAMPLES))
    parts = sum(band_power(psd, b) for b in BANDS)
    total = total_power(psd)
    assert parts == pytest.approx(total, rel=1e-9)


def test_white_noise_band_ratio(rng):
    # flat density oracle: power ratio equals bandwidth ratio
    x = rng.normal(0.0, 5.0, EPOCH_SAMPLES)
    psd = welch_psd(x)
    ratio = band_power(psd, BAND_BY_NAME["gamma"]) / band_power(psd, BAND_BY_NAME["delta"])
    expected = (40.0 - 30.0) / (4.0 - 0.1)
    assert ratio == pytest.approx(expected, rel=0.15)


def test_relative_power_tone():
    psd = welch_psd(sine_wave(10.0))
    assert relative_band_power(psd, BAND_BY_NAME["alpha"]) >= 0.95


def test_relative_powers_sum_to_one(rng):
    psd = welch_psd(rng.normal(size=EPOCH_SAMPLES))
    total = sum(relative_band_power(psd, b) for b in BANDS)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_relative_power_degenerate():
    psd = welch_psd(np.zeros(EPOCH_SAMPLES))
    with pytest.raises(DegeneratePower):
        relative_band_power(psd, BAND_BY_NAME["alpha"])


# ---- feature extraction ----------------------------------------------------

def test_feature_names_order_pinned():
    names = eeg_feature_names()
    assert len(names) == 40
    assert names[0] == "TP9_delta_abs"
    assert names[1] == "TP9_delta_rel"
    assert names[39] == "TP10_gamma_rel"


def test_extract_features_invariants(rng):
    matrix = extract_features(make_epochs([rng.normal(0, 10.0, (4, EPOCH_SAMPLES))]))
    assert matrix.values.shape == (1, 40)
    values = matrix.values[0]
    names = eeg_feature_names()
    abs_vals = values[[i for i, n in enumerate(names) if n.endswith("_abs")]]
    rel_vals = values[[i for i, n in enumerate(names) if n.endswith("_rel")]]
    assert np.all(abs_vals >= 0.0)
    assert np.all((rel_vals >= 0.0) & (rel_vals <= 1.0))
    for ch in range(4):
        assert rel_vals[5 * ch:5 * ch + 5].sum() == pytest.approx(1.0, abs=1e-9)


def test_extract_features_tone_on_single_channel(rng):
    samples = rng.normal(0, 1.0, (4, EPOCH_SAMPLES))
    samples[0] += sine_wave(10.0, amplitude=20.0)
    values = extract_features(make_epochs([samples])).values[0]
    names = eeg_feature_names()
    tp9_rel = {n: values[i] for i, n in enumerate(names)
               if n.startswith("TP9") and n.endswith("_rel")}
    assert max(tp9_rel, key=tp9_rel.get) == "TP9_alpha_rel"


def test_extract_features_deterministic(rng):
    epochs = make_epochs([rng.normal(size=(4, EPOCH_SAMPLES))])
    v1 = extract_features(epochs)
    v2 = extract_features(epochs)
    np.testing.assert_array_equal(v1.values, v2.values)


def test_extract_features_degenerate_channel():
    with pytest.raises(DegeneratePower):
        extract_features(make_epochs([np.zeros((4, EPOCH_SAMPLES))]))


def test_scaling_covariance(rng):
    samples = rng.normal(0, 5.0, (4, EPOCH_SAMPLES))
    base = extract_features(make_epochs([samples])).values[0]
    scaled = extract_features(make_epochs([3.0 * samples])).values[0]
    names = eeg_feature_names()
    for i, name in enumerate(names):
        if name.endswith("_abs"):
            assert scaled[i] == pytest.approx(9.0 * base[i], rel=1e-9)
        else:
            assert scaled[i] == pytest.approx(base[i], rel=1e-9)


def test_frequency_shift_moves_band(rng):
    noise = rng.normal(0, 1.0, EPOCH_SAMPLES)
    tone_power = 20.0**2 / 2.0
    psd_10 = welch_psd(noise + sine_wave(10.0, amplitude=20.0))
    psd_20 = welch_psd(noise + sine_wave(20.0, amplitude=20.0))
    alpha, beta = BAND_BY_NAME["alpha"], BAND_BY_NAME["beta"]
    assert band_power(psd_10, alpha) > 0.9 * tone_power
    assert band_power(psd_20, beta) > 0.9 * tone_power
    assert band_power(psd_20, alpha) < 0.02 * tone_power
    assert band_power(psd_10, beta) < 0.02 * tone_power
    for name in ("delta", "theta", "gamma"):
        b = BAND_BY_NAME[name]
        assert band_power(psd_10, b) == pytest.approx(band_power(psd_20, b), rel=0.01)


def test_feature_matrix_assembly(rng):
    states = [BinaryState.ALERT, BinaryState.DROWSY, BinaryState.ALERT]
    epochs = make_epochs([rng.normal(0, 5.0, (4, EPOCH_SAMPLES)) for _ in range(3)], states)
    matrix = extract_features(epochs, session_id="s1")
    assert matrix.values.shape == (3, 40)
    assert matrix.interval_indices == (0, 1, 2)
    assert matrix.states == tuple(states)
    assert matrix.session_ids == ("s1", "s1", "s1")
    empty = extract_features(make_epochs([]), session_id="s1")
    assert empty.values.shape == (0, 40)
    assert empty.feature_names == eeg_feature_names()


def test_extract_features_matches_per_channel_path(rng):
    # oracle: each channel's Welch PSD integrated on its own; the batched
    # integration must reproduce it bit for bit, not just to rounding
    epochs = make_epochs([rng.normal(0.0, scale, (4, EPOCH_SAMPLES))
                          for scale in (0.05, 1.0, 7.0, 30.0, 250.0)])
    expected = []
    for x in epochs.samples:
        row = []
        for ch in range(4):
            psd = welch_psd(x[ch])
            total = total_power(psd)
            for band in BANDS:
                power = band_power(psd, band)
                row += [power, power / total]
        expected.append(row)
    np.testing.assert_array_equal(extract_features(epochs).values, np.array(expected))
