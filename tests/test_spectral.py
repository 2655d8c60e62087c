import threading
import warnings

import numpy as np
import pytest
from helpers import (
    band_limit,
    band_power,
    make_recording,
    make_spectra,
    relative_band_power,
    sine_wave,
    total_power,
    welch_psd_scipy,
)

from drowsekit import preprocess
from drowsekit.errors import DegeneratePower, NonFinitePower
from drowsekit.preprocess import (
    DEFAULT_AMPLITUDE_THRESHOLD_UV,
    EPOCH_SAMPLES,
    WORK_WIDTH,
    filter_epoch,
)
from drowsekit.spectral import (
    BANDS,
    FREQS_HZ,
    TOTAL_BAND_HZ,
    eeg_feature_names,
    extract_features,
    welch_psd,
)

BAND_BY_NAME = {b.name: b for b in BANDS}


# ---- Welch estimation ---------------------------------------------------

def test_welch_grid():
    assert welch_psd(np.zeros(EPOCH_SAMPLES)).shape == FREQS_HZ.shape == (513,)
    assert FREQS_HZ[0] == 0.0
    assert FREQS_HZ[-1] == 128.0
    assert np.allclose(np.diff(FREQS_HZ), 0.25)


def test_band_edges_lie_strictly_inside_the_grid():
    # _integrate interpolates at each edge and has no branch for edges off the grid
    edges = [e for b in BANDS for e in (b.lo_hz, b.hi_hz)] + list(TOTAL_BAND_HZ)
    assert all(FREQS_HZ[0] < e < FREQS_HZ[-1] for e in edges)


def test_freqs_are_read_only():
    with pytest.raises(ValueError, match="read-only"):
        FREQS_HZ[0] = 1.0


def test_welch_zero_signal():
    assert np.all(welch_psd(np.zeros(EPOCH_SAMPLES)) == 0.0)


def test_welch_too_short():
    # one segment needs DEFAULT_NFFT samples
    with pytest.raises(ValueError):
        welch_psd(np.zeros(1023))


def test_welch_parseval_oracle(rng):
    # oracle: the direct mean square of the signal
    ratios = []
    for _ in range(1000):
        x = rng.normal(0.0, 3.0, EPOCH_SAMPLES)
        integral = np.trapezoid(welch_psd(x), FREQS_HZ)
        ratios.append(integral / np.mean(x**2))
    ratios = np.asarray(ratios)
    assert np.all(np.abs(ratios - 1.0) < 0.1)
    assert abs(ratios.mean() - 1.0) < 0.02


def test_welch_tone_concentration():
    x = sine_wave(10.0, amplitude=np.sqrt(2.0))  # unit variance
    psd = welch_psd(x)
    near = (FREQS_HZ >= 9.0) & (FREQS_HZ <= 11.0)
    total = np.trapezoid(psd, FREQS_HZ)
    near_power = np.trapezoid(np.where(near, psd, 0.0), FREQS_HZ)
    assert near_power / total >= 0.95


@pytest.mark.parametrize("n", [1024, 1500, EPOCH_SAMPLES])
@pytest.mark.parametrize("channels", [(), (4,)], ids=["1d", "4ch"])
def test_welch_matches_scipy_oracle(rng, n, channels):
    x = rng.normal(0.0, 30.0, channels + (n,))
    psd, (freqs, expected) = welch_psd(x), welch_psd_scipy(x)
    assert FREQS_HZ.tobytes() == freqs.tobytes()
    assert psd.shape == expected.shape
    assert psd.tobytes() == expected.tobytes()


def test_welch_density_nonnegative(rng):
    assert np.all(welch_psd(rng.normal(size=EPOCH_SAMPLES)) >= 0.0)


# ---- band powers ---------------------------------------------------------

def test_band_power_single_grid_point():
    density = np.zeros(513)
    density[40] = 8.0  # spike at 10 Hz, integrated power 8 * 0.25
    assert FREQS_HZ[40] == 10.0
    assert band_power(density, BAND_BY_NAME["alpha"]) == pytest.approx(2.0)
    assert band_power(density, BAND_BY_NAME["delta"]) == 0.0


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
    matrix = extract_features(make_spectra([rng.normal(0, 10.0, (4, EPOCH_SAMPLES))]))
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
    values = extract_features(make_spectra([samples])).values[0]
    names = eeg_feature_names()
    tp9_rel = {n: values[i] for i, n in enumerate(names)
               if n.startswith("TP9") and n.endswith("_rel")}
    assert max(tp9_rel, key=tp9_rel.get) == "TP9_alpha_rel"


def test_extract_features_deterministic(rng):
    epochs = make_spectra([rng.normal(size=(4, EPOCH_SAMPLES))])
    v1 = extract_features(epochs)
    v2 = extract_features(epochs)
    np.testing.assert_array_equal(v1.values, v2.values)


def test_extract_features_degenerate_channel():
    with pytest.raises(DegeneratePower):
        extract_features(make_spectra([np.zeros((4, EPOCH_SAMPLES))]))


def test_scaling_covariance(rng):
    samples = rng.normal(0, 5.0, (4, EPOCH_SAMPLES))
    base = extract_features(make_spectra([samples])).values[0]
    scaled = extract_features(make_spectra([3.0 * samples])).values[0]
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
    epochs = make_spectra([rng.normal(0, 5.0, (4, EPOCH_SAMPLES)) for _ in range(3)],
                          [False, True, False])
    matrix = extract_features(epochs)
    assert matrix.values.shape == (3, 40)
    assert matrix.interval_index.tolist() == [0, 1, 2]
    assert matrix.drowsy.tolist() == [False, True, False]
    empty = extract_features(make_spectra([]))
    assert empty.values.shape == (0, 40)
    assert empty.feature_names == eeg_feature_names()


def _per_channel_features(densities):
    """Each channel's Welch PSD of each epoch integrated on its own."""
    expected = []
    for epoch in densities:
        row = []
        for psd in epoch:
            total = total_power(psd)
            for band in BANDS:
                power = band_power(psd, band)
                row += [power, power / total]
        expected.append(row)
    return np.array(expected).reshape(len(densities), 40)


def test_extract_features_matches_per_channel_path(rng):
    # oracle: each channel's Welch PSD integrated on its own; the batched
    # integration must reproduce it bit for bit, not just to rounding
    samples = [rng.normal(0.0, scale, (4, EPOCH_SAMPLES))
               for scale in (0.05, 1.0, 7.0, 30.0, 250.0)]
    expected = _per_channel_features([[welch_psd(channel) for channel in x] for x in samples])
    np.testing.assert_array_equal(extract_features(make_spectra(samples)).values, expected)


def test_welch_psd_in_caller_blocks_matches_its_own(rng):
    # the pass's call: the samples lie in the second of its blocks, the
    # density goes into a row of its own block
    x = rng.normal(0.0, 30.0, (4, EPOCH_SAMPLES))
    work = (np.full((4, WORK_WIDTH), np.nan), np.full((4, WORK_WIDTH), np.nan))
    work[1][:, :EPOCH_SAMPLES] = x
    out = np.empty((4, len(FREQS_HZ)))
    assert welch_psd(work[1][:, :EPOCH_SAMPLES], out, work) is out
    assert out.tobytes() == welch_psd(x).tobytes()


# ---- the per-epoch pass on worker threads ----------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_extract_features_split_matches_per_epoch_welch(rng, monkeypatch, workers, n):
    # oracle: each epoch on its own through np.pad + fftconvolve (high-pass,
    # then low-pass) and scipy.signal.welch, channel by channel
    samples = [rng.normal(0.0, 60.0, (4, EPOCH_SAMPLES)) for _ in range(n)]
    filtered = [band_limit(x) for x in samples]
    density = np.array([[welch_psd_scipy(channel)[1] for channel in y]
                        for y in filtered]).reshape(n, 4, 513)
    outliers = np.array([np.count_nonzero(np.abs(y) > DEFAULT_AMPLITUDE_THRESHOLD_UV, axis=-1)
                         for y in filtered], dtype=np.int64).reshape(n, 4)
    threads = set()

    def recording(samples, out=None, work=None):
        threads.add(threading.current_thread())
        return welch_psd(samples, out, work)

    monkeypatch.setattr(preprocess, "welch_psd", recording)
    spectra = filter_epoch(*make_recording(samples))
    assert spectra.outliers.tobytes() == outliers.tobytes()
    assert spectra.density.tobytes() == density.tobytes()
    assert extract_features(spectra).values.tobytes() == _per_channel_features(density).tobytes()
    assert len(threads) == min(workers, n)


def test_extract_features_reraises_the_error_of_a_later_chunk(rng, monkeypatch, workers):
    # the Welch PSD that the features integrate is taken on the pass's workers
    samples = [rng.normal(0.0, 30.0, (4, EPOCH_SAMPLES)) for _ in range(5)]
    last = band_limit(samples[-1])[0, 0]
    error = RuntimeError("the last epoch failed")

    def failing(filtered, out=None, work=None):
        if filtered[0, 0] == last:
            raise error
        return welch_psd(filtered, out, work)

    monkeypatch.setattr(preprocess, "welch_psd", failing)
    with pytest.raises(RuntimeError) as raised:
        extract_features(filter_epoch(*make_recording(samples)))
    assert raised.value is error


def test_extract_features_workers_run_under_the_callers_errstate(rng, monkeypatch):
    # the caller's numpy error state holds in every worker that takes a
    # Welch PSD, except that the pass itself ignores overflow and invalid values
    monkeypatch.setattr(preprocess, "available_cpus", lambda: 3)
    seen = []

    def recording_welch(filtered, out=None, work=None):
        state = np.geterr()
        seen.append((threading.current_thread(), state["under"], state["over"]))
        return welch_psd(filtered, out, work)

    monkeypatch.setattr(preprocess, "welch_psd", recording_welch)
    samples = [rng.normal(0.0, 30.0, (4, EPOCH_SAMPLES)) for _ in range(5)]
    with np.errstate(under="raise"):
        extract_features(filter_epoch(*make_recording(samples)))
    assert len({thread for thread, *_ in seen}) == 3
    assert [state for _, *state in seen] == [["raise", "ignore"]] * 5


@pytest.mark.parametrize("magnitude,error", [(1e150, None), (1e160, NonFinitePower),
                                             (1.7e308, NonFinitePower)])
def test_extract_features_names_an_epoch_whose_power_overflows(rng, workers, magnitude, error):
    # the squared spectrum of a 1e160 uV sample overflows float64, and a
    # 1.7e308 uV sample overflows the filter's FFTs; a 1e150 uV sample
    # overflows neither. None may make numpy warn, in any thread.
    samples = [rng.normal(0.0, 10.0, (4, EPOCH_SAMPLES)) for _ in range(3)]
    samples[2][1, 1000] = magnitude
    recording, epochs = make_recording(samples)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        spectra = filter_epoch(recording, epochs)
        if error is None:
            assert np.isfinite(extract_features(spectra).values).all()
        else:
            with pytest.raises(error, match="^channel AF7 of epoch 2 has a non-finite band "
                                            "or total power"):
                extract_features(spectra)
