import io

import numpy as np
import pytest
from helpers import band_power, generate_session_direct

from drowsekit import ingest
from drowsekit.errors import InvalidSpec
from drowsekit.preprocess import denoise_epochs, epoch_signal, filter_epoch, outlier_fraction
from drowsekit.session import BinaryState, validate_session
from drowsekit.spectral import BANDS, welch_psd
from drowsekit.synthgen import (
    DEFAULT_BAND_AMPLITUDES_UV,
    SynthSpec,
    generate_session,
    load_synth_spec,
    target_band_power_uv2,
)


def test_generation_is_deterministic():
    spec = SynthSpec(n_intervals=3)
    s1 = generate_session(spec, seed=42)
    s2 = generate_session(spec, seed=42)
    for a, b in zip(s1.eeg.channels, s2.eeg.channels):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(s1.telemetry.series, s2.telemetry.series):
        np.testing.assert_array_equal(a, b)
    assert s1.labels == s2.labels


def test_serialized_sessions_byte_identical():
    spec = SynthSpec(n_intervals=2)
    outputs = []
    for _ in range(2):
        session = generate_session(spec, seed=7)
        buf = io.StringIO()
        ingest.write_eeg_csv(session.eeg, buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]


# the drowsy effect of acceptance criterion 6
_EFFECT = dict(
    drowsy_band_multipliers={"delta": 1.0, "theta": 1.5, "alpha": 1.0,
                             "beta": 1.8, "gamma": 2.0},
    telemetry_noise=25.0,
    drowsy_telemetry_shift={"steer_angle": 1.0, "steer_speed": 0.0,
                            "lane_deviation": 0.25, "torque": 0.8},
)


@pytest.mark.parametrize("extra", [{}, _EFFECT, {"outlier_rate": 0.2},
                                   {"include_telemetry": False}],
                         ids=["default", "effect", "outliers", "no-telemetry"])
@pytest.mark.parametrize("drowsy_fraction", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("n_intervals", [1, 3])
def test_generator_matches_direct_sin_oracle(n_intervals, drowsy_fraction, extra):
    spec = SynthSpec(n_intervals=n_intervals, drowsy_fraction=drowsy_fraction, **extra)
    got = generate_session(spec, seed=23)
    ref = generate_session_direct(spec, seed=23)
    assert got.labels == ref.labels
    if ref.telemetry is None:
        assert got.telemetry is None
    else:
        assert got.telemetry.sample_rate_hz == ref.telemetry.sample_rate_hz
        for a, b in zip(got.telemetry.series, ref.telemetry.series):
            assert a.tobytes() == b.tobytes()
    assert len(got.eeg.channels) == len(ref.eeg.channels)
    for a, b in zip(got.eeg.channels, ref.eeg.channels):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-10


def test_different_seeds_differ():
    spec = SynthSpec(n_intervals=2)
    s1 = generate_session(spec, seed=1)
    s2 = generate_session(spec, seed=2)
    assert not np.array_equal(s1.eeg.channels[0], s2.eeg.channels[0])


def test_generated_session_is_valid():
    session = generate_session(SynthSpec(n_intervals=4), seed=3)
    assert validate_session(session) == []
    assert session.eeg.n_samples == 4 * 7680


def test_label_composition():
    spec = SynthSpec(n_intervals=10, drowsy_fraction=0.3)
    session = generate_session(spec, seed=11)
    states = [iv.ratings for iv in session.labels.intervals]
    drowsy = [r for r in states if r == (4, 4, 4)]
    alert = [r for r in states if r == (1, 1, 1)]
    assert len(drowsy) == 3
    assert len(alert) == 7


def test_band_power_tracks_spec(default_kernels):
    hp, lp = default_kernels
    spec = SynthSpec(n_intervals=12, drowsy_fraction=0.5)
    session = generate_session(spec, seed=5)
    epochs = filter_epoch(epoch_signal(session.eeg, session.labels), hp, lp)
    alert = epochs.samples[epochs.state == BinaryState.ALERT]
    noise_density = spec.noise_floor_uv**2 / 128.0
    for band in BANDS:
        powers = [band_power(welch_psd(x[0]), band) for x in alert]
        target = target_band_power_uv2(DEFAULT_BAND_AMPLITUDES_UV[band.name])
        target += noise_density * (band.hi_hz - band.lo_hz)
        assert np.mean(powers) == pytest.approx(target, rel=0.15)


def test_drowsy_multiplier_scales_power(default_kernels):
    hp, lp = default_kernels
    spec = SynthSpec(n_intervals=12, drowsy_fraction=0.5,
                     drowsy_band_multipliers={"delta": 1.0, "theta": 2.0,
                                              "alpha": 1.0, "beta": 1.0, "gamma": 1.0})
    session = generate_session(spec, seed=6)
    epochs = filter_epoch(epoch_signal(session.eeg, session.labels), hp, lp)
    theta = next(b for b in BANDS if b.name == "theta")
    by_state = {BinaryState.ALERT: [], BinaryState.DROWSY: []}
    for x, state in zip(epochs.samples, epochs.state):
        by_state[state].append(band_power(welch_psd(x[0]), theta))
    ratio = np.mean(by_state[BinaryState.DROWSY]) / np.mean(by_state[BinaryState.ALERT])
    assert ratio == pytest.approx(4.0, rel=0.2)  # amplitude x2 -> power x4


@pytest.mark.parametrize("rate", [0.35, 0.6])
def test_outlier_injection_causes_drop(default_kernels, rate):
    hp, lp = default_kernels
    spec = SynthSpec(n_intervals=4, outlier_rate=rate)
    session = generate_session(spec, seed=9)
    epochs = filter_epoch(epoch_signal(session.eeg, session.labels), hp, lp)
    assert np.all(outlier_fraction(epochs.samples) > 0.30)
    assert len(denoise_epochs(epochs).epochs) == 0


def test_no_injection_keeps_epochs(default_kernels):
    hp, lp = default_kernels
    session = generate_session(SynthSpec(n_intervals=4), seed=9)
    epochs = filter_epoch(epoch_signal(session.eeg, session.labels), hp, lp)
    assert len(denoise_epochs(epochs).epochs) == len(epochs) == 4


def test_telemetry_shift_applies_to_drowsy_intervals():
    shift = {"steer_angle": 3.0, "steer_speed": 0.0, "lane_deviation": 0.0, "torque": 0.0}
    spec = SynthSpec(n_intervals=20, drowsy_fraction=0.5, telemetry_noise=0.1,
                     drowsy_telemetry_shift=shift)
    session = generate_session(spec, seed=13)
    per_interval = int(spec.telemetry_rate_hz * 30)
    steer = session.telemetry.series[0]
    for k, iv in enumerate(session.labels.intervals):
        mean = steer[k * per_interval:(k + 1) * per_interval].mean()
        expected = 3.0 if iv.ratings == (4, 4, 4) else 0.0
        assert mean == pytest.approx(expected, abs=0.1)


def test_telemetry_can_be_disabled():
    session = generate_session(SynthSpec(n_intervals=2, include_telemetry=False), seed=1)
    assert session.telemetry is None


@pytest.mark.parametrize("kwargs", [
    {"n_intervals": 0},
    {"drowsy_fraction": 1.5},
    {"outlier_rate": -0.1},
    {"noise_floor_uv": -1.0},
    {"drowsy_band_multipliers": {"delta": 0.0, "theta": 1.0, "alpha": 1.0,
                                 "beta": 1.0, "gamma": 1.0}},
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(InvalidSpec):
        generate_session(SynthSpec(**kwargs), seed=1)


def test_spec_json_round_trip():
    spec = SynthSpec(n_intervals=5, drowsy_fraction=0.4, outlier_rate=0.1)
    rebuilt = SynthSpec.from_json_dict(spec.to_json_dict())
    assert rebuilt == spec


def test_spec_flat_amplitudes_apply_to_all_channels():
    spec = SynthSpec.from_json_dict({"band_amplitudes_uv": {"theta": 25.0}})
    for ch in spec.band_amplitudes_uv:
        assert spec.band_amplitudes_uv[ch]["theta"] == 25.0
        assert spec.band_amplitudes_uv[ch]["delta"] == DEFAULT_BAND_AMPLITUDES_UV["delta"]


def test_load_synth_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n_intervals": 7, "drowsy_fraction": 0.25}')
    spec = load_synth_spec(path)
    assert spec.n_intervals == 7
    assert spec.drowsy_fraction == 0.25
