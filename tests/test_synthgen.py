import dataclasses
import tracemalloc

import numpy as np
import pytest
from helpers import (
    add_combs_session_wide,
    band_power,
    generate_session_direct,
    target_band_power_uv2,
)

from drowsekit import ingest, synthgen
from drowsekit.errors import InvalidSpec
from drowsekit.preprocess import denoise_epochs, epoch_signal, filter_epoch, outlier_fraction
from drowsekit.session import validate_session
from drowsekit.spectral import BANDS
from drowsekit.synthgen import (
    _COMB_BLOCK_INTERVALS,
    DEFAULT_BAND_AMPLITUDES_UV,
    MAX_N_INTERVALS,
    SynthSpec,
    generate_session,
    load_synth_spec,
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


def test_serialized_sessions_byte_identical(tmp_path):
    spec = SynthSpec(n_intervals=2)
    outputs = []
    for _ in range(2):
        session = generate_session(spec, seed=7)
        ingest.write_eeg_csv(session.eeg, tmp_path / "eeg.csv")
        outputs.append((tmp_path / "eeg.csv").read_bytes())
    assert outputs[0] == outputs[1]


# the drowsy effect of acceptance criterion 6
_EFFECT = dict(
    drowsy_band_multipliers={"delta": 1.0, "theta": 1.5, "alpha": 1.0,
                             "beta": 1.8, "gamma": 2.0},
    telemetry_noise=25.0,
    drowsy_telemetry_shift={"steer_angle": 1.0, "steer_speed": 0.0,
                            "lane_deviation": 0.25, "torque": 0.8},
)


# noise 0 draws +/-0.0 * z, which rng.normal adds to 0.0 before the baseline
_FLAT_TELEMETRY = dict(telemetry_noise=0.0,
                       telemetry_baseline={"steer_angle": -0.0, "steer_speed": -0.0,
                                           "lane_deviation": -0.0, "torque": -0.0})


@pytest.mark.parametrize("extra", [{}, _EFFECT, {"outlier_rate": 0.2},
                                   {"include_telemetry": False}, _FLAT_TELEMETRY],
                         ids=["default", "effect", "outliers", "no-telemetry", "flat-telemetry"])
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


# one interval, either side of the first block edge, and a last block of one
@pytest.mark.parametrize("n_intervals", [1, _COMB_BLOCK_INTERVALS - 1, _COMB_BLOCK_INTERVALS,
                                         _COMB_BLOCK_INTERVALS + 1, 2 * _COMB_BLOCK_INTERVALS + 1,
                                         5 * _COMB_BLOCK_INTERVALS + 1])
def test_blockwise_combs_match_session_wide_products(monkeypatch, n_intervals):
    spec = SynthSpec(n_intervals=n_intervals, outlier_rate=0.2, **_EFFECT)
    got = generate_session(spec, seed=29)
    monkeypatch.setattr(synthgen, "_add_combs", add_combs_session_wide)
    ref = generate_session(spec, seed=29)
    assert got.eeg.channels.tobytes() == ref.eeg.channels.tobytes()


@pytest.mark.parametrize("n_intervals", [16, 160])
def test_generation_holds_its_output_plus_a_fixed_block(n_intervals):
    # beside the EEG and telemetry arrays: the draws (66 phases per epoch),
    # one 480 KB product buffer and a block's angles; a first call builds
    # the comb tables
    spec = SynthSpec(n_intervals=n_intervals, **_EFFECT)
    generate_session(SynthSpec(n_intervals=1), seed=3)
    tracemalloc.start()
    try:
        session = generate_session(spec, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - session.eeg.channels.nbytes - session.telemetry.series.nbytes < 2_000_000


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
    states = session.labels.intervals
    drowsy = [r for r in states if r == (4, 4, 4)]
    alert = [r for r in states if r == (1, 1, 1)]
    assert len(drowsy) == 3
    assert len(alert) == 7


def test_band_power_tracks_spec():
    spec = SynthSpec(n_intervals=12, drowsy_fraction=0.5)
    session = generate_session(spec, seed=5)
    spectra = filter_epoch(session.eeg, epoch_signal(session.eeg, session.labels))
    alert = spectra.density[~spectra.drowsy]
    noise_density = spec.noise_floor_uv**2 / 128.0
    for band in BANDS:
        powers = [band_power(density[0], band) for density in alert]
        target = target_band_power_uv2(DEFAULT_BAND_AMPLITUDES_UV[band.name])
        target += noise_density * (band.hi_hz - band.lo_hz)
        assert np.mean(powers) == pytest.approx(target, rel=0.15)


def test_drowsy_multiplier_scales_power():
    spec = SynthSpec(n_intervals=12, drowsy_fraction=0.5,
                     drowsy_band_multipliers={"delta": 1.0, "theta": 2.0,
                                              "alpha": 1.0, "beta": 1.0, "gamma": 1.0})
    session = generate_session(spec, seed=6)
    spectra = filter_epoch(session.eeg, epoch_signal(session.eeg, session.labels))
    theta = next(b for b in BANDS if b.name == "theta")
    powers = np.array([band_power(density[0], theta) for density in spectra.density])
    ratio = np.mean(powers[spectra.drowsy]) / np.mean(powers[~spectra.drowsy])
    assert ratio == pytest.approx(4.0, rel=0.2)  # amplitude x2 -> power x4


@pytest.mark.parametrize("rate", [0.35, 0.6])
def test_outlier_injection_causes_drop(rate):
    spec = SynthSpec(n_intervals=4, outlier_rate=rate)
    session = generate_session(spec, seed=9)
    spectra = filter_epoch(session.eeg, epoch_signal(session.eeg, session.labels))
    assert np.all(outlier_fraction(spectra.outliers) > 0.30)
    assert len(denoise_epochs(spectra).epochs) == 0


def test_no_injection_keeps_epochs():
    session = generate_session(SynthSpec(n_intervals=4), seed=9)
    spectra = filter_epoch(session.eeg, epoch_signal(session.eeg, session.labels))
    assert len(denoise_epochs(spectra).epochs) == len(spectra) == 4


def test_telemetry_shift_applies_to_drowsy_intervals():
    shift = {"steer_angle": 3.0, "steer_speed": 0.0, "lane_deviation": 0.0, "torque": 0.0}
    spec = SynthSpec(n_intervals=20, drowsy_fraction=0.5, telemetry_noise=0.1,
                     drowsy_telemetry_shift=shift)
    session = generate_session(spec, seed=13)
    per_interval = int(spec.telemetry_rate_hz * 30)
    steer = session.telemetry.series[0]
    for k, ratings in enumerate(session.labels.intervals):
        mean = steer[k * per_interval:(k + 1) * per_interval].mean()
        expected = 3.0 if ratings == (4, 4, 4) else 0.0
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
    # a spec checks itself when it is built
    with pytest.raises(InvalidSpec):
        SynthSpec(**kwargs)


@pytest.mark.parametrize("n_intervals", [MAX_N_INTERVALS + 1, 10**9, 10**400])
def test_overlong_session_rejected_by_validate(n_intervals):
    with pytest.raises(InvalidSpec, match="at most 2880"):
        SynthSpec(n_intervals=n_intervals)


def test_longest_session_passes_validate():
    SynthSpec(n_intervals=MAX_N_INTERVALS)


def test_spec_json_round_trip():
    spec = SynthSpec(n_intervals=5, drowsy_fraction=0.4, outlier_rate=0.1)
    rebuilt = SynthSpec.from_json_dict(dataclasses.asdict(spec))
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
