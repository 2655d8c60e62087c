"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured values (run with ``pytest -s`` to see them
on the terminal).
"""

import json

import numpy as np
import pytest
from helpers import (
    exact_rank_sum_p,
    freq_response_db,
    make_spectra,
    relative_band_power,
    sine_wave,
)

from drowsekit import cli
from drowsekit.pipeline import RunConfig, analyze_cohort, denoise_table
from drowsekit.preprocess import EPOCH_SAMPLES, HP_TAPS, LP_TAPS
from drowsekit.session import EEG_CHANNELS
from drowsekit.spectral import (
    BANDS,
    FREQS_HZ,
    eeg_feature_names,
    extract_features,
    welch_psd,
)
from drowsekit.stats import TestMethod, _average_ranks, _rank_sum_normal_approx, rank_sum_test
from drowsekit.synthgen import SynthSpec, generate_session

CONFIG = RunConfig()


def test_criterion_1_reference_denoise_arithmetic():
    table = denoise_table([{"pre_alert": 1058, "pre_drowsy": 2986,
                            "post_alert": 998, "post_drowsy": 2814}])
    assert table["pre_total"] == 4044
    assert table["post_total"] == 3812
    percent = (1.0 - table["post_total"] / table["pre_total"]) * 100.0
    assert abs(percent - 5.73) <= 0.01
    print(f"PASS criterion 1: totals {table['pre_total']}/{table['post_total']}, "
          f"removal {percent:.4f}% (rendered {table['removal_percent']}) "
          f"within 0.01 pp of 5.73%")


def test_criterion_2_rank_sum_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_exact = 0.0
    worst_approx = 0.0
    for _ in range(1000):
        n_a, n_b = rng.integers(3, 7, 2)
        while True:
            values = rng.integers(0, 100_000, n_a + n_b)
            if len(np.unique(values)) == n_a + n_b:
                break
        a = values[:n_a].astype(float)
        b = values[n_a:].astype(float)
        p_oracle = exact_rank_sum_p(a, b)
        exact = rank_sum_test(a, b)
        assert exact.method is TestMethod.EXACT_ENUMERATION
        worst_exact = max(worst_exact, abs(exact.p_value - p_oracle))
        ranks, runs = _average_ranks(np.concatenate([a, b]))
        approx = _rank_sum_normal_approx(float(ranks[:n_a].sum()), n_a, n_b, runs)
        worst_approx = max(worst_approx, abs(approx.p_value - p_oracle))
    assert worst_exact <= 1e-12
    assert worst_approx <= 0.03
    print(f"PASS criterion 2: 1000 pairs, |exact - oracle| <= {worst_exact:.2e}, "
          f"|approx - oracle| <= {worst_approx:.4f}")


def test_criterion_3_parseval():
    rng = np.random.default_rng(3)
    ratios = []
    for _ in range(100):
        x = rng.normal(0.0, rng.uniform(0.5, 20.0), EPOCH_SAMPLES)
        integral = np.trapezoid(welch_psd(x), FREQS_HZ)
        ratios.append(integral / np.mean(x**2))
    ratios = np.asarray(ratios)
    assert np.all(np.abs(ratios - 1.0) < 0.1)
    assert abs(ratios.mean() - 1.0) < 0.02
    print(f"PASS criterion 3: 100 epochs, ratio range "
          f"[{ratios.min():.4f}, {ratios.max():.4f}], mean {ratios.mean():.4f}")


def test_criterion_4_filter_responses():
    lp_10 = freq_response_db(LP_TAPS, 10.0)
    lp_50 = freq_response_db(LP_TAPS, 50.0)
    lp_cut = freq_response_db(LP_TAPS, 40.0)
    hp_dc = freq_response_db(HP_TAPS, 0.0)
    hp_cut = freq_response_db(HP_TAPS, 0.1)
    assert abs(lp_10) <= 0.05
    assert lp_50 <= -40.0
    assert hp_dc <= -60.0
    assert abs(lp_cut + 6.0) <= 0.5
    assert abs(hp_cut + 6.0) <= 0.5
    print(f"PASS criterion 4: LP 10 Hz {lp_10:+.4f} dB, LP 50 Hz {lp_50:.1f} dB, "
          f"HP DC {hp_dc:.1f} dB, -6 dB points at {lp_cut:.2f}/{hp_cut:.2f} dB")


def test_criterion_5_relative_power_normalization():
    rng = np.random.default_rng(5)
    names = eeg_feature_names()
    rel_idx = [i for i, n in enumerate(names) if n.endswith("_rel")]
    worst = 0.0
    for _ in range(1000):
        spectra = make_spectra([rng.normal(0.0, rng.uniform(1.0, 30.0), (4, EPOCH_SAMPLES))])
        rel = extract_features(spectra).values[0, rel_idx]
        for ch in range(4):
            worst = max(worst, abs(rel[5 * ch:5 * ch + 5].sum() - 1.0))
    assert worst <= 1e-9

    alpha = next(b for b in BANDS if b.name == "alpha")
    tone_rel = relative_band_power(welch_psd(sine_wave(10.0)), alpha)
    assert tone_rel >= 0.95
    print(f"PASS criterion 5: 1000 epochs, worst |sum(rel) - 1| = {worst:.2e}; "
          f"10 Hz tone alpha relative {tone_rel:.4f}")


@pytest.fixture(scope="module")
def effect_report():
    spec = SynthSpec(
        n_intervals=10,
        drowsy_fraction=0.5,
        drowsy_band_multipliers={"delta": 1.0, "theta": 1.5, "alpha": 1.0,
                                 "beta": 1.8, "gamma": 2.0},
        # noise scaled so interval means, not raw samples, carry the
        # contrast: strong steer-angle/torque shifts separate without
        # saturating the rank-sum p at its n-dependent floor
        telemetry_noise=25.0,
        drowsy_telemetry_shift={"steer_angle": 1.0, "steer_speed": 0.0,
                                "lane_deviation": 0.25, "torque": 0.8},
    )
    sessions = [generate_session(spec, seed=1000 + k) for k in range(48)]
    return analyze_cohort(sessions, CONFIG, cohort_id="acceptance-effect")


def test_criterion_6_effect_detection(effect_report):
    eeg_abs = {r["feature"]: r for r in effect_report["eeg_absolute"]}
    boosted = [f"{ch}_{band}_abs" for ch in EEG_CHANNELS
               for band in ("theta", "beta", "gamma")]
    for name in boosted:
        assert eeg_abs[name]["p_value"] < 1e-6, name
        assert eeg_abs[name]["significant"]

    vehicle = {r["feature"]: r for r in effect_report["vehicle"]}
    steer_speed_p = vehicle["steer_speed"]["p_value"]
    assert steer_speed_p > 0.05
    assert not vehicle["steer_speed"]["significant"]

    min_eeg = min(r["p_value"] for r in effect_report["eeg_absolute"])
    min_vehicle = min(r["p_value"] for r in effect_report["vehicle"])
    assert min_eeg < min_vehicle
    print(f"PASS criterion 6: 48 sessions; boosted-band p <= "
          f"{max(eeg_abs[n]['p_value'] for n in boosted):.2e}; "
          f"steer_speed p = {steer_speed_p:.4f} > 0.05; "
          f"min EEG p {min_eeg:.2e} < min vehicle p {min_vehicle:.2e}")


def test_criterion_7_null_calibration():
    spec = SynthSpec(n_intervals=40, drowsy_fraction=0.5, include_telemetry=False)
    fractions = []
    for seed in range(50):
        session = generate_session(spec, seed=7000 + seed)
        report = analyze_cohort([session], CONFIG, cohort_id=f"null-{seed}")
        rows = report["eeg_absolute"] + report["eeg_relative"]
        fractions.append(np.mean([r["significant"] for r in rows]))
    mean_fraction = float(np.mean(fractions))
    assert 0.02 <= mean_fraction <= 0.08
    print(f"PASS criterion 7: 50 null seeds, mean significant fraction "
          f"{mean_fraction:.4f} in [0.02, 0.08]")


def test_criterion_8_determinism(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"n_intervals": 10}')

    synth_dirs = [tmp_path / "s1", tmp_path / "s2"]
    for d in synth_dirs:
        assert cli.main(["synth", "--out", str(d), "--seed", "99",
                         "--spec", str(spec_path)]) == 0
    session_files = ("eeg.csv", "telemetry.csv", "labels.csv", "manifest.csv")
    for name in session_files:
        assert (synth_dirs[0] / name).read_bytes() == (synth_dirs[1] / name).read_bytes()

    report_dirs = [tmp_path / "r1", tmp_path / "r2"]
    for d in report_dirs:
        assert cli.main(["analyze", "--manifest", str(synth_dirs[0] / "manifest.csv"),
                         "--out", str(d)]) == 0
    r1 = (report_dirs[0] / "report.json").read_bytes()
    r2 = (report_dirs[1] / "report.json").read_bytes()
    assert r1 == r2
    digest = json.loads(r1)["config_digest"]
    print(f"PASS criterion 8: synth files and report.json byte-identical "
          f"across reruns (config digest {digest[:12]}...)")
