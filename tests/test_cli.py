import dataclasses
import json

import numpy as np
import pytest

from drowsekit import cli, ingest
from drowsekit.errors import NonFiniteSample
from drowsekit.session import EEG_CHANNELS, VEHICLE_SERIES
from drowsekit.synthgen import SynthSpec, generate_session


def _write_cohort(tmp_path, specs_and_seeds, subdir="cohort"):
    """Generate sessions and lay them out as an on-disk cohort."""
    root = tmp_path / subdir
    root.mkdir()
    entries = []
    for spec, seed in specs_and_seeds:
        session = generate_session(spec, seed)
        sdir = root / session.id
        sdir.mkdir()
        eeg = sdir / "eeg.csv"
        labels = sdir / "labels.csv"
        ingest.write_eeg_csv(session.eeg, eeg)
        ingest.write_ord_csv(session.labels, labels)
        telemetry = None
        if session.telemetry is not None:
            telemetry = sdir / "telemetry.csv"
            ingest.write_telemetry_csv(session.telemetry, telemetry)
        entries.append(ingest.SessionManifest(
            session_id=session.id, eeg_path=eeg, telemetry_path=telemetry,
            labels_path=labels))
    manifest = root / "manifest.csv"
    ingest.write_manifest(entries, manifest, relative_to=root)
    return manifest


EFFECT_SPEC = SynthSpec(
    n_intervals=16,
    drowsy_fraction=0.5,
    drowsy_band_multipliers={"delta": 1.0, "theta": 2.0, "alpha": 1.0,
                             "beta": 1.0, "gamma": 1.0},
    drowsy_telemetry_shift={"steer_angle": 2.0, "steer_speed": 0.0,
                            "lane_deviation": 0.0, "torque": 0.0},
)


def test_synth_then_validate(tmp_path):
    out = tmp_path / "synth"
    assert cli.main(["synth", "--out", str(out), "--seed", "1"]) == 0
    assert (out / "eeg.csv").exists()
    assert (out / "telemetry.csv").exists()
    assert (out / "labels.csv").exists()
    assert cli.main(["validate", "--manifest", str(out / "manifest.csv")]) == 0


def test_synth_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"n_intervals": 2}')
    for out in (out1, out2):
        assert cli.main(["synth", "--out", str(out), "--seed", "5",
                         "--spec", str(spec_path)]) == 0
    for name in ("eeg.csv", "telemetry.csv", "labels.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "drowsy_band_multipliers": {"theta": 0.0}}))
    code = cli.main(["synth", "--out", str(tmp_path / "o"), "--seed", "1",
                     "--spec", str(spec_path)])
    assert code == 2
    assert "invalid synth spec" in capsys.readouterr().err


def test_validate_missing_manifest_exits_2(tmp_path):
    assert cli.main(["validate", "--manifest", str(tmp_path / "nope.csv")]) == 2


def test_validate_flags_malformed_file(tmp_path, capsys):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), 1)])
    eeg_path = manifest.parent / "synth-1" / "eeg.csv"
    text = eeg_path.read_text().splitlines()
    text[3] = text[3].replace(",", ",oops", 1)
    eeg_path.write_text("\n".join(text) + "\n")
    code = cli.main(["validate", "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert code == 1
    assert "synth-1" in captured.out
    assert "NonNumericValue" in captured.out


@pytest.mark.parametrize("cell,code", [(b"nan", "NonFiniteValue"),
                                       (b"\xff\xfe", "InvalidEncoding")])
def test_validate_lists_unloadable_session(tmp_path, capsys, cell, code):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), 1)])
    eeg_path = manifest.parent / "synth-1" / "eeg.csv"
    lines = eeg_path.read_bytes().split(b"\n")
    fields = lines[3].split(b",")
    fields[2] = cell
    lines[3] = b",".join(fields)
    eeg_path.write_bytes(b"\n".join(lines))
    assert cli.main(["validate", "--manifest", str(manifest)]) == 1
    assert f"synth-1: LOAD FAILED {code}" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_manifest_invalid_utf8_exits_2(tmp_path, capsys, command):
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"session_id,eeg_path,telemetry_path,labels_path\n\xff\xfe\n")
    args = [command, "--manifest", str(manifest)]
    if command == "analyze":
        args += ["--out", str(tmp_path / "r")]
    assert cli.main(args) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_analyze_effect_cohort(tmp_path):
    manifest = _write_cohort(
        tmp_path, [(EFFECT_SPEC, seed) for seed in (101, 102, 103)])
    out = tmp_path / "report"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 0

    report = json.loads((out / "report.json").read_text())
    assert report["n_sessions"] == 3
    by_feature = {r["feature"]: r for r in report["eeg_absolute"]}
    for ch in EEG_CHANNELS:
        row = by_feature[f"{ch}_theta_abs"]
        assert row["significant"]
        assert row["p_value"] < 1e-6
    vehicle = {r["feature"]: r for r in report["vehicle"]}
    assert vehicle["steer_angle"]["significant"]

    table = (out / "eeg_absolute.csv").read_text().splitlines()
    assert table[0] == "band," + ",".join(EEG_CHANNELS)
    assert len(table) == 6
    sig = (out / "eeg_absolute_significant.csv").read_text().splitlines()
    theta_cells = sig[2].split(",")
    assert theta_cells[0] == "theta"
    assert all(c == "true" for c in theta_cells[1:])

    denoise = (out / "denoise.csv").read_text().splitlines()
    assert denoise[0] == "stage,alert_epochs,drowsy_epochs,total_epochs"
    assert denoise[1].startswith("pre_denoising,24,24,48")

    vehicle_table = (out / "vehicle.csv").read_text().splitlines()
    assert vehicle_table[0] == "," + ",".join(VEHICLE_SERIES)


def test_analyze_deterministic_report(tmp_path):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=10), 7)])
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out1)]) == 0
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_analyze_single_state_cohort_exits_1(tmp_path, capsys):
    manifest = _write_cohort(
        tmp_path, [(SynthSpec(n_intervals=8, drowsy_fraction=0.0), 3)])
    code = cli.main(["analyze", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r")])
    assert code == 1
    assert "NeedTwoGroups" in capsys.readouterr().err


def test_analyze_cohort_rejects_nan_eeg_sample():
    # a NaN passes the artifact rule and the degeneracy check, so the
    # statistics are the last line of defence against a false "significant"
    session = generate_session(SynthSpec(n_intervals=10, drowsy_fraction=0.5), 11)
    channels = [c.copy() for c in session.eeg.channels]
    channels[0][1000] = np.nan
    session = dataclasses.replace(
        session, eeg=dataclasses.replace(session.eeg, channels=tuple(channels)))
    with pytest.raises(NonFiniteSample):
        cli.analyze_cohort([session], cli.RunConfig(), cohort_id="nan")


def test_analyze_missing_manifest_exits_2(tmp_path):
    code = cli.main(["analyze", "--manifest", str(tmp_path / "none.csv"),
                     "--out", str(tmp_path / "r")])
    assert code == 2


def test_analyze_alpha_changes_digest(tmp_path):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=10), 7)])
    digests = []
    for alpha, name in (("0.05", "d1"), ("0.01", "d2")):
        out = tmp_path / name
        assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out),
                         "--alpha", alpha]) == 0
        digests.append(json.loads((out / "report.json").read_text())["config_digest"])
    assert digests[0] != digests[1]


def test_analyze_rejects_bad_alpha(tmp_path, capsys):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=4), 7)], subdir="c2")
    code = cli.main(["analyze", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r"), "--alpha", "2.0"])
    assert code == 2


def test_features_command(tmp_path):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=4), 21)])
    out = tmp_path / "features"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    eeg_csv = (out / "synth-21_eeg_features.csv").read_text().splitlines()
    assert eeg_csv[0].startswith("interval,state,TP9_delta_abs,TP9_delta_rel")
    assert len(eeg_csv) == 5
    veh_csv = (out / "synth-21_vehicle_features.csv").read_text().splitlines()
    assert veh_csv[0] == "interval,state," + ",".join(VEHICLE_SERIES)


def test_abs_mean_flag_changes_vehicle_values(tmp_path):
    spec = SynthSpec(n_intervals=10, telemetry_baseline={
        "steer_angle": 0.0, "steer_speed": 0.0, "lane_deviation": 0.0, "torque": 0.0})
    manifest = _write_cohort(tmp_path, [(spec, 31)])
    outs = {}
    for flag, name in ((False, "plain"), (True, "absmean")):
        out = tmp_path / name
        args = ["features", "--manifest", str(manifest), "--out", str(out)]
        if flag:
            args.append("--abs-mean")
        assert cli.main(args) == 0
        rows = (out / "synth-31_vehicle_features.csv").read_text().splitlines()[1:]
        outs[name] = np.array([[float(v) for v in r.split(",")[2:]] for r in rows])
    # mean of absolute values dominates the signed mean for zero-mean noise
    assert np.all(outs["absmean"] >= outs["plain"] - 1e-12)
    assert outs["absmean"].mean() > abs(outs["plain"]).mean()


def test_config_digest_stable_for_same_params():
    assert cli.RunConfig().digest() == cli.RunConfig().digest()


def test_config_digest_changes_with_every_parameter():
    base = cli.RunConfig()
    changed = {
        "hp_cutoff_hz": 0.2,
        "hp_transition_hz": 0.4,
        "lp_cutoff_hz": 45.0,
        "lp_transition_hz": 5.0,
        "amplitude_threshold_uv": 80.0,
        "max_outlier_fraction": 0.25,
        "nfft": 512,
        "alpha": 0.01,
        "abs_mean": True,
        "per_channel_outliers": True,
    }
    assert set(changed) == set(base.to_param_dict())
    for name, value in changed.items():
        assert cli.RunConfig(**{name: value}).digest() != base.digest(), name


def test_analyze_empty_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("session_id,eeg_path,telemetry_path,labels_path\n")
    code = cli.main(["analyze", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r")])
    assert code == 1
    assert "cohort is empty" in capsys.readouterr().err
