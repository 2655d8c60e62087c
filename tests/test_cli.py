import dataclasses
import json

import numpy as np
import pytest

from drowsekit import cli, ingest, preprocess, spectral, stats, vehicle
from drowsekit.errors import NonFiniteSample
from drowsekit.features import FeatureMatrix
from drowsekit.session import EEG_CHANNELS, VEHICLE_SERIES, BinaryState
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


@pytest.mark.parametrize("spec_text", [
    '{"noise_floor_uv": NaN}',
    '{"telemetry_noise": NaN}',
    '{"band_amplitudes_uv": {"theta": NaN}}',
    '{"n_intervals": 2, "drowsy_band_multipliers": {"beta": Infinity}}',
    '{"telemetry_baseline": {"torque": -Infinity}}',
    '{"drowsy_telemetry_shift": {"steer_angle": NaN}}',
    '{"telemetry_rate_hz": 0.01}',
    '{"telemetry_rate_hz": Infinity}',
    '{"n_intervals": 2.5}',
    '{"n_intervals": true}',
    '{"noise_floor_uv": "2"}',
    # unknown names, sections that are not objects, and non-numeric values
    '{"band_amplitudes_uv": {"theta": "x"}}',
    '{"n_intervalz": 3}',
    '{"drowsy_band_multipliers": {"theta": "x"}}',
    '{"band_amplitudes_uv": [1, 2]}',
    '{"band_amplitudes_uv": {"TP9": {"theta": 1.0}, "Cz": {"theta": 1.0}}}',
    '{"band_amplitudes_uv": {"TP9": {"thetta": 1.0}}}',
    '{"band_amplitudes_uv": {"TP9": 1.0}}',
    '{"telemetry_baseline": {"speed": 1.0}}',
    '{"drowsy_telemetry_shift": 1.0}',
    '{"drowsy_band_multipliers": {"theta": true}}',
    '[]',
])
def test_synth_rejects_unusable_spec(tmp_path, capsys, spec_text):
    # unchecked, each of these would write a session that validate rejects, or crash
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text)
    out = tmp_path / "o"
    assert cli.main(["synth", "--out", str(out), "--spec", str(spec_path)]) == 2
    assert "invalid synth spec" in capsys.readouterr().err
    assert not out.exists()


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


def test_validate_flags_eeg_sampled_at_128_hz(tmp_path, capsys):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), 1)])
    eeg_path = manifest.parent / "synth-1" / "eeg.csv"
    recording = ingest.load_eeg_csv(eeg_path)
    # the same samples, with a time column stepping by 1/128 s
    ingest.write_eeg_csv(dataclasses.replace(recording, sample_rate_hz=128.0), eeg_path)
    assert cli.main(["validate", "--manifest", str(manifest)]) == 1
    assert "synth-1: WrongSampleRate: EEG sample rate 128.0 Hz" in capsys.readouterr().out
    out = tmp_path / "report"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert not out.exists()


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


def test_write_report_files_rejects_nan(tmp_path):
    row = {"feature": "steer_angle", "n_alert": 4, "n_drowsy": 4, "ks_p_alert": None,
           "ks_p_drowsy": None, "statistic": 8.0, "p_value": float("nan"),
           "method": "ExactEnumeration", "significant": False}
    report = {"cohort": "c", "config_digest": "d", "config": cli.RunConfig().to_param_dict(),
              "n_sessions": 1, "eeg_absolute": [], "eeg_relative": [], "vehicle": [row],
              "denoise_table": {}}
    out = tmp_path / "r"
    with pytest.raises(ValueError):
        cli.write_report_files(report, out)
    assert not (out / "report.json").exists()


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


@pytest.mark.parametrize("command", ["analyze", "features", "synth"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, command):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    if command == "synth":
        spec_path = tmp_path / "spec.json"
        spec_path.write_text('{"n_intervals": 2}')
        argv = ["synth", "--spec", str(spec_path)]
    else:
        argv = [command, "--manifest",
                str(_write_cohort(tmp_path, [(SynthSpec(n_intervals=10), 7)]))]
    assert cli.main(argv + ["--out", str(taken)]) == 2
    assert f"error: cannot write {taken}" in capsys.readouterr().err
    assert taken.read_text() == "keep\n"


def test_features_command(tmp_path):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=4), 21)])
    out = tmp_path / "features"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 0
    eeg_csv = (out / "synth-21_eeg_features.csv").read_text().splitlines()
    assert eeg_csv[0].startswith("interval,state,TP9_delta_abs,TP9_delta_rel")
    assert len(eeg_csv) == 5
    veh_csv = (out / "synth-21_vehicle_features.csv").read_text().splitlines()
    assert veh_csv[0] == "interval,state," + ",".join(VEHICLE_SERIES)


def _read_feature_csv(path, session_id):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return FeatureMatrix.from_rows(
        lines[0].split(",")[2:],
        ((int(r[0]), BinaryState(r[1]), [float(v) for v in r[2:]]) for r in rows),
        session_id=session_id)


def test_features_csvs_reproduce_analyze_rows(tmp_path):
    # 12 alert vs 12 drowsy epochs: the normal-approximation path
    spec = dataclasses.replace(EFFECT_SPEC, n_intervals=6)
    manifest = _write_cohort(tmp_path, [(spec, seed) for seed in (41, 42, 43, 44)])
    report_dir, features_dir = tmp_path / "report", tmp_path / "features"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(report_dir)]) == 0
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(features_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    ids = [entry.session_id for entry in ingest.load_manifest(manifest)]

    def stacked(kind):
        return FeatureMatrix.concat([_read_feature_csv(features_dir / f"{sid}_{kind}_features.csv",
                                                       sid) for sid in ids])

    def rows(matrix):
        return json.loads(json.dumps([row.to_json_dict()
                                      for row in stats.separation_report(matrix)]))

    eeg = stacked("eeg")
    for key, suffix in (("eeg_absolute", "_abs"), ("eeg_relative", "_rel")):
        assert rows(eeg.select([n for n in eeg.feature_names if n.endswith(suffix)])) == report[key]
    assert rows(stacked("vehicle")) == report["vehicle"]
    assert len(eeg) == report["denoise_table"]["post_total"] == 24


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


def test_param_dict_is_the_reference_method():
    params = cli.RunConfig().to_param_dict()
    expected = {
        "hp_cutoff_hz": 0.1,
        "hp_transition_hz": 0.2,
        "lp_cutoff_hz": 40.0,
        "lp_transition_hz": 4.0,
        "amplitude_threshold_uv": 70.0,
        "max_outlier_fraction": 0.3,
        "nfft": 1024,
        "alpha": 0.05,
        "abs_mean": False,
        "per_channel_outliers": False,
    }
    assert list(params.items()) == list(expected.items())
    assert [type(v) for v in params.values()] == [type(v) for v in expected.values()]


def test_config_digest_changes_with_every_parameter():
    base = cli.RunConfig()
    changed = {"alpha": 0.01, "abs_mean": True, "per_channel_outliers": True}
    assert list(changed) == [f.name for f in dataclasses.fields(cli.RunConfig)]
    for name, value in changed.items():
        assert cli.RunConfig(**{name: value}).digest() != base.digest(), name


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan")])
def test_run_config_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        cli.RunConfig(alpha=alpha)


@pytest.mark.parametrize("module, name, value", [
    (vehicle, "MIN_COVERAGE", 0.6),
    (stats, "EXACT_PATH_MAX_MIN_N", 9),
    (spectral, "BANDS", spectral.BANDS[:-1] + (spectral.Band("gamma", 30.0, 45.0),)),
    (cli, "__version__", "0.0.0"),  # the package version, as imported by cli
    # the fixed method values, which fill the rest of the config section
    (preprocess, "HP_CUTOFF_HZ", 0.2),
    (preprocess, "HP_TRANSITION_HZ", 0.4),
    (preprocess, "LP_CUTOFF_HZ", 45.0),
    (preprocess, "LP_TRANSITION_HZ", 5.0),
    (preprocess, "DEFAULT_AMPLITUDE_THRESHOLD_UV", 80.0),
    (preprocess, "DEFAULT_MAX_OUTLIER_FRACTION", 0.25),
    (spectral, "DEFAULT_NFFT", 512),
])
def test_config_digest_changes_with_result_constants(monkeypatch, module, name, value):
    base = cli.RunConfig().digest()
    monkeypatch.setattr(module, name, value)
    assert cli.RunConfig().digest() != base


@pytest.fixture(scope="module")
def one_session_files(tmp_path_factory):
    manifest = _write_cohort(tmp_path_factory.mktemp("one"), [(SynthSpec(n_intervals=4), 7)])
    return ingest.load_manifest(manifest)[0]


@pytest.mark.parametrize("command", ["validate", "analyze", "features"])
@pytest.mark.parametrize("sid", ["../x", "a/b", "a\\b", ".", ".."])
def test_path_like_session_id_exits_2(tmp_path, capsys, one_session_files, command, sid):
    # without the check, ``features`` writes <out>/../x_eeg_features.csv, outside --out
    entry = one_session_files
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("session_id,eeg_path,telemetry_path,labels_path\n"
                        f"{sid},{entry.eeg_path},{entry.telemetry_path},{entry.labels_path}\n")
    argv = [command, "--manifest", str(manifest)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "not a plain name" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["manifest.csv"]


def test_analyze_empty_manifest_exits_1(tmp_path, capsys):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("session_id,eeg_path,telemetry_path,labels_path\n")
    code = cli.main(["analyze", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r")])
    assert code == 1
    assert "cohort is empty" in capsys.readouterr().err
