import ast
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drowsekit import cli, ingest, pipeline, preprocess, session, spectral, stats
from drowsekit.errors import NonFinitePower
from drowsekit.features import FeatureMatrix
from drowsekit.session import EEG_CHANNELS, VEHICLE_SERIES
from drowsekit.synthgen import SynthSpec, generate_session


def _write_cohort(tmp_path, specs_and_seeds, subdir="cohort"):
    """Generate sessions and lay them out as an on-disk cohort."""
    return _write_sessions(tmp_path / subdir,
                           [generate_session(spec, seed) for spec, seed in specs_and_seeds])


def _write_sessions(root, sessions):
    """Lay ``sessions`` out as an on-disk cohort under ``root``; returns its manifest."""
    root.mkdir()
    entries = []
    for session in sessions:
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
    # integers no float holds, through validate and through a section
    pytest.param('{"noise_floor_uv": 1%s}' % ("0" * 400), id="noise_floor_uv-401-digits"),
    pytest.param('{"band_amplitudes_uv": {"theta": 1%s}}' % ("0" * 400),
                 id="band_amplitudes_uv-401-digits"),
    pytest.param('{"telemetry_baseline": {"torque": -1%s}}' % ("0" * 400),
                 id="telemetry_baseline-401-digits"),
    # past Python's digit limit for parsing an int
    pytest.param('{"outlier_rate": 1%s}' % ("0" * 5000), id="outlier_rate-5001-digits"),
    '{"noise_floor_uv": true}',
    # a flag that is not a JSON boolean
    '{"include_telemetry": "no"}',
    '{"include_telemetry": 0}',
    '{"include_telemetry": null}',
])
def test_synth_rejects_unusable_spec(tmp_path, capsys, spec_text):
    # unchecked, each of these would write a session that validate rejects, or crash
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec_text)
    out = tmp_path / "o"
    assert cli.main(["synth", "--out", str(out), "--spec", str(spec_path)]) == 2
    assert "invalid synth spec" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_intervals", ["1" + "0" * 400, str(10**9)],
                         ids=["401-digits", "1e9"])
def test_synth_rejects_overlong_session_before_generating(tmp_path, capsys, monkeypatch,
                                                          n_intervals):
    # unchecked, these overflow or ask for far more memory than a machine has
    def must_not_run(spec, seed):
        raise AssertionError("generate_session ran on a spec past the interval cap")

    monkeypatch.setattr(cli, "generate_session", must_not_run)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"n_intervals": %s}' % n_intervals)
    out = tmp_path / "o"
    assert cli.main(["synth", "--out", str(out), "--spec", str(spec_path)]) == 2
    assert "n_intervals must be at most 2880" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "-" + "9" * 30])
def test_synth_rejects_negative_seed_before_generating(tmp_path, capsys, monkeypatch, seed):
    # unchecked, np.random.default_rng dies with a ValueError traceback
    def must_not_run(spec, seed):
        raise AssertionError("generate_session ran on a negative seed")

    monkeypatch.setattr(cli, "generate_session", must_not_run)
    out = tmp_path / "o"
    assert cli.main(["synth", "--out", str(out), "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "--seed must be non-negative" in err
    assert not out.exists()


def test_validate_missing_manifest_exits_2(tmp_path):
    assert cli.main(["validate", "--manifest", str(tmp_path / "nope.csv")]) == 2


def _break_eeg_file(manifest, session_id):
    eeg_path = manifest.parent / session_id / "eeg.csv"
    text = eeg_path.read_text().splitlines()
    text[3] = text[3].replace(",", ",oops", 1)
    eeg_path.write_text("\n".join(text) + "\n")


def test_validate_flags_malformed_file(tmp_path, capsys):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), 1)])
    _break_eeg_file(manifest, "synth-1")
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


def _retime_eeg_to_128_hz(manifest, session_id):
    """Rewrite a session's EEG with the same samples and a ``t`` column
    stepping by 1/128 s."""
    eeg_path = manifest.parent / session_id / "eeg.csv"
    recording = ingest.load_eeg_csv(eeg_path)
    ingest.write_eeg_csv(dataclasses.replace(recording, sample_rate_hz=128.0), eeg_path)


def test_validate_flags_eeg_sampled_at_128_hz(tmp_path, capsys):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), 1)])
    _retime_eeg_to_128_hz(manifest, "synth-1")
    assert cli.main(["validate", "--manifest", str(manifest)]) == 1
    assert "synth-1: WrongSampleRate: EEG sample rate 128.0 Hz" in capsys.readouterr().out
    out = tmp_path / "report"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert not out.exists()
    # features validates each session too, before it writes that session's files
    out = tmp_path / "features"
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert ("error: feature extraction failed (ValueError): session synth-1 is invalid: "
            "WrongSampleRate") in capsys.readouterr().err
    assert not (out / "synth-1_eeg_features.csv").exists()


@pytest.mark.parametrize("command", ["analyze", "features"])
def test_unloadable_last_session_exits_2(tmp_path, capsys, command):
    # the sessions are loaded one at a time, so the first two are processed
    # before the third turns out to be malformed
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), seed) for seed in (1, 2, 3)])
    _break_eeg_file(manifest, "synth-3")
    out = tmp_path / "out"
    assert cli.main([command, "--manifest", str(manifest), "--out", str(out)]) == 2
    assert f"error: cannot load cohort from {manifest}: " in capsys.readouterr().err
    if command == "analyze":
        assert not (out / "report.json").exists()
    else:
        # each session's files are written before the next session is loaded
        assert sorted(p.name for p in out.iterdir()) == [
            f"synth-{k}_{kind}_features.csv" for k in (1, 2) for kind in ("eeg", "vehicle")]


@pytest.mark.parametrize("command", ["analyze", "features"])
def test_load_failure_names_the_session(tmp_path, capsys, command):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), seed) for seed in (1, 2)])
    _break_eeg_file(manifest, "synth-2")
    assert cli.main([command, "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot load cohort from {manifest}: session synth-2: EEG CSV: "
        "non-numeric value in row ")


@pytest.mark.parametrize("command", ["analyze", "features"])
def test_first_failing_session_decides_exit_code(tmp_path, capsys, command):
    # an invalid first session stops the run before the malformed third one is read
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=2), seed) for seed in (1, 2, 3)])
    _retime_eeg_to_128_hz(manifest, "synth-1")
    _break_eeg_file(manifest, "synth-3")
    assert cli.main([command, "--manifest", str(manifest), "--out", str(tmp_path / "o")]) == 1
    assert "session synth-1 is invalid: WrongSampleRate" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _shift_clock(manifest, session_id, kinds, start_s):
    """Rewrite a session's EEG and/or telemetry with the same samples on a
    clock that starts at ``start_s``."""
    for kind in kinds:
        path = manifest.parent / session_id / f"{kind}.csv"
        load, write = {"eeg": (ingest.load_eeg_csv, ingest.write_eeg_csv),
                       "telemetry": (ingest.load_telemetry_csv, ingest.write_telemetry_csv)}[kind]
        write(dataclasses.replace(load(path), start_time_s=start_s), path)


@pytest.mark.parametrize("kinds, codes", [
    (("eeg", "telemetry"), ["CoverageMismatch", "TelemetryCoverageMismatch"]),
    (("telemetry",), ["TelemetryCoverageMismatch"]),
], ids=["eeg-and-telemetry", "telemetry-only"])
def test_recording_clock_off_the_label_grid_is_invalid(tmp_path, capsys, kinds, codes):
    # the third session's t columns start at 1000 s, past its 8 label intervals
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=8), seed) for seed in (1, 2, 3)])
    _shift_clock(manifest, "synth-3", kinds, 1000.0)
    assert cli.main(["validate", "--manifest", str(manifest)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["synth-1: OK", "synth-2: OK"]
    assert [line.split(": ")[:2] for line in lines[2:]] == [["synth-3", c] for c in codes]
    assert "8 of 8 label intervals lie outside" in lines[2]
    out = tmp_path / "report"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert f"session synth-3 is invalid: {codes[0]}: " in capsys.readouterr().err
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
    # a NaN passes the artifact rule and the degeneracy check; the feature
    # step names it before the statistics could report a false "significant"
    session = generate_session(SynthSpec(n_intervals=10, drowsy_fraction=0.5), 11)
    channels = session.eeg.channels.copy()
    channels[0, 1000] = np.nan
    session = dataclasses.replace(
        session, eeg=dataclasses.replace(session.eeg, channels=channels))
    with pytest.raises(NonFinitePower, match=f"^session {session.id}: channel TP9 of epoch 0 "):
        pipeline.analyze_cohort([session], pipeline.RunConfig(), cohort_id="nan")


def test_analyze_cohort_drops_a_nan_epoch_per_channel():
    # the filter spreads the NaN over its channel of the epoch, every sample
    # of which then counts as an outlier: 100% on that channel
    session = generate_session(SynthSpec(n_intervals=10, drowsy_fraction=0.5), 11)
    channels = session.eeg.channels.copy()
    channels[0, 1000] = np.nan
    session = dataclasses.replace(
        session, eeg=dataclasses.replace(session.eeg, channels=channels))
    report = pipeline.analyze_cohort([session], pipeline.RunConfig(per_channel_outliers=True),
                                     cohort_id="nan")
    table = report["denoise_table"]
    assert (table["pre_total"], table["post_total"]) == (10, 9)


def _session_with_sample(magnitude, n_intervals):
    """A synthetic session with one AF7 sample of ``magnitude`` uV in epoch 3."""
    session = generate_session(SynthSpec(n_intervals=n_intervals, drowsy_fraction=0.5), 3)
    channels = session.eeg.channels.copy()
    channels[1, 3 * preprocess.EPOCH_SAMPLES + 1000] = magnitude
    return dataclasses.replace(session, eeg=dataclasses.replace(session.eeg, channels=channels))


def _run_commands(session, work, flags=()):
    """Write ``session`` under ``work``, then run validate, analyze and
    features on it in a fresh interpreter that shows every warning; returns
    the three exit codes and the stderr lines."""
    work.mkdir()
    eeg, labels = work / "eeg.csv", work / "labels.csv"
    ingest.write_eeg_csv(session.eeg, eeg)
    ingest.write_ord_csv(session.labels, labels)
    manifest = work / "manifest.csv"
    ingest.write_manifest([ingest.SessionManifest(session_id="s", eeg_path=eeg,
                                                  telemetry_path=None, labels_path=labels)],
                          manifest, relative_to=work)
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    script = textwrap.dedent("""\
        import sys
        from drowsekit import cli
        manifest, out, *flags = sys.argv[1:]
        codes = [cli.main(["validate", "--manifest", manifest])]
        for command in ("analyze", "features"):
            codes.append(cli.main([command, "--manifest", manifest, "--out", out, *flags]))
        print(codes)
        """)
    result = subprocess.run([sys.executable, "-W", "default", "-c", script, str(manifest),
                             str(work / "out"), *flags],
                            capture_output=True, text=True, env=env, timeout=120)
    return result.stdout.splitlines()[-1], result.stderr.splitlines()


def test_overflowing_eeg_sample_exits_1_naming_its_epoch(tmp_path):
    # one 1e160 uV sample passes validate and the artifact rule; its Welch
    # power overflows, which must end analyze and features with a named
    # error and no numpy warning on stderr
    codes, stderr = _run_commands(_session_with_sample(1e160, n_intervals=8), tmp_path / "s")
    assert codes == "[0, 1, 1]"
    message = ("(NonFinitePower): session s: channel AF7 of epoch 3 has a non-finite band "
               "or total power")
    assert stderr == [
        f"error: analysis failed {message} (total nan)",
        f"error: feature extraction failed {message} (total nan)",
    ]


def test_eeg_sample_that_overflows_the_filter_exits_1_without_a_warning(tmp_path):
    # a 1.7e308 uV sample overflows the filter's own FFTs, which turns its
    # channel of the epoch into inf and NaN: every sample of it counts as an
    # outlier, so the pooled rule keeps the epoch (25%) and its power is not
    # finite, while the per-channel rule drops it (100%)
    session = _session_with_sample(1.7e308, n_intervals=10)
    codes, stderr = _run_commands(session, tmp_path / "pooled")
    assert codes == "[0, 1, 1]"
    message = ("(NonFinitePower): session s: channel AF7 of epoch 3 has a non-finite band "
               "or total power")
    assert stderr == [
        f"error: analysis failed {message} (total nan)",
        f"error: feature extraction failed {message} (total nan)",
    ]

    codes, stderr = _run_commands(session, tmp_path / "per-channel", ["--per-channel-outliers"])
    assert (codes, stderr) == ("[0, 0, 0]", [])
    report = json.loads((tmp_path / "per-channel" / "out" / "report.json").read_text())
    assert (report["denoise_table"]["pre_total"], report["denoise_table"]["post_total"]) == (10, 9)
    spectra = preprocess.filter_epoch(session.eeg, preprocess.epoch_signal(session.eeg,
                                                                          session.labels))
    assert [a.tolist() for a in preprocess.denoise_epochs(spectra, per_channel=True).dropped] \
        == [[3], [1.0]]


# The cohort-level errors with which analyze or features may end a cohort
# that validate accepts: a flat channel (DegeneratePower), a spike whose power
# or interval mean overflows (NonFinitePower, NonFiniteSample), and too few
# kept epochs of a state (the other two, analyze only).
COHORT_ERRORS = ("DegeneratePower", "NonFinitePower", "NonFiniteSample", "NeedTwoGroups",
                 "TooFewSamples")

# What a session gets on top of its synthetic signal: nothing, a spike at
# (channel, interval, sample) whose decimal exponent is drawn evenly up to
# float64's largest, a flat channel at a constant, or artifacts in every
# epoch, so that the artifact rule drops them all.
_SPIKE_UV = st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(0.0, 308.0)).map(
    lambda se: se[0] * 10.0**se[1])
_PERTURBATION = st.one_of(
    st.none(),
    st.tuples(st.just("spike"), st.integers(0, 3), st.integers(0, 5),
              st.integers(0, preprocess.EPOCH_SAMPLES - 1), _SPIKE_UV),
    st.tuples(st.just("flat"), st.integers(0, 3), st.floats(-50.0, 50.0)),
    st.just(("drop",)),
)
# And on top of its telemetry: nothing, or 1 or 2 samples in a row of one
# series set to a spike of drawn magnitude, at (series, sample)
_TELEMETRY_SPIKE = st.one_of(
    st.none(),
    st.tuples(st.integers(0, 3), st.integers(0, 10**6), st.integers(1, 2), _SPIKE_UV),
)
# (n_intervals, n_drowsy, perturbation, telemetry spike); n_drowsy 0 or
# n_intervals is a single-state session
_PERTURBED_SESSION = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), _PERTURBATION, _TELEMETRY_SPIKE))


def _perturbed_session(n, n_drowsy, perturbation, telemetry_spike, seed):
    spec = SynthSpec(n_intervals=n, drowsy_fraction=n_drowsy / n,
                     outlier_rate=1.0 if perturbation == ("drop",) else 0.0)
    session = generate_session(spec, seed)
    channels = session.eeg.channels.copy()
    if perturbation is not None and perturbation[0] == "spike":
        _, channel, interval, sample, magnitude = perturbation
        channels[channel, (interval % n) * preprocess.EPOCH_SAMPLES + sample] = magnitude
    elif perturbation is not None and perturbation[0] == "flat":
        _, channel, level = perturbation
        channels[channel] = level
    series = session.telemetry.series.copy()
    if telemetry_spike is not None:
        row, sample, count, magnitude = telemetry_spike
        start = sample % (series.shape[1] - 1)
        series[row, start:start + count] = magnitude
    return dataclasses.replace(session, eeg=dataclasses.replace(session.eeg, channels=channels),
                               telemetry=dataclasses.replace(session.telemetry, series=series))


@settings(max_examples=12, deadline=None)
@given(shapes=st.lists(_PERTURBED_SESSION, min_size=1, max_size=3),
       seed=st.integers(0, 2**32 - 4), flags=st.sampled_from([[], ["--abs-mean"]]))
# a 1e100 uV spike that the artifact rule keeps: its band powers, near 1e194,
# overflow float64 when squared unless the normality gate scales them first
@example(shapes=[(4, 2, ("spike", 1, 2, 100, 1e100), None), (4, 2, None, None)], seed=1,
         flags=[])
# two steer_angle samples of 1.7e308 in one interval: their sum overflows
@example(shapes=[(6, 3, None, (0, 100, 2, 1.7e308)), (6, 3, None, None)], seed=1, flags=[])
def test_validate_accepting_a_cohort_means_analyze_treats_it_cleanly(shapes, seed, flags,
                                                                     tmp_path_factory):
    sessions = [_perturbed_session(*shape, seed + k) for k, shape in enumerate(shapes)]
    work = tmp_path_factory.mktemp("perturbed")
    manifest = _write_sessions(work / "cohort", sessions)
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        assert cli.main(["validate", "--manifest", str(manifest)]) == 0
        codes = [cli.main([command, "--manifest", str(manifest), "--out", str(work / command),
                           *flags])
                 for command in ("analyze", "features")]
    assert [str(w.message) for w in caught] == []
    assert "Warning" not in stderr.getvalue()
    errors = re.findall(r"^error: (analysis|feature extraction) failed \((\w+)\)",
                        stderr.getvalue(), re.MULTILINE)
    assert set(codes) <= {0, 1}
    assert [stage for stage, _ in errors] == [
        stage for stage, code in zip(("analysis", "feature extraction"), codes) if code]
    assert {error for _, error in errors} <= set(COHORT_ERRORS)


def test_flat_channel_passes_validate_and_ends_analyze_with_degenerate_power(tmp_path, capsys):
    session = _perturbed_session(4, 2, ("flat", 2, 30.0), None, seed=3)
    manifest = _write_sessions(tmp_path / "cohort", [session])
    assert cli.main(["validate", "--manifest", str(manifest)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: analysis failed (DegeneratePower): session {session.id}: "
        "channel AF8 of epoch 0 has degenerate total power")


def test_telemetry_overflow_names_its_session(tmp_path, capsys):
    # two steer_angle samples of 1.7e308 in the second session of a cohort
    sessions = [_perturbed_session(6, 3, None, None, seed=1),
                _perturbed_session(6, 3, None, (0, 100, 2, 1.7e308), seed=2)]
    manifest = _write_sessions(tmp_path / "cohort", sessions)
    for command, stage in (("analyze", "analysis"), ("features", "feature extraction")):
        assert cli.main([command, "--manifest", str(manifest),
                         "--out", str(tmp_path / command)]) == 1
        assert capsys.readouterr().err == (
            f"error: {stage} failed (NonFiniteSample): session {sessions[1].id}: "
            "series steer_angle of interval 0 has a non-finite mean (inf)\n")


@pytest.mark.parametrize("command", ["validate", "analyze", "features"])
def test_commands_release_each_session_before_loading_the_next(tmp_path, monkeypatch, command):
    manifest = _write_cohort(tmp_path, [(SynthSpec(n_intervals=4, drowsy_fraction=0.5), seed)
                                        for seed in (1, 2, 3)])
    load, refs, alive = ingest.load_session, [], []

    def recording(entry):
        # which earlier sessions some frame still holds as this one loads
        alive.append([ref() is not None for ref in refs])
        session = load(entry)
        refs.append(weakref.ref(session))
        return session

    monkeypatch.setattr(ingest, "load_session", recording)
    out = [] if command == "validate" else ["--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([command, "--manifest", str(manifest), *out]) == 0
    assert alive == [[], [False], [False, False]]


def test_write_report_files_rejects_nan(tmp_path):
    row = {"feature": "steer_angle", "n_alert": 4, "n_drowsy": 4, "ks_p_alert": None,
           "ks_p_drowsy": None, "statistic": 8.0, "p_value": float("nan"),
           "method": "ExactEnumeration", "significant": False}
    report = {"cohort": "c", "config_digest": "d", "config": pipeline.RunConfig().to_param_dict(),
              "n_sessions": 1, "eeg_absolute": [], "eeg_relative": [], "vehicle": [row],
              "denoise_table": {}}
    out = tmp_path / "r"
    with pytest.raises(ValueError):
        pipeline.write_report_files(report, out)
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


def _read_feature_csv(path):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    names = tuple(lines[0].split(",")[2:])
    assert {r[1] for r in rows} <= {"alert", "drowsy"}
    return FeatureMatrix(
        feature_names=names,
        values=np.array([[float(v) for v in r[2:]] for r in rows]).reshape(len(rows), len(names)),
        drowsy=np.array([r[1] == "drowsy" for r in rows], dtype=bool),
        interval_index=np.array([int(r[0]) for r in rows], dtype=np.int64))


def _check_features_csvs_reproduce_analyze_rows(tmp_path, manifest):
    """Stacked ``features`` CSVs passed to ``separation_report`` give the
    ``analyze`` rows of every section; returns the report."""
    report_dir, features_dir = tmp_path / "report", tmp_path / "features"
    assert cli.main(["analyze", "--manifest", str(manifest), "--out", str(report_dir)]) == 0
    assert cli.main(["features", "--manifest", str(manifest), "--out", str(features_dir)]) == 0
    report = json.loads((report_dir / "report.json").read_text())
    ids = [entry.session_id for entry in ingest.load_manifest(manifest)]

    def stacked(kind):
        return FeatureMatrix.concat([_read_feature_csv(features_dir / f"{sid}_{kind}_features.csv")
                                     for sid in ids])

    def rows(matrix):
        return json.loads(json.dumps(stats.separation_report(matrix)))

    eeg = stacked("eeg")
    for key, suffix in (("eeg_absolute", "_abs"), ("eeg_relative", "_rel")):
        assert rows(eeg.select([n for n in eeg.feature_names if n.endswith(suffix)])) == report[key]
    assert rows(stacked("vehicle")) == report["vehicle"]
    assert len(eeg) == report["denoise_table"]["post_total"]
    return report


def test_features_csvs_reproduce_analyze_rows(tmp_path):
    # 12 alert vs 12 drowsy epochs: the normal-approximation path
    spec = dataclasses.replace(EFFECT_SPEC, n_intervals=6)
    manifest = _write_cohort(tmp_path, [(spec, seed) for seed in (41, 42, 43, 44)])
    report = _check_features_csvs_reproduce_analyze_rows(tmp_path, manifest)
    assert report["denoise_table"]["post_total"] == 24


def test_features_csvs_reproduce_analyze_rows_on_the_exact_path(tmp_path):
    # 2 x 12 alert vs 2 x 4 drowsy epochs: every row is an exact rank-sum test
    spec = SynthSpec(n_intervals=16, drowsy_fraction=0.25)
    manifest = _write_cohort(tmp_path, [(spec, seed) for seed in (3, 4)])
    report = _check_features_csvs_reproduce_analyze_rows(tmp_path, manifest)
    rows = [row for key in ("eeg_absolute", "eeg_relative", "vehicle") for row in report[key]]
    assert len(rows) == 44
    assert {(row["n_alert"], row["n_drowsy"], row["method"]) for row in rows} == \
        {(24, 8, "ExactEnumeration")}


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
    assert pipeline.RunConfig().digest() == pipeline.RunConfig().digest()


def test_param_dict_is_the_reference_method():
    params = pipeline.RunConfig().to_param_dict()
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
    base = pipeline.RunConfig()
    changed = {"alpha": 0.01, "abs_mean": True, "per_channel_outliers": True}
    assert list(changed) == [f.name for f in dataclasses.fields(pipeline.RunConfig)]
    for name, value in changed.items():
        assert pipeline.RunConfig(**{name: value}).digest() != base.digest(), name


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, float("nan")])
def test_run_config_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        pipeline.RunConfig(alpha=alpha)


@pytest.mark.parametrize("module, name, value", [
    (session, "MIN_COVERAGE", 0.6),
    (stats, "EXACT_PATH_MAX_MIN_N", 9),
    (spectral, "BANDS", spectral.BANDS[:-1] + (spectral.Band("gamma", 30.0, 45.0),)),
    (pipeline, "__version__", "0.0.0"),  # the package version, as imported by pipeline
    (np, "__version__", "0.0.0"),
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
    base = pipeline.RunConfig().digest()
    monkeypatch.setattr(module, name, value)
    assert pipeline.RunConfig().digest() != base


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


@pytest.mark.parametrize("command", ["validate", "analyze", "features"])
def test_empty_manifest_exits_2(tmp_path, capsys, command):
    # a header and no session rows is a bad manifest to every command
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("session_id,eeg_path,telemetry_path,labels_path\n\n")
    argv = [command, "--manifest", str(manifest)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "manifest: no session rows" in captured.err
    assert [p.name for p in tmp_path.rglob("*")] == ["manifest.csv"]


@pytest.mark.parametrize("command", ["validate", "analyze", "features"])
def test_files_listed_under_two_session_ids_exit_2(tmp_path, capsys, one_session_files, command):
    # without the check, analyze pools the one session twice
    entry = one_session_files
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("session_id,eeg_path,telemetry_path,labels_path\n" + "".join(
        f"{sid},{entry.eeg_path},{entry.telemetry_path},{entry.labels_path}\n"
        for sid in ("a", "b")))
    argv = [command, "--manifest", str(manifest)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"row 2 repeats file '{entry.eeg_path.resolve()}' from row 1" in captured.err
    assert [p.name for p in tmp_path.rglob("*")] == ["manifest.csv"]


def test_cli_commands_load_no_scipy(tmp_path):
    # start-up cost: every command runs on numpy alone
    src = Path(cli.__file__).resolve().parents[1]
    (tmp_path / "spec.json").write_text('{"n_intervals": 8}')
    code = textwrap.dedent("""\
        import json, sys
        from drowsekit import cli

        def loaded():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        out = sys.argv[1]
        stages = {"import": loaded()}
        manifest = out + "/s/manifest.csv"
        for command in (["synth", "--out", out + "/s", "--spec", out + "/spec.json"],
                        ["validate", "--manifest", manifest],
                        ["analyze", "--manifest", manifest, "--out", out + "/r"],
                        ["features", "--manifest", manifest, "--out", out + "/f"]):
            assert cli.main(command) == 0, command
            stages[command[0]] = loaded()
        print(json.dumps(stages))
        """)
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                            text=True, env=env, check=True, timeout=120)
    stages = json.loads(result.stdout.splitlines()[-1])
    assert stages == dict.fromkeys(["import", "synth", "validate", "analyze", "features"], [])


def test_package_import_loads_no_pipeline_stage():
    # the package root exports the generator, which takes its constants from
    # session, so importing drowsekit builds no filter kernel
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sys, drowsekit; print('drowsekit.preprocess' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)}, check=True, timeout=120)
    assert result.stdout.strip() == "False"


def test_no_import_inside_a_function():
    # a function-level import can hide an import cycle between modules
    nested = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                nested += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                           if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert nested == []


def test_no_object_arrays():
    # labels and indices stay numpy bool and int64 arrays, never Python objects
    found = [f"{path.name}:{n}" for path in sorted(Path(cli.__file__).parent.glob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if "dtype=object" in line]
    assert found == []
