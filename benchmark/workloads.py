"""The benchmark's workloads: set-up, the timed operation, and its checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``prepare`` builds the inputs from the
workload seed (the program sees only those inputs), ``op`` is the timed
operation, and ``check`` returns the problems found in its output, mechanism
guards included.  ``check`` receives the traced run's per-layer values, or
None for an untraced operation.  Functions are looked up on their modules at
call time so that the tracer's patches apply.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from drowsekit import cli, ingest, synthgen
from drowsekit.session import EEG_CHANNELS
from drowsekit.stats import EXACT_PATH_MAX_MIN_N
from drowsekit.synthgen import SynthSpec

CONFIG = cli.RunConfig()

# The drowsy effect of acceptance criterion 6.
EFFECT_SPEC = dict(
    drowsy_band_multipliers={"delta": 1.0, "theta": 1.5, "alpha": 1.0,
                             "beta": 1.8, "gamma": 2.0},
    telemetry_noise=25.0,
    drowsy_telemetry_shift={"steer_angle": 1.0, "steer_speed": 0.0,
                            "lane_deviation": 0.25, "torque": 0.8},
)
BOOSTED_BANDS = ("theta", "beta", "gamma")

# 20 absolute + 20 relative EEG features + 4 vehicle features.
REPORT_ROWS = 44


def session_seed(seed: int, k: int) -> int:
    return seed * 100 + k


def write_session(session, directory: Path) -> ingest.SessionManifest:
    """Write one session's CSV files the way ``drowsekit synth`` does."""
    directory.mkdir(parents=True, exist_ok=True)
    eeg = directory / "eeg.csv"
    labels = directory / "labels.csv"
    ingest.write_eeg_csv(session.eeg, eeg)
    ingest.write_ord_csv(session.labels, labels)
    telemetry = None
    if session.telemetry is not None:
        telemetry = directory / "telemetry.csv"
        ingest.write_telemetry_csv(session.telemetry, telemetry)
    return ingest.SessionManifest(session_id=session.id, eeg_path=eeg,
                                  labels_path=labels, telemetry_path=telemetry)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def round_trip_problems(session, manifest: Path) -> list[str]:
    """Reload a written session and compare every array bit for bit."""
    entries = ingest.load_manifest(manifest)
    if [e.session_id for e in entries] != [session.id]:
        return [f"manifest lists {[e.session_id for e in entries]}, wrote {session.id}"]
    loaded = ingest.load_session(entries[0])
    problems = []
    for name, a, b in zip(EEG_CHANNELS, session.eeg.channels, loaded.eeg.channels):
        if not _same_bits(a, b):
            problems.append(f"EEG channel {name} changed in the round trip")
    if loaded.labels.intervals != session.labels.intervals:
        problems.append("labels changed in the round trip")
    if (loaded.telemetry is None) != (session.telemetry is None):
        problems.append("telemetry presence changed in the round trip")
    elif session.telemetry is not None:
        for k, (a, b) in enumerate(zip(session.telemetry.series, loaded.telemetry.series)):
            if not _same_bits(a, b):
                problems.append(f"telemetry series {k} changed in the round trip")
    return problems


class SynthWrite:
    """``drowsekit synth`` for a 5-interval session: generate, then write.

    Both steps are linear in the session length.  On the 2-vCPU machine the
    benchmark was written on, a run held only 2-3 40-interval sessions (3-6 s
    each) and its median moved by 24% between seeds; with 10-interval
    sessions it still moved by 9%.
    """

    name = "synth_write"
    hot = ("synthgen.generate_session", "ingest.write")
    spec = SynthSpec(n_intervals=5)

    def prepare(self, seed: int, work: Path):
        return SimpleNamespace(seed=seed, dir=work / "synth", reference=None)

    def op(self, inputs):
        session = synthgen.generate_session(self.spec, inputs.seed)
        entry = write_session(session, inputs.dir)
        ingest.write_manifest([entry], inputs.dir / "manifest.csv", relative_to=inputs.dir)
        return session

    def check(self, inputs, session, layers) -> list[str]:
        # Every operation writes the same session: the first is reloaded and
        # compared bit for bit, the others must have written the same bytes.
        written = {p.name: p.read_bytes() for p in sorted(inputs.dir.iterdir())}
        if inputs.reference is None:
            inputs.reference = written
            return round_trip_problems(session, inputs.dir / "manifest.csv")
        if written != inputs.reference:
            return ["written files differ from the first operation's"]
        return []


class _Analyze:
    """Shared output check: report.json must be byte-identical on every rerun."""

    def check(self, inputs, out, layers) -> list[str]:
        data = (inputs.out / "report.json").read_bytes()
        problems = []
        if inputs.reference is None:
            inputs.reference = data
        elif data != inputs.reference:
            problems.append("report.json differs from the first run of this seed")
        report = json.loads(data)
        rows = report["eeg_absolute"] + report["eeg_relative"] + report["vehicle"]
        if len(rows) != REPORT_ROWS:
            problems.append(f"report has {len(rows)} rows, expected {REPORT_ROWS}")
        return problems + self.guard(inputs, report, rows, layers)

    def guard(self, inputs, report, rows, layers) -> list[str]:
        raise NotImplementedError


def _balanced_guard(rows, layers) -> list[str]:
    exact = sum(r["method"] == "ExactEnumeration" for r in rows)
    if exact or (layers is not None and layers["stats.exact_rows"]):
        return [f"balanced cohort took the exact rank-sum path on {exact} row(s)"]
    return []


def _in_memory_cohort(spec: SynthSpec, n_sessions: int, seed: int, work: Path):
    sessions = [synthgen.generate_session(spec, session_seed(seed, k))
                for k in range(n_sessions)]
    return SimpleNamespace(sessions=sessions, cohort_id=f"bench-{seed}",
                           out=work / "report", reference=None)


def _analyze_in_memory(inputs):
    report = cli.analyze_cohort(inputs.sessions, CONFIG, cohort_id=inputs.cohort_id)
    cli.write_report_files(report, inputs.out)


class AnalyzeDisk(_Analyze):
    """``drowsekit analyze`` on a balanced on-disk cohort written in set-up."""

    name = "analyze_disk"
    hot = ("ingest.load",)
    spec = SynthSpec(n_intervals=10, drowsy_fraction=0.5)
    n_sessions = 2

    def prepare(self, seed: int, work: Path):
        cohort = work / "cohort"
        entries = [write_session(synthgen.generate_session(self.spec, session_seed(seed, k)),
                                 cohort / f"session{k}")
                   for k in range(self.n_sessions)]
        manifest = cohort / "manifest.csv"
        ingest.write_manifest(entries, manifest, relative_to=cohort)
        written = sum(p.stat().st_size for p in cohort.rglob("*.csv"))
        return SimpleNamespace(manifest=manifest, written_bytes=written,
                               out=work / "report", reference=None)

    def op(self, inputs):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["analyze", "--manifest", str(inputs.manifest),
                             "--out", str(inputs.out)])
        if code != 0:
            raise RuntimeError(f"drowsekit analyze exited with code {code}")

    def guard(self, inputs, report, rows, layers) -> list[str]:
        problems = _balanced_guard(rows, layers)
        intervals = self.n_sessions * self.spec.n_intervals
        vehicle = report["vehicle"][0]
        if (report["denoise_table"]["pre_total"] != intervals
                or vehicle["n_alert"] + vehicle["n_drowsy"] != intervals):
            problems.append(f"the report does not cover all {intervals} written intervals")
        if layers is not None and layers["ingest.load.bytes"] != inputs.written_bytes:
            problems.append(f"loaded {layers['ingest.load.bytes']} bytes, "
                            f"set-up wrote {inputs.written_bytes}")
        return problems


class AnalyzeMemory(_Analyze):
    """Library ``analyze_cohort`` on balanced in-memory sessions with a drowsy effect."""

    name = "analyze_memory"
    hot = ("preprocess.epoch_signal", "preprocess.filter_epoch",
           "preprocess.denoise_epochs", "spectral.extract_features")
    spec = SynthSpec(n_intervals=10, drowsy_fraction=0.5, **EFFECT_SPEC)
    n_sessions = 4

    def prepare(self, seed: int, work: Path):
        return _in_memory_cohort(self.spec, self.n_sessions, seed, work)

    def op(self, inputs):
        _analyze_in_memory(inputs)

    def guard(self, inputs, report, rows, layers) -> list[str]:
        problems = _balanced_guard(rows, layers)
        significant = {r["feature"]: r["significant"] for r in report["eeg_absolute"]}
        missed = [f"{ch}_{band}_abs" for ch in EEG_CHANNELS for band in BOOSTED_BANDS
                  if not significant[f"{ch}_{band}_abs"]]
        if missed:
            problems.append(f"boosted bands not significant: {', '.join(missed)}")
        return problems


class AnalyzeExact(_Analyze):
    """Library ``analyze_cohort`` where every row takes the exact rank-sum path.

    With 4 drowsy of 16 intervals per session, the pooled groups are 24 alert
    vs 8 drowsy for every feature, EEG and vehicle alike.  ``separation_report``
    passes the alert group first, so the exact dynamic program runs over the
    large group; its cost grows steeply with the alert count.
    """

    name = "analyze_exact"
    hot = ("stats.rank_sum_test",)
    spec = SynthSpec(n_intervals=16, drowsy_fraction=0.25)
    n_sessions = 2

    def prepare(self, seed: int, work: Path):
        return _in_memory_cohort(self.spec, self.n_sessions, seed, work)

    def op(self, inputs):
        _analyze_in_memory(inputs)

    def guard(self, inputs, report, rows, layers) -> list[str]:
        off = [r["feature"] for r in rows
               if r["method"] != "ExactEnumeration"
               or not r["n_drowsy"] <= EXACT_PATH_MAX_MIN_N < r["n_alert"]]
        if off or (layers is not None and layers["stats.exact_rows"] != REPORT_ROWS):
            return [f"rows off the exact path or its orientation: {', '.join(off) or 'traced count'}"]
        return []


WORKLOADS = {w.name: w for w in (SynthWrite, AnalyzeDisk, AnalyzeMemory, AnalyzeExact)}
