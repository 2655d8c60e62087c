"""Print a sha256 digest of every file that analyze and features write,
and of what validate prints.

Writes the benchmark's cohort shapes, plus one cohort in which the artifact
rule drops every epoch of one session, one of sessions with 1, 3, 5 and 7
epochs (odd block sizes, so a slip at a boundary of the filter's and the
Welch PSD's per-thread chunks shows) and one whose recordings each leave
their last interval uncovered, at seeds 1 and 4242 through the ``ingest``
writers, and two cohorts that ``validate`` rejects: one with a
250 Hz EEG and one whose telemetry clock starts at 1000 s. ``validate`` runs
on every cohort, and its stdout and exit code go to ``validate.txt`` in the
cohort's directory; ``analyze`` and ``features`` run on each valid cohort
with the default flags and with ``--abs-mean --per-channel-outliers``, into
``<command>-<label>`` there (``label`` is ``default`` or ``flags``); each
``report.json`` lists what happened to every session, the "partial"
cohort's skipped intervals included. The tool prints ``sha256  path`` for
every file written, inputs included, with paths relative to a temporary
directory, after two lines naming the Python and numpy versions: numpy's
FFT and ``exp`` set the last bits of the outputs. Two trees write the same
bytes when their outputs are equal, and the committed listing
``tests/data/output_digest.txt`` is made so:

    PYTHONPATH=src python tools/output_digest.py > tests/data/output_digest.txt

``--check FILE`` compares the versions and the full listing with a file made
so, prints only the lines that differ (``-`` for the file's, ``+`` for this
run's) and exits 1 when any do:

    PYTHONPATH=src python tools/output_digest.py --check tests/data/output_digest.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import numpy as np  # noqa: E402
from workloads import WORKLOADS, session_seed, write_session  # noqa: E402

from drowsekit import cli, ingest, synthgen  # noqa: E402

SEEDS = (1, 4242)
FLAG_SETS = {"default": [], "flags": ["--abs-mean", "--per-channel-outliers"]}


def _eeg_at_250_hz(session):
    return replace(session, eeg=replace(session.eeg, sample_rate_hz=250.0))


def _cut_last_interval(session):
    """Cut the EEG by its last half interval and the telemetry by its last
    20 s, which leaves 10 s of its last interval, under half."""
    eeg, telemetry = session.eeg, session.telemetry
    return replace(
        session,
        eeg=replace(eeg, channels=eeg.channels[:, :eeg.n_samples - int(15 * eeg.sample_rate_hz)]),
        telemetry=replace(telemetry, series=telemetry.series[
            :, :telemetry.n_samples - int(20 * telemetry.sample_rate_hz)]))


def _telemetry_from_1000_s(session):
    return replace(session, telemetry=replace(session.telemetry, start_time_s=1000.0))


# (cohort name, [(spec, session count, edit), ...]); ``edit``, when given,
# changes each such session before it is written. "drops" adds a session to
# the analyze_memory shape whose every epoch the artifact rule drops; "odd"
# has one session of each odd epoch count up to 7, a single epoch included;
# in "partial", which validate accepts, analyze and features skip the last
# interval of each session on the EEG path and on the telemetry path.
_MEMORY = WORKLOADS["analyze_memory"]
COHORTS = [(name, [(w.spec, w.n_sessions, None)])
           for name, w in WORKLOADS.items() if hasattr(w, "n_sessions")]
COHORTS.append(("drops", [(_MEMORY.spec, _MEMORY.n_sessions, None),
                          (replace(_MEMORY.spec, n_intervals=12, outlier_rate=1.0), 1, None)]))
COHORTS.append(("odd", [(replace(_MEMORY.spec, n_intervals=n), 1, None) for n in (1, 3, 5, 7)]))
COHORTS.append(("partial", [(_MEMORY.spec, _MEMORY.n_sessions, _cut_last_interval)]))
# Cohorts that validate rejects (WrongSampleRate, TelemetryCoverageMismatch).
REJECTED = [("eeg-250hz", [(_MEMORY.spec, 1, None), (_MEMORY.spec, 1, _eeg_at_250_hz)]),
            ("telemetry-at-1000s", [(_MEMORY.spec, 1, _telemetry_from_1000_s)])]


def write_cohort(shape, seed: int, cohort: Path) -> Path:
    entries = []
    for spec, n_sessions, edit in shape:
        for _ in range(n_sessions):
            k = len(entries)
            session = synthgen.generate_session(spec, session_seed(seed, k))
            if edit is not None:
                session = edit(session)
            entries.append(write_session(session, cohort / f"session{k}"))
    manifest = cohort / "manifest.csv"
    ingest.write_manifest(entries, manifest, relative_to=cohort)
    return manifest


def run(args: list[str]) -> tuple[str, int]:
    """The stdout and the exit code of one drowsekit command."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(args)
    return stdout.getvalue(), code


def versions() -> list[str]:
    """The header of a committed listing: the versions that set its last bits."""
    return [f"# python {platform.python_version()}", f"# numpy {np.__version__}"]


def listing(names: tuple[str, ...] | None = None, seeds: tuple[int, ...] = SEEDS) -> list[str]:
    """The ``sha256  path`` line of every file the cohorts ``names`` (all
    when None) write at ``seeds``, in path order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, shape in COHORTS + REJECTED:
            if names is not None and name not in names:
                continue
            for seed in seeds:
                cohort = root / f"{name}-{seed}"
                manifest = write_cohort(shape, seed, cohort / "input")
                stdout, code = run(["validate", "--manifest", str(manifest)])
                (cohort / "validate.txt").write_text(f"{stdout}exit {code}\n")
                if code != 0:  # analyze and features are run on valid cohorts only
                    continue
                for label, flags in FLAG_SETS.items():
                    for command in ("analyze", "features"):
                        out = cohort / f"{command}-{label}"
                        args = [command, "--manifest", str(manifest), "--out", str(out), *flags]
                        if run(args)[1] != 0:
                            sys.exit(f"error: drowsekit {' '.join(args)} failed")
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(root)}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--check", metavar="FILE", type=Path,
                        help="print the lines that differ from FILE; exit 1 when any do")
    args = parser.parse_args(argv)
    found = versions() + listing()
    if args.check is None:
        print("\n".join(found))
        return 0
    expected = args.check.read_text(encoding="utf-8").splitlines()
    found_set, expected_set = set(found), set(expected)
    differ = ([f"- {line}" for line in expected if line not in found_set]
              + [f"+ {line}" for line in found if line not in expected_set])
    print("\n".join(differ), end="\n" if differ else "")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
