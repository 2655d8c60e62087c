"""Print a sha256 digest of every file that analyze and features write.

Writes the benchmark's cohort shapes, plus one cohort in which the artifact
rule drops every epoch of one session, at seeds 1 and 4242 through the
``ingest`` writers; runs ``analyze`` and ``features`` on each cohort with
the default flags and with ``--abs-mean --per-channel-outliers``; and
prints ``sha256  path`` for every file written, inputs included, with paths
relative to a temporary directory. Two trees write the same bytes when
their outputs are equal:

    PYTHONPATH=src python tools/output_digest.py > digest.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

from workloads import WORKLOADS, session_seed, write_session  # noqa: E402

from drowsekit import cli, ingest, synthgen  # noqa: E402

SEEDS = (1, 4242)
FLAG_SETS = {"default": [], "flags": ["--abs-mean", "--per-channel-outliers"]}

# (cohort name, [(spec, session count), ...]); "drops" adds a session to the
# analyze_memory shape whose every epoch the artifact rule drops.
_MEMORY = WORKLOADS["analyze_memory"]
COHORTS = [(name, [(w.spec, w.n_sessions)])
           for name, w in WORKLOADS.items() if hasattr(w, "n_sessions")]
COHORTS.append(("drops", [(_MEMORY.spec, _MEMORY.n_sessions),
                          (replace(_MEMORY.spec, n_intervals=12, outlier_rate=1.0), 1)]))


def write_cohort(shape, seed: int, cohort: Path) -> Path:
    entries = []
    for spec, n_sessions in shape:
        for _ in range(n_sessions):
            k = len(entries)
            session = synthgen.generate_session(spec, session_seed(seed, k))
            entries.append(write_session(session, cohort / f"session{k}"))
    manifest = cohort / "manifest.csv"
    ingest.write_manifest(entries, manifest, relative_to=cohort)
    return manifest


def run(args: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(args)
    if code != 0:
        sys.exit(f"error: drowsekit {' '.join(args)} exited with code {code}")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, shape in COHORTS:
            for seed in SEEDS:
                cohort = root / f"{name}-{seed}"
                manifest = write_cohort(shape, seed, cohort / "input")
                for label, flags in FLAG_SETS.items():
                    for command in ("analyze", "features"):
                        out = cohort / f"{command}-{label}"
                        run([command, "--manifest", str(manifest), "--out", str(out), *flags])
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(root)}")


if __name__ == "__main__":
    main()
