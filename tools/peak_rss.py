"""Print the peak resident set size of one ``drowsekit analyze`` per cohort size.

A child process writes as many synthetic sessions as the largest cohort
needs (balanced alert/drowsy, ``--intervals`` 30-second intervals each)
through the benchmark's ``write_session``. Then one ``drowsekit analyze``
child runs on the first N sessions for each N given, and the tool prints
that child's own ``ru_maxrss`` as ``os.wait4`` returns it (not the running
maximum over all children that ``RUSAGE_CHILDREN`` keeps), with analyze's
exit code. One ``drowsekit synth`` child then writes one session of the
same spec, and its own peak goes on a ``#`` line:

    PYTHONPATH=src python tools/peak_rss.py --sessions 1 2 4 --intervals 40

prints ``sessions  intervals  exit  peak_rss_mb``, one line per cohort, a
``#`` line with the synth child's exit code and peak, and a last ``#`` line
with this process's own peak. A child's ``ru_maxrss`` starts at its
parent's peak (``posix_spawn``) or its parent's RSS at the fork, so this
process imports neither numpy nor drowsekit and writes nothing itself but
the synth spec's few bytes: its own peak is a floor under every reading.
Linux only (``/proc/self/status``; ``ru_maxrss`` in kB). A cohort with
fewer than 4 intervals of a state ends analyze with exit 1
(``TooFewSamples``) after every session has been loaded and processed.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "benchmark")])}

# argv: directory, session count, intervals per session, seed, cohort sizes...
WRITE_COHORT = """\
import sys
from pathlib import Path
from workloads import session_seed, write_session
from drowsekit import ingest, synthgen
root, n, n_intervals, seed = Path(sys.argv[1]), *map(int, sys.argv[2:5])
spec = synthgen.SynthSpec(n_intervals=n_intervals, drowsy_fraction=0.5)
entries = [write_session(synthgen.generate_session(spec, session_seed(seed, k)),
                         root / f"session{k}") for k in range(n)]
for size in map(int, sys.argv[5:]):
    ingest.write_manifest(entries[:size], root / f"manifest{size}.csv", relative_to=root)
"""


def child_peak(*command: str) -> tuple[int, float]:
    """Run ``drowsekit <command>`` in a child process; return its exit code
    and its own peak RSS in MB."""
    args = [sys.executable, "-m", "drowsekit.cli", *command]
    pid = os.posix_spawn(sys.executable, args, ENV,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0  # KB on Linux


def own_peak_mb() -> float:
    """The peak RSS of this process's own memory since it started, in MB:
    ``VmHWM``, which, unlike ``ru_maxrss``, leaves out the peak that a
    process spawned with ``posix_spawn`` or ``vfork`` takes over from its parent."""
    with open("/proc/self/status", encoding="ascii") as f:
        line = next(line for line in f if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0  # kB


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sessions", type=int, nargs="+", default=[1, 2, 4],
                        help="cohort sizes (default: 1 2 4)")
    parser.add_argument("--intervals", type=int, default=40,
                        help="intervals per session (default: 40)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        subprocess.run([sys.executable, "-c", WRITE_COHORT, tmp, str(max(args.sessions)),
                        str(args.intervals), str(args.seed), *map(str, args.sessions)],
                       env=ENV, check=True)
        print("sessions  intervals  exit  peak_rss_mb")
        for n in args.sessions:
            code, peak = child_peak("analyze", "--manifest", str(root / f"manifest{n}.csv"),
                                    "--out", str(root / f"report{n}"))
            print(f"{n:8d}  {args.intervals:9d}  {code:4d}  {peak:11.1f}", flush=True)
        spec = root / "spec.json"
        spec.write_text(f'{{"n_intervals": {args.intervals}, "drowsy_fraction": 0.5}}')
        code, peak = child_peak("synth", "--out", str(root / "synth"), "--seed", str(args.seed),
                                "--spec", str(spec))
        print(f"# synth of one {args.intervals}-interval session: exit {code}, "
              f"peak {peak:.1f} MB", flush=True)
    print(f"# peak RSS of this process, a floor under every reading: {own_peak_mb():.1f} MB")


if __name__ == "__main__":
    main()
