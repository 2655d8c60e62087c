"""drowsekit benchmark: end-to-end and per-layer metrics of four workloads.

One run:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

sets the workload up from the seed, then repeats its timed operation,
untraced, until the operations have taken S seconds.  With ``--trace 0`` it
reports the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
then runs one more operation with spans recorded around drowsekit's public
functions and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and spans also go to ``.bench_out/``.

    python3 benchmark/run.py --seed N

runs every workload untraced and traced, one fresh process after another,
and prints all metrics as one table.  README.md in this directory says why
each workload exists and which metric each layer should move.
"""

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The program runs single-threaded; keep native libraries from starting pools.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Set-up is repeated this many times per untraced run, and imports are timed
# in as many processes; setup_s is the median import time plus the median
# set-up.
SETUP_REPEATS = 3

# Seeds 1-20 were used while the benchmark was written.  A performance claim
# must also hold on this seed.
HELD_OUT_SEED = 4242


def import_program():
    """Import drowsekit from this checkout's sources, or exit non-zero."""
    src = ROOT / "src"
    package = src / "drowsekit"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no drowsekit sources at {package}")
    sys.path.insert(0, str(src))
    import drowsekit
    if Path(drowsekit.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported drowsekit from {drowsekit.__file__}, not {package}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_stamp() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / n).read_text().strip()
                                 for n in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}-{kind}"] = size
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Tally:
    """Operations attempted and failed, with the problems found."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_op(workload, inputs):
    """Run one operation; returns (wall seconds, output, whether it raised)."""
    start = time.perf_counter()
    try:
        out = workload.op(inputs)
    except Exception:
        seconds = time.perf_counter() - start
        traceback.print_exc()
        return seconds, None, True
    return time.perf_counter() - start, out, False


def time_imports() -> tuple[float, float]:
    """Import the program and the benchmark; returns (seconds since the
    script started, reference seconds right after)."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    import_program()
    import spans  # noqa: F401
    import speed
    import workloads  # noqa: F401
    seconds = time.perf_counter() - PROCESS_START
    speed.reference_seconds()  # first pass pays one-off numpy start-up costs
    return seconds, speed.reference_seconds()


def run_one(args) -> int:
    imports = [time_imports()]
    import spans
    import speed
    import workloads
    if not args.trace:
        # Imports happen once per process: time them in fresh interpreters too.
        for _ in range(SETUP_REPEATS - 1):
            child = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                    "--time-imports"], capture_output=True, text=True,
                                   check=True, cwd=ROOT)
            imports.append(tuple(json.loads(child.stdout)))

    workload = workloads.WORKLOADS[args.workload]()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    tally = Tally()
    try:
        # Set-up: repeated untraced for setup_s, or once traced for the
        # per-layer numbers of set-up work.
        prep_s, prep_norm_s = [], []
        inputs = None
        for _ in range(1 if tracer else SETUP_REPEATS):
            inputs = None
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            if tracer:
                tracer.run_id = "setup"
                tracer.install()
            ref_before = speed.reference_seconds()
            start = time.perf_counter()
            try:
                inputs = workload.prepare(args.seed, work)
            finally:
                seconds = time.perf_counter() - start
                if tracer:
                    tracer.uninstall()
            prep_s.append(seconds)
            prep_norm_s.append(speed.normalise(seconds, ref_before, speed.reference_seconds()))

        # Closed loop, one caller: repeat until the operations took --seconds.
        # The checks are short, so one reference pass serves as the "after"
        # of an operation and the "before" of the next.
        op_s, op_norm_s = [], []
        ref_before = speed.reference_seconds()
        while sum(op_s) < args.seconds:
            seconds, out, raised = run_op(workload, inputs)
            ref_after = speed.reference_seconds()
            op_s.append(seconds)
            op_norm_s.append(speed.normalise(seconds, ref_before, ref_after))
            tally.record(["operation raised"] if raised
                         else workload.check(inputs, out, None))
            ref_before = ref_after
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if not tracer:
            metrics = {
                "wall_s": statistics.median(op_norm_s),
                "setup_s": (statistics.median(speed.normalise(*i) for i in imports)
                            + statistics.median(prep_norm_s)),
                "peak_rss_mb": peak_rss_mb,
            }
        else:
            tracer.run_id = "op"
            tracer.install()
            cpu_start = time.process_time()
            root = tracer.open("bench.op")
            try:
                _, out, raised = run_op(workload, inputs)
            finally:
                tracer.close(root)
                cpu_s = time.process_time() - cpu_start
                tracer.uninstall()
            traced_s = tracer.spans[root].duration
            metrics = spans.layer_metrics(tracer, {"setup", "op"})
            metrics["process.cpu_s"] = cpu_s
            metrics["trace.overhead_s"] = traced_s - statistics.median(op_s)
            metrics["trace.hot_layer_frac"] = (
                spans.hot_self_seconds(tracer, "op", workload.hot) / traced_s)
            tally.record(["operation raised"] if raised
                         else workload.check(inputs, out, metrics))
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = SPEC["per_layer" if tracer else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"error: the run produced no value for {', '.join(missing)}")
    result_metrics = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                      for m in declared}

    stamp = machine_stamp()
    failed_frac = tally.failed / tally.attempted
    q1, median, q3 = _quartiles(op_s)
    for problem in dict.fromkeys(tally.problems):
        print(f"FAILED CHECK: {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"operations={tally.attempted} failed={tally.failed}")
    print(f"# raw operation wall time q1={q1:.6f} median={median:.6f} q3={q3:.6f} s "
          f"over {len(op_s)} untraced operations; raw set-up median "
          f"{statistics.median(i[0] for i in imports):.4f} s imports "
          f"+ median {statistics.median(prep_s):.4f} s")
    print(f"# stamp {json.dumps(stamp, sort_keys=True)}")
    for name, m in result_metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {failed_frac:.6g} ratio")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": result_metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "failed_frac": failed_frac,
                    "op_s": op_s, "op_norm_s": op_norm_s, "setup_s": prep_s,
                    "setup_norm_s": prep_norm_s, "imports_s": [i[0] for i in imports],
                    "imports_ref_s": [i[1] for i in imports], "problems": tally.problems,
                    "stamp": stamp}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload untraced then traced, each in a fresh process."""
    rows, results, status = [], {}, 0
    for spec in SPEC["workloads"]:
        for trace in (0, 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", spec["name"], "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                sys.stderr.write(done.stderr)
                print(f"{spec['name']} trace={trace}: exited {done.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            results[f"{spec['name']}/trace{trace}"] = result
            status |= not result["correct"]
            for name, m in result["metrics"].items():
                rows.append((spec["name"], name, m["value"], m["unit"]))
            if trace == 0:
                detail = json.loads((OUT / f"result-{spec['name']}-seed{args.seed}-trace0.json")
                                    .read_text(encoding="utf-8"))
                rows.append((spec["name"], "raw_wall_s", statistics.median(detail["op_s"]), "s"))
                rows.append((spec["name"], "raw_setup_s", statistics.median(detail["imports_s"])
                             + statistics.median(detail["setup_s"]), "s"))
                rows.append((spec["name"], "failed_frac", detail["failed_frac"], "ratio"))
    width = max((len(r[1]) for r in rows), default=0)
    for workload, name, value, unit in rows:
        print(f"{workload:<15} {name:<{width}} {value:>14.6g} {unit}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"results-seed{args.seed}.json"
    path.write_text(json.dumps({"seed": args.seed, "results": results,
                                "stamp": machine_stamp()}, indent=2) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return status


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help=f"workload seed (held-out seed for claims: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="measured operation time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--time-imports", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.time_imports:
        print(json.dumps(time_imports()))
        return 0
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.workload == "all":
        import_program()  # fail fast without the program's sources
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
