"""The benchmark still runs on the program.

``benchmark/spans.py`` patches the names in its ``TARGETS`` table wherever a
drowsekit module binds them, and ``benchmark/workloads.py`` calls the
program's functions and commands. A refactor that removes, renames or
breaks one of them fails here, not in a benchmark run; so does one that
calls a traced name from a worker thread, whose spans the tracer's single
span stack would misplace.
"""

import collections
import contextlib
import importlib
import json
import sys
import threading
from pathlib import Path

import pytest

import drowsekit.cli  # noqa: F401  (imports every module the tracer patches)

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = [w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def _original(owner_path, attr):
    module_name, _, class_name = owner_path.partition(".")
    owner = sys.modules[f"drowsekit.{module_name}"]
    return getattr(owner, class_name).__dict__[attr] if class_name else getattr(owner, attr)


def _benchmark_module(monkeypatch, name):
    monkeypatch.syspath_prepend(str(ROOT / "benchmark"))
    return importlib.import_module(name)


def test_tracer_patches_every_target(monkeypatch):
    spans = _benchmark_module(monkeypatch, "spans")
    originals = {(owner, attr): _original(owner, attr) for owner, attr, *_ in spans.TARGETS}
    tracer = spans.Tracer()
    try:
        tracer.install()
        replaced = [old for _, _, old in tracer._restore]
        missed = [key for key, func in originals.items()
                  if not any(old is func for old in replaced)]
    finally:
        tracer.uninstall()
    assert not missed
    assert all(_original(*key) is func for key, func in originals.items())


@contextlib.contextmanager
def _installed(tracer, run_id):
    tracer.run_id = run_id
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def test_every_workload_runs_clean(monkeypatch, tmp_path):
    # two untraced operations per workload, then a traced set-up and operation
    # whose per-layer values feed the checks, as benchmark runs make them
    spans = _benchmark_module(monkeypatch, "spans")
    workloads = _benchmark_module(monkeypatch, "workloads")
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class()
        work = tmp_path / name
        work.mkdir()
        inputs = workload.prepare(1, work)
        for _ in range(2):
            out = workload.op(inputs)
            assert workload.check(inputs, out, None) == [], name

        tracer = spans.Tracer()
        work = tmp_path / f"{name}-traced"
        work.mkdir()
        with _installed(tracer, "setup"):
            inputs = workload.prepare(1, work)
        with _installed(tracer, "op"):
            out = workload.op(inputs)
        layers = spans.layer_metrics(tracer, {"setup", "op"})
        assert workload.check(inputs, out, layers) == [], f"{name} traced"


@pytest.mark.parametrize("workload_name", WORKLOAD_NAMES)
def test_traced_functions_run_on_the_calling_thread_once_per_session(monkeypatch, tmp_path,
                                                                     workload_name):
    spans = _benchmark_module(monkeypatch, "spans")
    workload = _benchmark_module(monkeypatch, "workloads").WORKLOADS[workload_name]()
    entered = []

    class Recorder(spans.Tracer):
        def open(self, name):
            entered.append((name, threading.current_thread()))
            return super().open(name)

    inputs = workload.prepare(1, tmp_path)
    with _installed(Recorder(), "op"):
        workload.op(inputs)
    assert entered
    assert {thread for _, thread in entered} == {threading.current_thread()}
    calls = collections.Counter(traced for traced, _ in entered)
    sessions = getattr(workload, "n_sessions", 0)
    assert calls["preprocess.filter_epoch"] == sessions
    assert calls["spectral.extract_features"] == sessions
    assert calls["stats.ks_normal_test"] == 2 * calls["stats.separation_report"]
