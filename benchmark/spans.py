"""In-memory span tracing of drowsekit's public functions, for the benchmark only.

The tracer replaces each traced function wherever a drowsekit module binds
it (``cli`` imports most of them by name, so patching only the defining
module would miss those callers) and puts the originals back on
``uninstall``.  Spans are (name, start, end, parent, run id) plus a few
counts taken at the same boundary; everything stays in memory until the
benchmark writes it out at the end.  The program is single-threaded, so a
plain stack gives each span its parent.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    run_id: str
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(path) -> int:
    return os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# ---- counters: (span, args, kwargs, result) -> None ------------------------

def _count_samples(span, args, kwargs, session):
    n = sum(len(c) for c in session.eeg.channels)
    if session.telemetry is not None:
        n += sum(len(s) for s in session.telemetry.series)
    span.counts["samples"] = n


def _count_written(span, args, kwargs, result):
    span.counts["bytes"] = _size(_arg(args, kwargs, 1, "dest"))


def _count_loaded(span, args, kwargs, result):
    span.counts["bytes"] = _size(_arg(args, kwargs, 0, "source") or _arg(args, kwargs, 0, "path"))
    if hasattr(result, "n_samples"):
        span.counts["rows"] = result.n_samples
    elif hasattr(result, "intervals"):
        span.counts["rows"] = len(result.intervals)
    else:
        span.counts["rows"] = len(result)


def _count_kept(span, args, kwargs, kept):
    span.counts["in"] = len(_arg(args, kwargs, 0, "epochs"))
    span.counts["out"] = len(kept.epochs)


def _count_emitted(span, args, kwargs, vectors):
    span.counts["in"] = len(_arg(args, kwargs, 1, "labels").intervals)
    span.counts["out"] = len(vectors)


def _count_method(span, args, kwargs, result):
    span.counts[result.method.value] = 1


def _count_report(span, args, kwargs, paths):
    span.counts["bytes"] = _size(paths[0])


# (module, attribute, span name, metric group, counter).  A group of None
# means the span name is also the group.
TARGETS = (
    ("synthgen", "generate_session", "synthgen.generate_session", None, _count_samples),
    ("ingest", "write_eeg_csv", "ingest.write_eeg_csv", "ingest.write", _count_written),
    ("ingest", "write_telemetry_csv", "ingest.write_telemetry_csv", "ingest.write", _count_written),
    ("ingest", "write_ord_csv", "ingest.write_ord_csv", "ingest.write", _count_written),
    ("ingest", "write_manifest", "ingest.write_manifest", "ingest.write", _count_written),
    ("ingest", "load_eeg_csv", "ingest.load_eeg_csv", "ingest.load", _count_loaded),
    ("ingest", "load_telemetry_csv", "ingest.load_telemetry_csv", "ingest.load", _count_loaded),
    ("ingest", "load_ord_csv", "ingest.load_ord_csv", "ingest.load", _count_loaded),
    ("ingest", "load_manifest", "ingest.load_manifest", "ingest.load", _count_loaded),
    ("preprocess", "epoch_signal", "preprocess.epoch_signal", None, None),
    ("preprocess", "filter_epoch", "preprocess.filter_epoch", None, None),
    ("preprocess", "denoise_epochs", "preprocess.denoise_epochs", None, _count_kept),
    ("spectral", "extract_features", "spectral.extract_features", None, None),
    ("vehicle", "interval_aggregate", "vehicle.interval_aggregate", None, _count_emitted),
    ("features.FeatureMatrix", "concat", "features.concat", "features.concat_select", None),
    ("features.FeatureMatrix", "select", "features.select", "features.concat_select", None),
    ("stats", "separation_report", "stats.separation_report", None, None),
    ("stats", "rank_sum_test", "stats.rank_sum_test", None, _count_method),
    ("stats", "ks_normal_test", "stats.ks_normal_test", None, None),
    ("cli", "analyze_cohort", "cli.analyze_cohort", None, None),
    ("cli", "write_report_files", "cli.write_report_files", None, _count_report),
)

GROUP_OF = {name: group or name for _, _, name, group, _ in TARGETS}


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), self.run_id, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    def _wrap(self, func, name, counter):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                span = self.close(index)
            if counter is not None:
                counter(span, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "drowsekit" or n.startswith("drowsekit.")]
        for owner_path, attr, name, _, counter in TARGETS:
            module_name, _, class_name = owner_path.partition(".")
            owner = sys.modules[f"drowsekit.{module_name}"]
            if class_name:
                cls = getattr(owner, class_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, counter))
                else:
                    new = self._wrap(raw, name, counter)
                self._patch(cls, attr, new)
                continue
            original = getattr(owner, attr)
            traced = self._wrap(original, name, counter)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, binding, traced)

    def _patch(self, owner, attr, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "run_id": s.run_id,
                                    "parent": s.parent, "start": s.start, "end": s.end,
                                    **s.counts}) + "\n")

    def self_times(self, run_ids) -> dict[int, float]:
        """Self time of each span in ``run_ids``: its duration minus its children's."""
        own = {i: s.duration for i, s in enumerate(self.spans) if s.run_id in run_ids}
        for i in list(own):
            parent = self.spans[i].parent
            if parent in own:
                own[parent] -= self.spans[i].duration
        return own


def _quantile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=10, method="inclusive")[q - 1] * 1e3


def layer_metrics(tracer: Tracer, run_ids: set[str]) -> dict[str, float]:
    """Per-layer values named ``<module>.<function>.<stat>`` over the given runs."""
    spans = [s for s in tracer.spans if s.run_id in run_ids]

    def group(g):
        return [s for s in spans if GROUP_OF.get(s.name) == g]

    def secs(g):
        return sum(s.duration for s in group(g))

    def count(g, key):
        return sum(s.counts.get(key, 0) for s in group(g))

    def ratio(a, b):
        return a / b if b else 0.0

    m: dict[str, float] = {}
    m["synthgen.generate_session.s"] = secs("synthgen.generate_session")
    m["synthgen.samples_per_s"] = ratio(count("synthgen.generate_session", "samples"),
                                        m["synthgen.generate_session.s"])
    for io in ("write", "load"):
        g = f"ingest.{io}"
        m[f"{g}.s"] = secs(g)
        m[f"{g}.bytes"] = count(g, "bytes")
        m[f"{g}.mb_per_s"] = ratio(m[f"{g}.bytes"] / 1e6, m[f"{g}.s"])
    m["ingest.load.rows"] = count("ingest.load", "rows")
    for g in ("preprocess.filter_epoch", "spectral.extract_features",
              "stats.rank_sum_test"):
        durations = [s.duration for s in group(g)]
        m[f"{g}.s"] = sum(durations)
        m[f"{g}.calls"] = len(durations)
        m[f"{g}.p50_ms"] = _quantile_ms(durations, 5)
        m[f"{g}.p90_ms"] = _quantile_ms(durations, 9)
    m["preprocess.epoch_signal.s"] = secs("preprocess.epoch_signal")
    m["preprocess.denoise_epochs.s"] = secs("preprocess.denoise_epochs")
    m["preprocess.kept_frac"] = ratio(count("preprocess.denoise_epochs", "out"),
                                      count("preprocess.denoise_epochs", "in"))
    m["vehicle.interval_aggregate.s"] = secs("vehicle.interval_aggregate")
    m["vehicle.emitted_frac"] = ratio(count("vehicle.interval_aggregate", "out"),
                                      count("vehicle.interval_aggregate", "in"))
    m["features.concat_select.s"] = secs("features.concat_select")
    m["stats.separation_report.s"] = secs("stats.separation_report")
    m["stats.ks_normal_test.s"] = secs("stats.ks_normal_test")
    m["stats.exact_rows"] = count("stats.rank_sum_test", "ExactEnumeration")
    m["stats.approx_rows"] = count("stats.rank_sum_test", "NormalApprox")
    own = tracer.self_times(run_ids)
    m["cli.analyze_cohort.self_s"] = sum(t for i, t in own.items()
                                         if tracer.spans[i].name == "cli.analyze_cohort")
    m["cli.write_report_files.s"] = secs("cli.write_report_files")
    m["cli.report.bytes"] = count("cli.write_report_files", "bytes")
    return m


def hot_self_seconds(tracer: Tracer, run_id: str, groups: tuple[str, ...]) -> float:
    """Self time, within one run, of the spans belonging to ``groups``."""
    own = tracer.self_times({run_id})
    return sum(t for i, t in own.items() if GROUP_OF.get(tracer.spans[i].name) in groups)
