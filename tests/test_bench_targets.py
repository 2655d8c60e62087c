"""The benchmark tracer still finds every function it traces.

``benchmark/spans.py`` patches the names in its ``TARGETS`` table wherever a
drowsekit module binds them. A refactor that removes or renames one of them
fails here, not in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import drowsekit.cli  # noqa: F401  (imports every module the tracer patches)


def _original(owner_path, attr):
    module_name, _, class_name = owner_path.partition(".")
    owner = sys.modules[f"drowsekit.{module_name}"]
    return getattr(owner, class_name).__dict__[attr] if class_name else getattr(owner, attr)


def test_tracer_patches_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    spans = importlib.import_module("spans")
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
