"""The measurement scripts under ``tools/`` still run, and the outputs
match the committed listing of ``tools/output_digest.py``."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the cohorts of tools/output_digest.py the identity check reruns at seed 1:
# the worker-chunk edges, skipped intervals (in report.json) and both
# validate rejections, in about 7 s
IDENTITY_COHORTS = ("odd", "partial", "eeg-250hz", "telemetry-at-1000s")


def test_peak_rss_prints_each_analyze_childs_own_peak():
    # two-interval sessions hold too few rows per state, so analyze ends with
    # exit 1 (TooFewSamples) after loading and processing every session
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "peak_rss.py"), "--sessions", "1", "2",
         "--intervals", "2"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    header, *rows, synth, floor = result.stdout.splitlines()
    assert header.split() == ["sessions", "intervals", "exit", "peak_rss_mb"]
    assert [row.split()[:3] for row in rows] == [["1", "2", "1"], ["2", "2", "1"]]
    assert synth.startswith("# synth of one 2-interval session: exit 0, peak ")
    assert synth.endswith(" MB")
    # the tool's own peak stays below what a child reads (numpy alone takes
    # more), so the readings are the children's
    assert floor.startswith("# peak RSS of this process")
    floor_mb = float(floor.split()[-2])
    peaks = [float(row.split()[3]) for row in rows] + [float(synth.split()[-2])]
    assert all(floor_mb + 5.0 < peak < 1000.0 for peak in peaks)
    assert result.stderr.count("(TooFewSamples)") == 2


def test_outputs_match_the_committed_listing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    output_digest = importlib.import_module("output_digest")
    committed = (ROOT / "tests" / "data" / "output_digest.txt").read_text(
        encoding="utf-8").splitlines()
    header = [line for line in committed if line.startswith("# ")]
    assert header == output_digest.versions(), (
        f"the listing was made with {header}, this run has {output_digest.versions()}; "
        "regenerate it with tools/output_digest.py > tests/data/output_digest.txt "
        "and name the change")
    runs = {f"{name}-1" for name in IDENTITY_COHORTS}
    expected = [line for line in committed
                if not line.startswith("# ") and line.split("  ", 1)[1].split("/", 1)[0] in runs]
    assert output_digest.listing(IDENTITY_COHORTS, seeds=(1,)) == expected
