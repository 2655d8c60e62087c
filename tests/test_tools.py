"""The measurement scripts under ``tools/`` still run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
