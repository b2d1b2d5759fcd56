"""scripts/scale_timings.py runs end to end on a small graph, three runs
per command, each with its wall time and its own peak memory."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_at_ten_variables():
    proc = subprocess.run(
        [sys.executable, "scripts/scale_timings.py", "--dims", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert {"cpu", "nproc", "python", "numpy"} <= set(doc["machine"])
    assert [(t["N"], t["n"], t["command"], t["exit"]) for t in doc["timings"]] == [
        (10, 40, "select --correction none", 0),
        (10, 40, "select --correction holm", 0),
        (10, 40, "select --format dot", 0),
        (10, 40, "verify --input", 0),
    ]
    for t in doc["timings"]:
        assert len(t["runs"]) == 3
        assert all(run > 0 for run in t["runs"])
        assert t["seconds"] == sorted(t["runs"])[1]
        # each run's own peak: at least an interpreter with numpy loaded
        assert len(t["peak_rss_runs_mb"]) == 3
        assert all(10.0 < mb < 1000.0 for mb in t["peak_rss_runs_mb"])
        assert t["peak_rss_mb"] == sorted(t["peak_rss_runs_mb"])[1]
