"""The benchmark still runs against the current source.

`bench/tracing.py` wraps functions by their module attribute names, so a
rename under `src/` would otherwise break `--trace 1` unnoticed.
offline-compose is the only workload run here: its counters do not
depend on thread scheduling.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_offline_compose_runs_traced_and_correct():
    completed = subprocess.run(
        [
            sys.executable, "bench/run.py", "--workload", "offline-compose",
            "--seed", "1", "--seconds", "0.5", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert "MISMATCH" not in completed.stdout + completed.stderr
