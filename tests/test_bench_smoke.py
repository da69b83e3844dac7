"""The benchmark harness runs and its output checks pass.

Every performance change is gated on `bench/run.py` reporting correct
outputs, so a short run of each workload belongs with the unit tests: a
library change that breaks a workload's checks shows here, not only in a
30-second benchmark run.  `forensics_blocks` is not gated, but its checks
are the only ones that walk graph edges, transfer graphs and call records
through `trace_to_dict`.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sweep_rational", "fee_integer",
                                      "cli_cold", "forensics_blocks"])
def test_short_run_passes_its_checks(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0.5"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0, proc.stdout
    assert result["attempted"] > 0
