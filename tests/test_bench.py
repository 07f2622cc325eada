"""A short traced run of the benchmark harness on the two fast workloads.

The traced run wraps the library's functions at their module attributes and
counts grid points from each segment's shape, so this checks that contract as
well as the harness's own output check.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# grid points per item: 20 starts x 2,000 points on certify, whose onset from
# the vacuum needs no scan; one 161-point trajectory on noise
GRID_POINTS = {"certify": 40_000, "noise": 161}
SPANNED = {
    "certify": ["dynamics.propagate_grid", "dynamics.iter_grid_segments",
                "entanglement.ppt_margins", "entanglement.entanglement_onset"],
    "noise": ["cli.cli_main", "noise.run_noise_test", "dynamics.iter_grid_segments"],
}
# ppt_margin calls per item: the onset's two sign checks of its first-order bracket on
# certify, as the LDL screen clears every grid matrix and the start check is a
# psd_certificate; noise never reaches PPT code
PPT_MARGIN_CALLS = {"certify": 2, "noise": 0}


@pytest.mark.parametrize("workload", sorted(GRID_POINTS))
def test_traced_bench_run_is_correct(workload):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = {name: row["value"] for name, row in result["metrics"].items()}
    assert metrics["dynamics.grid_points"] == GRID_POINTS[workload]
    assert metrics["entanglement.ppt_margin.calls"] == PPT_MARGIN_CALLS[workload]
    for name in SPANNED[workload]:
        assert metrics[f"{name}.self_ms"] > 0, name
