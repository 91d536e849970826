"""Smoke test of the benchmark at tiny sizes:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "verdicts", "oracle")
END_TO_END = ("x_floor", "setup_s", "peak_rss_mb", "pass_share")
PER_LAYER = (
    "dynamics.run_trajectory.s", "dynamics.steps", "dynamics.us_per_step", "dynamics.x_floor",
    "dynamics.job_s.max_over_median", "harness.pool.workers", "harness.pool.scaling",
    "harness.io.s", "svgplot.line_plot.s", "harness.io.bytes",
    "montecarlo.one_step_estimates.s", "montecarlo.one_step_estimates.calls", "montecarlo.samples",
    "montecarlo.normals", "montecarlo.x_floor", "montecarlo.distinct_draw_ratio",
    "montecarlo.projected_loss_test.s", "montecarlo.projected_useful_ratio", "montecarlo.peak_batch_mb",
    "theory.s", "theory.calls", "theory.share", "state.s", "state.calls", "spectrum.s",
    "cli.s", "harness.other.s", "normals.count", "normals.floor_s", "trace.overhead_s", "fail_share",
)


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_a_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, details_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    details = json.loads(details_line)["details"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    names = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) >= set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"], name
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
    assert len(details["digests"]) == 1
    assert {name: t["unit"] for name, t in details["times"].items()} == {"wall_s": "s", "work_per_s": "1/s"}
    if trace:
        assert sum(details["layer_self_s"].values()) <= details["traced"]["wall_s"] * (1 + 1e-9)
        assert details["counted_normals"] == result["metrics"]["normals.count"]["value"]
        if workload == "simulate":
            assert details["serial"]["digest"] == details["digests"][0]
    else:
        assert 0.0 <= result["metrics"]["pass_share"]["value"] <= 1.0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "oracle", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
