"""Smoke test of the benchmark: each workload at a tiny size.

Asserts that every metric named in BENCHMARK.json is printed, that every
output check of the workload ran, and that the traced replay matched the
untraced pass.  Run from the repository root:

    python3 -m pytest bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

EXPECTED_CHECKS = {
    "sweep": {
        "manifest", "sweep.header", "sweep.rows", "sweep.parsed", "sweep.status",
        "sweep.m_int", "sweep.branch_oracle",
    },
    "crosscheck": {
        "manifest", "kernel.rows", "kernel.zeta_ascending", "kernel.magnitude",
        "kernel.is_minimum", "kernel.modulus", "svd.rows", "svd.counts",
        "svd.abs_diff", "svd.max_row", "svd.mode_count_gap", "spectrum.shape",
        "spectrum.descending", "spectrum.powers", "spectrum.cumulative",
    },
    "distributions": {
        "manifest", "stats.columns", "ccdf.groups", "ccdf.grid", "ccdf.pdf",
        "ccdf.range", "ccdf.non_increasing", "ccdf.mc_gap", "pov.rows", "pov.value",
    },
}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "30", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_runs_every_check(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and metric["unit"]

    record = json.loads(
        (ROOT / "bench" / "results" / f"{workload}-seed3-trace{trace}.json").read_text())
    assert EXPECTED_CHECKS[workload] <= set(record["checks_ran"])
    if trace:
        assert record["trace_run"]["ops"] >= 1
        assert record["trace_run"]["mismatched_ops"] == []


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run("sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
