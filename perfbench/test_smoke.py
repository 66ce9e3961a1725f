"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Every workload finishes, prints every metric BENCHMARK.json names with its
unit, and the traced spans nest. Outside a checkout run.py refuses.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("paper-closed", "paper-mc", "desk-cdf-pool", "validate-desk")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(cwd, workload, trace, seed=1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)


def test_listed_workloads_are_runnable():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_emits_every_metric(workload, trace):
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *human, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]
        assert any(line.split()[0] == m["name"] for line in human if line.strip())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest(workload):
    proc = bench(ROOT, workload, 1, seed=2)
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(HERE, "out", f"{workload}-seed2-trace1.json"),
              encoding="utf-8") as fh:
        pairs = json.load(fh)["records"]
    for pair in pairs:
        assert pair["min_self_s"] >= -1e-9
        assert pair["top_level_s"] <= pair["traced_wall_s"]
        assert pair["spans"]


def test_refuses_outside_a_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "paper-closed", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
