"""Smoke test of the benchmark: every workload at its smallest setting.

Run from the repository root:

    python -m pytest perfbench/test_smoke.py -q

Each workload runs for the shortest time (one operation, or one input twice
when traced) and must report every metric named in BENCHMARK.json with its
unit and no failed operation.  A copy of the benchmark without the program must
refuse to run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN = [sys.executable, str(HERE / "run.py")]
TIMEOUT = 300


def _run(cmd, cwd):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(RUN + ["--workload", workload, "--seed", "0", "--seconds", "0.001",
                       "--trace", str(trace)], HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    table = BENCH["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert "failed_frac = 0.0 1" in proc.stdout
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        for name in ("op_s", "setup_s"):
            assert result["metrics"][name]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = _run(RUN[:1] + [f"{HERE.name}/run.py", "--workload", "fault-sim", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
