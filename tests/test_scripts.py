import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_attenuation_sweep_script_runs():
    out = _run_script("attenuation_sweep.py", "--points", "2", "--g-min", "0.03", "--g-max", "0.06")
    assert any("g* =" in line for line in out.splitlines())


def test_bench_script_writes_json(tmp_path):
    _run_script("bench.py", "--grid", "2x3", "--out-dir", str(tmp_path))
    (path,) = tmp_path.glob("BENCH_*.json")
    doc = json.loads(path.read_text())
    assert {"numpy", "scipy", "blas_threads", "grid", "reference", "certification"} <= set(doc)
    assert doc["blas_threads"] in (1, None)  # None where the BLAS cannot be queried
    (point,) = doc["grid"]
    assert {"n", "modes", "seconds", "newton_steps", "step_ms", "verdict"} <= set(point)
    assert (point["n"], point["modes"], point["verdict"]) == (2, 3, "feasible")
    reference = doc["reference"]
    assert {"seconds", "newton_steps", "step_ms", "verdict", "g_star"} <= set(reference)
    assert reference["verdict"] == "feasible"
    assert 0.035 < reference["g_star"] < 0.045
    certification = doc["certification"]
    assert {"seconds", "newton_steps", "step_ms", "verdict", "g", "certified"} <= set(certification)
    assert (certification["verdict"], certification["certified"]) == ("feasible", True)
    assert certification["g"] == reference["g_star"]
    for solve in (point, reference, certification):
        assert solve["step_ms"] == pytest.approx(
            1e3 * solve["seconds"] / solve["newton_steps"], rel=1e-2, abs=2e-3)
    simulation = doc["simulation"]
    assert {"propagate_moments", "mean_probe"} == set(simulation)
    assert simulation["propagate_moments"]["grid_steps"] >= 2000  # t_end / dt, plus jumps
    assert all(run["seconds"] > 0 for run in simulation.values())


def test_bench_timed_records_budget_exhaustion():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    from qhinf import demo, synthesis

    seconds, g, solution = bench.timed(
        lambda: (0.05, synthesis.synthesize(demo.reference_plant(), 0.05, max_iter=0)))
    assert g is None
    assert bench.record(seconds, solution)["verdict"] == "max-iter"
