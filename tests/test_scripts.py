import importlib.util
import json
import math
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


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_script_writes_json(tmp_path):
    _run_script("bench.py", "--grid", "2x3", "--out-dir", str(tmp_path))
    (path,) = tmp_path.glob("BENCH_*.json")
    doc = json.loads(path.read_text())
    assert {"numpy", "scipy", "blas_threads", "grid", "reference", "certification"} <= set(doc)
    assert doc["blas_threads"] in (1, None)  # None where the BLAS cannot be queried
    (point,) = doc["grid"]
    assert {"n", "modes", "seconds", "newton_steps", "step_ms", "margin", "status"} <= set(point)
    assert (point["n"], point["modes"], point["status"]) == (2, 3, "feasible")
    reference = doc["reference"]
    assert {"seconds", "newton_steps", "step_ms", "status", "g_star"} <= set(reference)
    assert reference["status"] == "feasible"
    assert 0.035 < reference["g_star"] < 0.045
    # the largest condition number of Y_i^-1 - X_i that each rebuild inverted
    for solve in (point, reference):
        assert math.isfinite(solve["max_coupling_condition"])
        assert solve["max_coupling_condition"] >= 1.0
    certification = doc["certification"]
    assert {"seconds", "newton_steps", "step_ms", "status", "g", "certified"} <= set(certification)
    assert (certification["status"], certification["certified"]) == ("feasible", True)
    assert certification["g"] == reference["g_star"]
    grid_certification = point["certification"]
    assert {"seconds", "newton_steps", "step_ms", "status", "g", "certified"} <= set(
        grid_certification)
    assert (grid_certification["status"], grid_certification["certified"]) == ("feasible", True)
    # beside the coupled solve, the closed-form storage certificate of the same design
    for check in (certification, grid_certification):
        assert check["storage_certified"] is True
        assert check["storage_margin"] >= 1e-6
        assert check["storage_seconds"] > 0
    assert grid_certification["g"] == point["g"] == 5.0
    # the coupled Lyapunov storage certifies the grid design with no Newton
    # step; the reference design at its own level is tight, so the barrier
    # certifies it
    assert (grid_certification["route"], grid_certification["newton_steps"]) == ("lyapunov", 0)
    assert grid_certification["notes"] == ["coupled Lyapunov storage"]
    assert (certification["route"], certification["newton_steps"] > 0) == ("barrier", True)
    # each record splits its Newton steps by phase; only the level search minimises
    for solve in (point, grid_certification, certification):
        assert (solve["shift_steps"], solve["objective_steps"]) == (solve["newton_steps"], 0)
    assert reference["objective_steps"] > 0
    assert reference["shift_steps"] + reference["objective_steps"] == reference["newton_steps"]
    for solve in (point, reference, certification, grid_certification):
        assert solve["margin"] >= 1e-6  # every one of them is feasible
    for solve in (point, reference, certification):
        assert solve["step_ms"] == pytest.approx(
            1e3 * solve["seconds"] / solve["newton_steps"], rel=1e-2, abs=2e-3)
    assert grid_certification["step_ms"] is None  # no Newton step to divide by
    simulation = doc["simulation"]
    assert {"propagate_moments", "mean_probe"} == set(simulation)
    assert simulation["propagate_moments"]["grid_steps"] >= 2000  # t_end / dt, plus jumps
    assert all(run["seconds"] > 0 for run in simulation.values())
    assert all(run["runs"] == 15 for run in simulation.values())  # each a median
    memory = simulation["propagate_moments"]["memory"]
    assert memory["dt"] == 1e-3 and memory["samples"] >= 100001
    # the stored triangle state and times alone take 248 B per sample
    assert 248 <= memory["peak_bytes_per_sample"] <= 700
    assert doc["demo"]["exit_code"] == 0 and doc["demo"]["seconds"] > 0


def _load_audit(monkeypatch):
    """scripts/audit.py as a module, with perfbench importable for its plants."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return _load_script("audit.py")


def test_fixed_level_audit_certifies_every_design(monkeypatch):
    # in process: the whole script, level searches included, runs in CI
    audit = _load_audit(monkeypatch)
    records = [{"case": label, **audit.audit(make_plant(), g)}
               for label, make_plant, g in audit.cases()]
    assert len(records) == 45
    for r in records:
        # feasible, augmented and certified by the design's own storage
        assert r["status"] == "feasible" and r["storage_certified"] is True, r
        assert 1.0 <= r["coupling_condition"] <= 1e10
        # the coupled certificate rejects one loop, whose absorbing mode
        # leaves a tight level
        rejected = (r["case"], r["g"]) == ("absorbing-mode", 2.2)
        assert r["coupled"]["certified"] is not rejected, r
    # ten loops that the Lyapunov storage misses certify after Kleinman
    # steps on the coupled Riccati equations, with no barrier solve
    assert audit.route_counts(records) == {"lyapunov": 26, "riccati": 10, "barrier": 8}


# the level searches Tier-1 audits: every search of the reference, single-mode
# and absorbing-mode plants and of the 2-state random plants
TIER1_SEARCHES = ("reference", "single-mode", "absorbing-mode", "2x2", "2x3")


def test_level_search_audit_and_its_oracle(monkeypatch):
    audit = _load_audit(monkeypatch)
    records = {(label, tol_g): audit.search_audit(make_plant(), g_lo, g_hi, tol_g)
               for label, make_plant, g_lo, g_hi, tol_g in audit.searches()
               if label.endswith(TIER1_SEARCHES)}
    assert len(records) == 17
    for (label, tol_g), r in records.items():
        # feasible, with the design rebuilt from the search's own point and
        # certified by its storage
        assert r["status"] == "feasible" and not r["fallback"], (label, r)
        assert r["objective_steps"] > 0 and r["storage_certified"] is True, (label, r)
        # one design does not augment: ROADMAP item 9's conditioning family
        assert r["augmented"] is ((label, tol_g) != ("absorbing-mode", 1e-3)), (label, r)
    assert "commutation defect" in records["absorbing-mode", 1e-3]["augment_error"]
    # the oracle runs below every g* above 0.02 and finds these designs,
    # certified at 0.9 g*: g* is not within tol_g of the least level there
    assert {key for key, r in records.items() if r["oracle"] is None} == {
        (f"random {s} 2x{m}", 5e-3) for s, m in ((2, 2), (3, 2), (4, 2), (0, 3), (4, 3), (5, 3))}
    caught = {key: (r["g_star"], r["oracle"]["g"]) for key, r in records.items()
              if r["oracle"] is not None and r["oracle"]["certified"]}
    assert caught == {
        ("random 1 2x3", 5e-3): (pytest.approx(1.852705, rel=1e-5),
                                 pytest.approx(1.667434, rel=1e-5)),
        ("random 3 2x3", 5e-3): (pytest.approx(1.376036, rel=1e-5),
                                 pytest.approx(1.238432, rel=1e-5)),
    }


def test_bench_timed_records_budget_exhaustion(monkeypatch):
    bench = _load_script("bench.py")
    from qhinf import demo, lmi, synthesis

    monkeypatch.setattr(lmi, "MAX_ITER", 0)
    seconds, g, solution = bench.timed(
        lambda: (0.05, synthesis.synthesize(demo.reference_plant(), 0.05)))
    assert g is None
    assert bench.record(seconds, solution)["status"] == "undecided"
    assert solution.notes == ("the Newton step budget ran out",)


def test_bench_timed_records_a_level_search_cut_before_tolerance(monkeypatch):
    bench = _load_script("bench.py")
    from qhinf import demo, lmi, synthesis

    monkeypatch.setattr(lmi, "MAX_ITER", 60)  # cut inside the objective phase
    seconds, g, solution = bench.timed(lambda: synthesis.min_attenuation(
        demo.reference_plant(), 0.01, 1.0, tol_g=5e-3))
    assert seconds > 0 and g is None
    assert solution.iterations == 60
    record = bench.record(seconds, solution)
    assert record["newton_steps"] == 60 and record["objective_steps"] > 0
