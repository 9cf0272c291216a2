import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qhinf import demo, serialize
from qhinf.cli import main
from qhinf.qmodel import (
    Controller, ControllerMode, TransitionRateMatrix, make_commutation_matrix,
)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")
    plant = demo.reference_plant()
    ctrl = demo.reference_controller()
    plant_path = root / "plant.json"
    ctrl_path = root / "controller.json"
    system_path = root / "system.json"
    serialize.write_doc(plant_path, serialize.system_to_doc(plant=plant))
    serialize.write_doc(ctrl_path, serialize.system_to_doc(controller=ctrl, rates=plant.rates))
    serialize.write_doc(system_path, serialize.system_to_doc(plant=plant, controller=ctrl))
    return {"root": root, "plant": plant_path, "ctrl": ctrl_path, "system": system_path}


def test_synth_fixed_level(docs, capsys):
    out = docs["root"] / "synth" / "ctrl.json"
    rc = main([
        "synth", "--plant", str(docs["plant"]), "--g", "0.5",
        "--augment", "--out", str(out),
    ])
    assert rc == 0
    doc = serialize.read_doc(out)
    _, ctrl, _ = serialize.parse_system_doc(doc)
    assert ctrl.n_nu >= 2
    cert = serialize.read_doc(out.with_suffix(".cert.json"))
    assert cert["g"] == 0.5
    assert cert["lmi_status"] == "feasible"
    manifest = serialize.read_doc(str(out) + ".manifest.json")
    assert str(docs["plant"]) in manifest["inputs"]
    assert manifest["tool_version"]


def test_check_pr_pass_and_fail(docs, capsys):
    rc = main(["check-pr", "--controller", str(docs["ctrl"]), "--tol", "5e-3"])
    assert rc == 0
    assert "realizable" in capsys.readouterr().out
    rc = main(["check-pr", "--controller", str(docs["ctrl"]), "--tol", "1e-9"])
    assert rc == 1  # tabulated values are only four-decimal accurate


def test_check_pr_doc_format(docs, capsys):
    rc = main(["check-pr", "--controller", str(docs["ctrl"]), "--tol", "5e-3",
               "--format", "doc"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["realizable"] is True
    assert len(doc["cr_residuals"]) == 3


def test_augment_command(docs, capsys):
    out = docs["root"] / "aug.json"
    rc = main(["augment", "--controller", str(docs["ctrl"]), "--out", str(out)])
    assert rc == 0
    _, ctrl, _ = serialize.parse_system_doc(serialize.read_doc(out))
    assert ctrl.n_nu == 4
    rc = main(["check-pr", "--controller", str(out), "--tol", "1e-9"])
    assert rc == 0


def test_augment_defect_above_tolerance_exits_1(tmp_path, capsys):
    # gains of about 1e5 leave a rounding defect (8.6e-7) far above the absolute 1e-9
    a, b, c = 1e5 * np.random.default_rng(0).normal(size=(3, 2, 2))
    mode = ControllerMode(a, b, c, np.zeros((2, 0)), np.zeros((2, 0)))
    ctrl = Controller((mode,), make_commutation_matrix(2))
    src = tmp_path / "ctrl.json"
    serialize.write_doc(src, serialize.system_to_doc(
        controller=ctrl, rates=TransitionRateMatrix([[0.0]])))
    out = tmp_path / "aug.json"
    rc = main(["augment", "--controller", str(src), "--out", str(out)])
    assert rc == 1
    assert "commutation defect" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_command(docs, capsys):
    rc = main(["analyze", "--plant", str(docs["plant"]),
               "--controller", str(docs["ctrl"]), "--g", "0.5", "--format", "doc"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(doc["hurwitz"])


def _write_unstable_controller(path):
    """A controller whose drift +I destabilises every mode of the loop."""
    eye = np.eye(2)
    modes = tuple(
        ControllerMode(+eye, np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 0)), np.zeros((2, 0)))
        for _ in range(3)
    )
    serialize.write_doc(path, serialize.system_to_doc(
        controller=Controller(modes, make_commutation_matrix(2)),
        rates=demo.reference_plant().rates))
    return path


def test_analyze_unstable_mode_skips_coupled_check(docs, capsys):
    bad = _write_unstable_controller(docs["root"] / "unstable.json")
    args = ["analyze", "--plant", str(docs["plant"]), "--controller", str(bad), "--g", "100"]
    assert main(args) == 1
    assert "coupled certificate: skipped (mode unstable)" in capsys.readouterr().out
    assert main(args + ["--format", "doc"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["coupled_margin"] is None
    assert doc["coupled_feasible"] is False and doc["passed"] is False


def test_demo_rerun_manifest_lists_written_documents(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    for _ in range(2):
        assert main(["demo-paper", "--quick", "--tol-g", "0.2", "--out-dir", str(out_dir)]) == 0
    manifests = sorted(out_dir.glob("*.manifest.json"))
    assert len(manifests) == 1
    outputs = serialize.read_doc(manifests[0])["outputs"]
    assert set(outputs) == {str(out_dir / name) for name in demo.DEMO_DOCUMENTS}


def test_simulate_command(docs, capsys):
    out = docs["root"] / "sim.json"
    plot = docs["root"] / "sim.txt"
    rc = main([
        "simulate", "--system", str(docs["system"]), "--paths", "2",
        "--t-end", "10", "--dt", "0.02", "--seed", "3",
        "--disturbance", "sin:0.5", "--format", "doc",
        "--out", str(out), "--plot-data", str(plot),
    ])
    assert rc == 0
    doc = serialize.read_doc(out)
    assert len(doc["paths"]) == 2
    assert doc["paths"][0]["input_energy"] > 0
    header = plot.read_text().splitlines()[0]
    assert header.startswith("# time")
    data = np.loadtxt(plot)
    assert data.shape[1] == 1 + 4 + 4 + 2  # time, means, diagonals, energies
    # every plot row is the doc trajectory's columns at %.12g
    traj = doc["trajectory"]
    columns = ([traj["time"]] + list(zip(*traj["mean"])) + list(zip(*traj["second_moment_diag"]))
               + [traj["z_energy"], traj["w_energy"]])
    rows = plot.read_text().splitlines()[1:]
    assert len(rows) == len(traj["time"])
    for row, values in zip(rows, zip(*columns)):
        assert row == " ".join("%.12g" % v for v in values)


@pytest.mark.parametrize("extra", [["--paths", "0"], ["--disturbance", "sin:0"],
                                   ["--t-end", "nan"], ["--t-end", "inf"], ["--dt", "nan"]])
def test_simulate_input_errors(docs, capsys, extra):
    rc = main(["simulate", "--system", str(docs["system"]), "--t-end", "5", *extra])
    assert rc == 3
    assert "input error" in capsys.readouterr().err


def test_simulate_deterministic_rerun(docs):
    out1 = docs["root"] / "sim_a.json"
    out2 = docs["root"] / "sim_b.json"
    for out in (out1, out2):
        rc = main(["simulate", "--system", str(docs["system"]), "--paths", "1",
                   "--t-end", "5", "--dt", "0.02", "--seed", "9",
                   "--format", "doc", "--out", str(out)])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_optics_realize_command(docs, capsys):
    rc = main(["optics", "realize", "--controller", str(docs["ctrl"]), "--format", "doc"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["modes"][0]["kappa"] == pytest.approx(3.8761, abs=1e-6)


def test_input_error_exit_code(tmp_path, capsys):
    rc = main(["check-pr", "--controller", str(tmp_path / "missing.json")])
    assert rc == 3
    bad = tmp_path / "bad.json"
    bad.write_text('{"controller": {"modes": [], "theta": {"n": 2, "kind": "canonical"}, "zz": 1}}')
    rc = main(["check-pr", "--controller", str(bad)])
    assert rc == 3


def test_infeasible_exit_code(docs, capsys):
    rc = main(["synth", "--plant", str(docs["plant"]), "--g", "1e-6",
               "--out", str(docs["root"] / "never.json")])
    assert rc == 2


def test_synth_min_g(docs, capsys):
    out = docs["root"] / "min_g" / "ctrl.json"
    rc = main(["synth", "--plant", str(docs["plant"]), "--min-g", "--g-lo", "0.01",
               "--g-hi", "1.0", "--tol-g", "5e-3", "--out", str(out)])
    assert rc == 0
    cert = serialize.read_doc(out.with_suffix(".cert.json"))
    assert cert["lmi_status"] == "feasible"
    assert 0.01 <= cert["g"] <= 1.0
    # the reference plant's least level is near 0.037
    rc = main(["synth", "--plant", str(docs["plant"]), "--min-g", "--g-lo", "0.01",
               "--g-hi", "0.03", "--out", str(docs["root"] / "min_g" / "never.json")])
    assert rc == 2


@pytest.mark.parametrize("tol_g", ["0", "-0.001"])
def test_synth_min_g_rejects_nonpositive_tolerance(docs, capsys, tol_g):
    out = docs["root"] / "min_g_tol" / "ctrl.json"
    rc = main(["synth", "--plant", str(docs["plant"]), "--min-g", "--tol-g", tol_g,
               "--out", str(out)])
    assert rc == 3
    assert "tol_g must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_nonpositive_level_is_input_error(docs, capsys):
    # the level is an input: a bad one is exit 3 even when the loop would fail
    bad = _write_unstable_controller(docs["root"] / "unstable_g0.json")
    rc = main(["analyze", "--plant", str(docs["plant"]), "--controller", str(bad), "--g", "0"])
    assert rc == 3
    assert "attenuation level must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("level, named", [
    (["--g", "nan"], "g=nan"),
    (["--g", "inf"], "g=inf"),
    (["--min-g", "--g-hi", "inf"], "g_hi=inf"),
])
def test_synth_non_finite_level_is_input_error(docs, capsys, level, named):
    out = docs["root"] / "non_finite" / "ctrl.json"
    rc = main(["synth", "--plant", str(docs["plant"]), *level, "--out", str(out)])
    assert rc == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, named", [
    (["synth", "--g", "1e300"], "g=1e+300"),
    (["synth", "--min-g", "--g-hi", "1e200"], "g_hi=1e+200"),
    (["analyze", "--g", "1e300"], "g=1e+300"),
])
def test_level_with_overflowing_square_is_input_error(docs, capsys, command, named):
    out = docs["root"] / "overflow" / "ctrl.json"
    args = [*command, "--plant", str(docs["plant"])]
    args += ["--controller", str(docs["ctrl"])] if command[0] == "analyze" else ["--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(args)
    assert rc == 3
    err = capsys.readouterr().err
    assert named in err and "square is not finite" in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_analyze_infinite_level_is_input_error(docs, capsys):
    rc = main(["analyze", "--plant", str(docs["plant"]), "--controller", str(docs["ctrl"]),
               "--g", "inf"])
    assert rc == 3
    assert "g=inf" in capsys.readouterr().err


def test_synth_min_g_budget_exhausted(docs, capsys):
    out = docs["root"] / "min_g_budget" / "ctrl.json"
    rc = main(["synth", "--plant", str(docs["plant"]), "--min-g", "--tol-g", "5e-3",
               "--max-iter", "80", "--out", str(out)])
    assert rc == 2
    assert "not within tol_g" in capsys.readouterr().err
    assert not out.exists()


def test_synth_budget_exhausted_is_not_infeasible(docs, capsys):
    out = docs["root"] / "budget" / "ctrl.json"
    rc = main(["synth", "--plant", str(docs["plant"]), "--g", "0.05", "--max-iter", "0",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("synthesis failed:") and "budget ran out" in err
    assert not out.exists()


def test_cli_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate pulls in optimize, sparse, spatial and special, which
    # cost about a third of a second of start-up and nothing in qhinf uses
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, qhinf.cli; print('scipy.integrate' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def demo_docs(tmp_path_factory):
    """``demo-paper --quick`` documents plus one system document joining the
    plant with the synthesized controller."""
    root = tmp_path_factory.mktemp("demo_docs")
    rc = main(["demo-paper", "--quick", "--out-dir", str(root), "--out", str(root / "r.txt")])
    assert rc == 0
    plant = serialize.read_doc(root / "plant.json")
    ctrl = serialize.read_doc(root / "controller_synthesized.json")
    system = root / "system.json"
    serialize.write_doc(system, {**plant, "controller": ctrl["controller"]})
    return {"root": root, "plant": root / "plant.json",
            "ctrl": root / "controller_synthesized.json", "system": system}


def test_simulate_coarse_step_matches_fine_step(demo_docs):
    # the loop's fastest mode is about -86; the propagation is exact, so a
    # step that RK4 could not take only thins the sampled trajectory
    energies = []
    for dt in ("0.1", "0.01"):
        out = demo_docs["root"] / f"sim_dt{dt}.json"
        assert main(["simulate", "--system", str(demo_docs["system"]), "--paths", "1",
                     "--t-end", "5", "--dt", dt, "--disturbance", "step",
                     "--format", "doc", "--out", str(out)]) == 0
        (path,) = serialize.read_doc(out)["paths"]
        energies.append(np.array([path["output_energy"], path["input_energy"]]))
    coarse, fine = energies
    assert np.max(np.abs(coarse - fine) / fine) <= 1e-9


def test_check_pr_rejects_negative_tolerance(demo_docs, capsys):
    rc = main(["check-pr", "--controller", str(demo_docs["ctrl"]), "--tol", "-1"])
    assert rc == 3
    assert "tol must be finite and nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("flag, named", [
    (["--g", "0.05", "--tol", "-1"], "tol must be finite and nonnegative"),
    (["--g", "0.05", "--max-iter", "-1"], "max_iter must be nonnegative"),
    (["--g", "0.05", "--eps-strict", "nan"], "eps_strict must be finite and positive"),
    (["--min-g", "--tol", "-1"], "tol must be finite and nonnegative"),
])
def test_synth_rejects_bad_solver_arguments(demo_docs, capsys, flag, named):
    out = demo_docs["root"] / "bad_solver" / "ctrl.json"
    rc = main(["synth", "--plant", str(demo_docs["plant"]), *flag, "--out", str(out)])
    assert rc == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_demo_rejects_zero_paths_before_the_design(tmp_path, capsys, monkeypatch):
    from qhinf import synthesis

    def design(*args, **kwargs):
        raise AssertionError("the design ran before the path count was checked")

    monkeypatch.setattr(synthesis, "min_attenuation", design)
    rc = main(["demo-paper", "--paths", "0", "--out-dir", str(tmp_path / "demo")])
    assert rc == 3
    assert "n_paths must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "demo").exists()
