import importlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qhinf
from qhinf import analysis, demo, jumpsim, lmi, realizability, serialize
from qhinf.cli import main
from qhinf.qmodel import (
    J2, Controller, ControllerMode, JumpPlant, TransitionRateMatrix, make_commutation_matrix,
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
    assert cert["certified"] is True and cert["certificate_margin"] >= cert["eps_strict"]
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


@pytest.fixture
def zero_feedthrough_ctrl(docs, tmp_path):
    """The tabulated controller with its noise blocks kept and D set to 0."""
    doc = json.loads(docs["ctrl"].read_text())
    for mode in doc["controller"]["modes"]:
        mode["D"] = [[0.0] * len(row) for row in mode["D"]]
    path = tmp_path / "ctrl_d0.json"
    path.write_text(json.dumps(doc))
    return path


def test_check_pr_reads_the_feedthrough(zero_feedthrough_ctrl, capsys):
    # with D = [I 0] the same controller passes at 5e-3 (test_check_pr_pass_and_fail)
    rc = main(["check-pr", "--controller", str(zero_feedthrough_ctrl), "--tol", "5e-3",
               "--format", "doc"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["realizable"] is False
    assert all(r >= 1.0 for r in doc["output_residuals"])


def test_optics_realize_refuses_another_feedthrough(zero_feedthrough_ctrl, capsys):
    rc = main(["optics", "realize", "--controller", str(zero_feedthrough_ctrl)])
    assert rc == 3
    captured = capsys.readouterr()
    assert "feedthrough D must be [I 0]" in captured.err
    assert "kappa=" not in captured.out


def test_optics_realize_names_the_phase_conjugating_repair_channel(demo_docs, capsys):
    # the demo's augmented design repairs each mode with E_extra = c diag(1, -1);
    # that, not a rounding-level mismatch between E_out's entries, is why
    # no mirror realizes it
    rc = main(["optics", "realize", "--controller", str(demo_docs["ctrl"])])
    assert rc == 3
    err = capsys.readouterr().err
    assert ("the repair channel E_extra = diag(70.83, -70.83) is phase-conjugating" in err
            and "kappa3 = 5017 also exceeds the decay budget kappa = -tr A = 132" in err)
    assert "first noise block" not in err


def test_check_pr_of_a_raw_synthesized_controller_is_standard_json(docs, capsys):
    raw = docs["root"] / "raw" / "ctrl.json"
    assert main(["synth", "--plant", str(docs["plant"]), "--g", "0.5", "--out", str(raw)]) == 0
    capsys.readouterr()
    assert main(["check-pr", "--controller", str(raw), "--format", "doc"]) == 1
    doc = json.loads(capsys.readouterr().out,
                     parse_constant=lambda name: pytest.fail(f"non-finite {name} written"))
    # no noise channel carries the output, so its whole column Theta C^T J is the defect
    _, ctrl, _ = serialize.parse_system_doc(serialize.read_doc(raw))
    assert ctrl.n_nu == 0
    assert doc["output_residuals"] == [
        float(np.max(np.abs(ctrl.theta_k @ m.c.T @ J2))) for m in ctrl.modes]


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
    assert "abscissas" not in doc
    # the coupled Lyapunov storage certifies this loop with no Newton step;
    # its t is minus its margin
    assert doc["coupled_status"] == "feasible" and doc["coupled_margin"] >= 1e-6
    assert doc["coupled_newton_steps"] == 0
    assert (doc["coupled_shift_steps"], doc["coupled_objective_steps"]) == (0, 0)
    assert doc["coupled_notes"] == ["coupled Lyapunov storage"]
    assert doc["coupled_t"] == -doc["coupled_margin"]
    # the barrier solve of the same problem stops at its first verified Newton iterate
    loop = analysis.assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    barrier = lmi.solve_feasibility(analysis.coupled_problem(loop, 0.5))
    assert (barrier.status, barrier.iterations, barrier.objective_iterations) == ("feasible", 10, 0)
    assert {k for k in doc if k.startswith("coupled_")} == {
        f"coupled_{k}" for k in ("status", "newton_steps", "shift_steps", "objective_steps",
                                 "margin", "t", "gap", "notes")}
    # realizability is not part of the certificate; analyze reports it beside the verdict
    residual = realizability.check_controller_realizability(demo.reference_controller()).worst()
    assert doc["realizability_residual"] == residual
    # the doc carries the noise offset constant that the text prints
    report = analysis.verify_closed_loop(demo.reference_plant(), demo.reference_controller(), 0.5)
    assert doc["noise_offset"] == report.noise_offset > 0
    rc = main(["analyze", "--plant", str(docs["plant"]), "--controller", str(docs["ctrl"]),
               "--g", "0.5"])
    assert rc == 0
    text = capsys.readouterr().out
    assert (f"coupled certificate: feasible, 0 Newton steps, "
            f"margin {doc['coupled_margin']:.3e} (lyapunov route)\n") in text
    assert f"  noise offset constant: {doc['noise_offset']:.4g}\n" in text


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


def test_analyze_unstable_mode_fails_coupled_check(docs, capsys):
    bad = _write_unstable_controller(docs["root"] / "unstable.json")
    args = ["analyze", "--plant", str(docs["plant"]), "--controller", str(bad), "--g", "100"]
    assert main(args) == 1
    text = capsys.readouterr().out
    assert main(args + ["--format", "doc"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc["coupled_margin"], float) and doc["coupled_margin"] <= 0
    assert doc["passed"] is False
    assert doc["noise_offset"] is None and "noise offset" not in text
    # an infeasible solve never reaches the first-certificate stop
    assert doc["coupled_status"] == "infeasible-at-tolerance"
    assert doc["coupled_newton_steps"] == 84
    assert (f"coupled certificate: infeasible-at-tolerance, 84 Newton steps, "
            f"margin {doc['coupled_margin']:.3e} (barrier route)\n") in text


def _write_unstable_mode_system(root, rates):
    """Plant and zero-controller documents of a two-mode loop whose second
    mode drifts away (A_2 = +0.1 I); the rates decide mean-square stability."""
    eye = np.eye(2)
    plant = JumpPlant(a_modes=(-eye, 0.1 * eye), b1=eye, b2=eye, c1=eye, d1=-eye,
                      c2=eye, d2=-eye, theta=make_commutation_matrix(2),
                      rates=TransitionRateMatrix(rates))
    modes = tuple(ControllerMode(-eye, np.zeros((2, 2)), np.zeros((2, 2)),
                                 np.zeros((2, 0)), np.zeros((2, 0))) for _ in range(2))
    plant_path = serialize.write_doc(root / "plant.json", serialize.system_to_doc(plant=plant))
    ctrl_path = serialize.write_doc(root / "ctrl.json", serialize.system_to_doc(
        controller=Controller(modes, make_commutation_matrix(2)), rates=plant.rates))
    return ["analyze", "--plant", str(plant_path), "--controller", str(ctrl_path),
            "--g", "5", "--format", "doc"]


def test_analyze_certifies_briefly_visited_unstable_mode(tmp_path, capsys):
    args = _write_unstable_mode_system(tmp_path, [[-0.1, 0.1], [5.0, -5.0]])
    assert main(args) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "hurwitz" not in doc and "abscissas" not in doc
    assert doc["coupled_status"] == "feasible"
    assert doc["coupled_notes"] == ["coupled Lyapunov storage"]
    assert isinstance(doc["coupled_margin"], float) and doc["coupled_margin"] > 0
    assert doc["passed"] is True


def test_analyze_rejects_long_visited_unstable_mode(tmp_path, capsys):
    args = _write_unstable_mode_system(tmp_path, [[-1.0, 1.0], [0.1, -0.1]])
    assert main(args) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


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


def test_simulate_plot_data_creates_its_directory(docs, capsys):
    plot = docs["root"] / "plots" / "nested" / "sim.txt"
    rc = main(["simulate", "--system", str(docs["system"]), "--t-end", "5",
               "--plot-data", str(plot)])
    assert rc == 0
    assert plot.read_text().startswith("# time")
    manifest = serialize.read_doc(str(plot) + ".manifest.json")
    assert list(manifest["outputs"]) == [str(plot)]


@pytest.mark.parametrize("extra", [["--paths", "0"], ["--disturbance", "sin:0"],
                                   ["--t-end", "nan"], ["--t-end", "inf"], ["--dt", "nan"],
                                   ["--t-end", "100", "--dt", "1e-12"],  # 1e14 samples
                                   ["--disturbance", "bogus"]])
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


def test_simulate_diverging_moments_exit_1(tmp_path, capsys):
    # A_K + 30 I makes every mode of the loop unstable, so the moments
    # overflow; that used to exit 3 as "input error: Eigenvalues did not converge"
    ctrl = demo.reference_controller()
    ctrl = Controller(tuple(ControllerMode(m.a + 30.0 * np.eye(len(m.a)), m.b, m.c, m.d, m.e)
                            for m in ctrl.modes), ctrl.theta_k)
    system = tmp_path / "diverging.json"
    serialize.write_doc(system, serialize.system_to_doc(plant=demo.reference_plant(),
                                                        controller=ctrl))
    out = tmp_path / "sim.json"
    rc = main(["simulate", "--system", str(system), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: path 0: moments are not finite from t = ")
    assert not out.exists() and not list(tmp_path.glob("*.manifest.json"))


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


@pytest.mark.parametrize("argv", [
    pytest.param(["check-pr", "--controller", "{root}"], id="directory input"),
    pytest.param(["analyze", "--plant", "{plant}", "--controller", "{ctrl}", "--g", "0.5",
                  "--out", "{blocker}/x.json"], id="report under a regular file"),
])
def test_unusable_path_is_input_error(docs, tmp_path, argv):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qhinf.cli", *(a.format(blocker=blocker, **docs) for a in argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3
    assert "input error" in proc.stderr
    assert "Traceback" not in proc.stderr


_DEMO_FILES = [f"d/{name}" for name in demo.DEMO_DOCUMENTS]


@pytest.mark.parametrize("argv, written", [
    pytest.param(["synth", "--plant", "{plant}", "--g", "0.5", "--out", "{run}/c.json"],
                 ["c.json", "c.cert.json"], id="synth"),
    pytest.param(["augment", "--controller", "{ctrl}", "--out", "{run}/a.json"], ["a.json"],
                 id="augment"),
    pytest.param(["check-pr", "--controller", "{ctrl}", "--tol", "5e-3"], [], id="check-pr"),
    pytest.param(["check-pr", "--controller", "{ctrl}", "--tol", "5e-3",
                  "--out", "{run}/pr.txt"], ["pr.txt"], id="check-pr --out"),
    pytest.param(["analyze", "--plant", "{plant}", "--controller", "{ctrl}", "--g", "0.5"], [],
                 id="analyze"),
    pytest.param(["analyze", "--plant", "{plant}", "--controller", "{ctrl}", "--g", "0.5",
                  "--format", "doc", "--out", "{run}/an.json"], ["an.json"], id="analyze --out"),
    pytest.param(["optics", "realize", "--controller", "{ctrl}"], [], id="optics"),
    pytest.param(["optics", "realize", "--controller", "{ctrl}", "--out", "{run}/op.txt"],
                 ["op.txt"], id="optics --out"),
    pytest.param(["simulate", "--system", "{system}", "--t-end", "5"], [], id="simulate"),
    pytest.param(["simulate", "--system", "{system}", "--t-end", "5", "--out", "{run}/s.txt"],
                 ["s.txt"], id="simulate --out"),
    pytest.param(["simulate", "--system", "{system}", "--t-end", "5",
                  "--plot-data", "{run}/p/s.dat"], ["p/s.dat"], id="simulate --plot-data"),
    pytest.param(["simulate", "--system", "{system}", "--t-end", "5", "--out", "{run}/s.txt",
                  "--plot-data", "{run}/p/s.dat"], ["p/s.dat", "s.txt"],
                 id="simulate --out --plot-data"),
    pytest.param(["demo-paper", "--quick", "--tol-g", "0.2"], [], id="demo-paper"),
    pytest.param(["demo-paper", "--quick", "--tol-g", "0.2", "--out-dir", "{run}/d"],
                 _DEMO_FILES, id="demo-paper --out-dir"),
    pytest.param(["demo-paper", "--quick", "--tol-g", "0.2", "--out", "{run}/r.txt"],
                 ["r.txt"], id="demo-paper --out"),
    pytest.param(["demo-paper", "--quick", "--tol-g", "0.2", "--out-dir", "{run}/d",
                  "--out", "{run}/r.txt"], [*_DEMO_FILES, "r.txt"],
                 id="demo-paper --out-dir --out"),
])
def test_every_run_that_writes_files_writes_one_manifest(docs, tmp_path, capsys, argv, written):
    # written: the files of the run in write order, the command's own first
    run = tmp_path / "run"
    run.mkdir()
    assert main([a.format(run=run, **docs) for a in argv]) == 0
    manifests = sorted(run.rglob("*.manifest.json"))
    files = {str(p) for p in run.rglob("*") if p.is_file()} - {str(m) for m in manifests}
    assert files == {str(run / name) for name in written}
    if not written:
        assert manifests == []
        return
    assert manifests == [Path(f"{run / written[0]}.manifest.json")]
    # canonical JSON sorts the keys; the write order shows as the manifest's place
    outputs = serialize.read_doc(manifests[0])["outputs"]
    assert list(outputs) == sorted(str(run / name) for name in written)
    assert all(outputs[str(run / name)] == serialize.file_digest(run / name)
               for name in written)


@pytest.mark.parametrize("argv, missing", [
    (["synth", "--g", "0.5", "--plant", "{ctrl}"], "'plant'"),
    (["check-pr", "--controller", "{plant}"], "'controller'"),
    (["augment", "--controller", "{plant}"], "'controller'"),
    (["analyze", "--plant", "{ctrl}", "--controller", "{ctrl}", "--g", "0.5"], "'plant'"),
    (["simulate", "--system", "{rates}"], "'plant' and no 'controller'"),
    (["optics", "realize", "--controller", "{plant}"], "'controller'"),
])
def test_document_without_a_needed_section_is_input_error(docs, capsys, argv, missing):
    rates = docs["root"] / "rates.json"
    serialize.write_doc(rates, {"rates": json.loads(docs["plant"].read_text())["rates"]})
    paths = {"plant": docs["plant"], "ctrl": docs["ctrl"], "rates": rates}
    assert main([arg.format(**paths) for arg in argv]) == 3
    captured = capsys.readouterr()
    assert f"the document has no {missing} section" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("modes", [5, None])
def test_non_list_controller_modes_is_input_error(docs, tmp_path, capsys, modes):
    doc = json.loads(docs["ctrl"].read_text())
    doc["controller"]["modes"] = modes
    bad = tmp_path / "ctrl.json"
    bad.write_text(json.dumps(doc))
    assert main(["check-pr", "--controller", str(bad)]) == 3
    err = capsys.readouterr().err
    assert "controller.modes" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["optics", "realize"], ["check-pr"]])
def test_non_finite_controller_entry_is_input_error(docs, tmp_path, capsys, command):
    # a NaN gain used to print chi'=nan with exit 0, or fail check-pr with exit 1
    doc = json.loads(docs["ctrl"].read_text())
    doc["controller"]["modes"][0]["B"][0][0] = float("nan")
    bad = tmp_path / "ctrl.json"
    bad.write_text(json.dumps(doc))
    assert main([*command, "--controller", str(bad)]) == 3
    captured = capsys.readouterr()
    assert "controller.modes[0].B: entries must be finite" in captured.err
    assert "nan" not in captured.out


@pytest.mark.parametrize("kappa_prime", ["nan", "inf", "0", "-1"])
def test_optics_bad_kappa_prime_is_input_error(docs, capsys, kappa_prime):
    rc = main(["optics", "realize", "--controller", str(docs["ctrl"]),
               "--kappa-prime", kappa_prime])
    assert rc == 3
    captured = capsys.readouterr()
    assert "kappa_prime" in captured.err and "chi'" not in captured.out


@pytest.mark.parametrize("null_dim", [2.0, "2"])
def test_non_integer_null_dim_is_input_error(docs, tmp_path, capsys, null_dim):
    doc = json.loads(docs["plant"].read_text())
    doc["plant"]["theta"] = {"n": 2, "kind": "degenerate", "null_dim": null_dim}
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(doc))
    rc = main(["synth", "--plant", str(plant), "--g", "0.5", "--out", str(tmp_path / "c.json")])
    assert rc == 3
    assert "null_dim" in capsys.readouterr().err


def test_null_theta_n_is_input_error(docs, tmp_path, capsys):
    doc = json.loads(docs["plant"].read_text())
    doc["plant"]["theta"]["n"] = None
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(doc))
    rc = main(["synth", "--plant", str(plant), "--g", "0.5", "--out", str(tmp_path / "c.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "plant.theta.n" in err and "Traceback" not in err


def test_degenerate_theta_kind_is_input_error(docs, tmp_path, capsys):
    doc = json.loads(docs["plant"].read_text())
    doc["plant"]["theta"]["kind"] = "degenerate"
    plant = tmp_path / "plant.json"
    plant.write_text(json.dumps(doc))
    rc = main(["synth", "--plant", str(plant), "--g", "0.5", "--out", str(tmp_path / "c.json")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "plant.theta.kind" in err and "Traceback" not in err
    assert not (tmp_path / "c.json").exists()


def test_controller_theta_dimension_mismatch_is_input_error(docs, tmp_path, capsys):
    doc = json.loads(docs["ctrl"].read_text())
    doc["controller"]["theta"]["n"] = 4  # the controller state has dimension 2
    ctrl = tmp_path / "ctrl.json"
    ctrl.write_text(json.dumps(doc))
    assert main(["check-pr", "--controller", str(ctrl)]) == 3
    err = capsys.readouterr().err
    assert "controller theta_k must be the canonical" in err and "Traceback" not in err


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
    # the manifest records the search that ran, not its result
    params = serialize.read_doc(str(out) + ".manifest.json")["params"]
    assert params == {
        "command": "synth", "plant": str(docs["plant"]), "g": None, "min_g": True,
        "g_lo": 0.01, "g_hi": 1.0, "tol_g": 5e-3, "augment": False, "out": str(out),
    }
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


def test_synth_min_g_rejects_a_bracket_too_thin_to_certify(docs, capsys):
    # no margin of this bracket can reach EPS_STRICT: an input error, not "infeasible"
    out = docs["root"] / "min_g_thin" / "ctrl.json"
    rc = main(["synth", "--plant", str(docs["plant"]), "--min-g", "--g-lo", "0.04",
               "--g-hi", "0.04002", "--out", str(out)])
    assert rc == 3
    assert "bracket [0.04, 0.04002] is too thin" in capsys.readouterr().err
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


def test_plant_with_overflowing_products_is_input_error(docs, capsys):
    # C1^T C1 overflows: the LMI engine names the constraint, and nothing is printed first
    doc = json.loads(docs["plant"].read_text())
    doc["plant"]["C1"][0][0] = 1e200
    plant = docs["root"] / "overflow" / "plant.json"
    plant.parent.mkdir(exist_ok=True)
    plant.write_text(json.dumps(doc))
    out = docs["root"] / "overflow" / "big_c1_ctrl.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["synth", "--plant", str(plant), "--g", "0.5", "--out", str(out)])
    assert rc == 3
    assert "constraint 0 has a non-finite constant or coefficient" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.mark.parametrize("block", ["B2", "D2"])
def test_plant_with_overflowing_newton_system_is_input_error(demo_docs, capsys, block):
    # the coefficients are finite but their Gram products in the Newton system are not
    doc = json.loads(demo_docs["plant"].read_text())
    doc["plant"][block][0][0] = 1e200
    plant = demo_docs["root"] / "overflow" / f"big_{block}_plant.json"
    plant.parent.mkdir(exist_ok=True)
    plant.write_text(json.dumps(doc))
    out = demo_docs["root"] / "overflow" / f"big_{block}_ctrl.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["synth", "--plant", str(plant), "--g", "0.5", "--out", str(out)])
    assert rc == 3
    assert "the Newton system is not finite" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_manifest_records_the_arguments_main_parsed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["prog", "--grid", "2x3"])
    argv = ["demo-paper", "--quick", "--tol-g", "0.2", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    (manifest,) = tmp_path.glob("*.manifest.json")
    assert serialize.read_doc(manifest)["command"] == argv


def test_console_script_entry_point_reports_the_version(capsys):
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    module, _, attr = scripts["qhinf"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    with pytest.raises(SystemExit) as exc:
        entry(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"qhinf {qhinf.__version__}"


def test_analyze_infinite_level_is_input_error(docs, capsys):
    rc = main(["analyze", "--plant", str(docs["plant"]), "--controller", str(docs["ctrl"]),
               "--g", "inf"])
    assert rc == 3
    assert "g=inf" in capsys.readouterr().err


def test_synth_min_g_budget_exhausted(docs, capsys, monkeypatch):
    out = docs["root"] / "min_g_budget" / "ctrl.json"
    monkeypatch.setattr(lmi, "MAX_ITER", 60)
    solutions = []
    solve = lmi.solve_feasibility

    def recording(*args, **kwargs):
        solutions.append(solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(lmi, "solve_feasibility", recording)
    rc = main(["synth", "--plant", str(docs["plant"]), "--min-g", "--tol-g", "5e-3",
               "--out", str(out)])
    assert rc == 2
    assert "not within tolerance" in capsys.readouterr().err
    assert not out.exists()
    # the budget ran out inside the objective phase
    assert [s.objective_iterations > 0 for s in solutions] == [True]


def test_synth_budget_exhausted_is_not_infeasible(docs, capsys, monkeypatch):
    out = docs["root"] / "budget" / "ctrl.json"
    monkeypatch.setattr(lmi, "MAX_ITER", 0)
    rc = main(["synth", "--plant", str(docs["plant"]), "--g", "0.05", "--out", str(out)])
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
    # step far longer than that time scale only thins the sampled trajectory
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


def test_demo_report_records_the_certificate_solve(demo_docs):
    report = serialize.read_doc(demo_docs["root"] / "report.json")
    (check,) = [c for c in report["checks"]
                if c["name"] == "closed loop certified at minimised level"]
    assert check["status"] == "PASS"
    # the level search's own storage certifies the loop; no solve is made
    assert check["detail"].startswith("storage margin 9.14")
    assert "abscissas" not in check["detail"]


def test_full_demo_runs_the_simulation_probe(tmp_path, capsys):
    out_dir = tmp_path / "demo"
    doc = tmp_path / "report_doc.json"
    rc = main(["demo-paper", "--paths", "2", "--format", "doc", "--out-dir", str(out_dir),
               "--out", str(doc)])
    assert rc == 0
    assert doc.read_bytes() == (out_dir / "report.json").read_bytes()
    report = serialize.read_doc(doc)
    (probe,) = [c for c in report["checks"]
                if c["name"] == "simulated energy ratios stay below the certified level"]
    assert probe["status"] == "PASS"


def test_check_pr_rejects_negative_tolerance(demo_docs, capsys):
    rc = main(["check-pr", "--controller", str(demo_docs["ctrl"]), "--tol", "-1"])
    assert rc == 3
    assert "tol must be finite and nonnegative" in capsys.readouterr().err


def _exit_code(argv):
    """main's exit code, whether main returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flag, named", [
    # the solver has no tolerance option, and no abbreviation reaches --tol-g;
    # its threshold and budget are lmi.EPS_STRICT and lmi.MAX_ITER, not options
    (["--g", "0.05", "--tol", "-1"], "unrecognized arguments: --tol"),
    (["--g", "0.05", "--max-iter", "400"], "unrecognized arguments: --max-iter"),
    (["--g", "0.05", "--eps-strict", "1e-6"], "unrecognized arguments: --eps-strict"),
])
def test_synth_rejects_bad_solver_arguments(demo_docs, capsys, flag, named):
    out = demo_docs["root"] / "bad_solver" / "ctrl.json"
    assert _exit_code(["synth", "--plant", str(demo_docs["plant"]), *flag, "--out", str(out)]) == 3
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_demo_level_search_is_the_synth_cert_record(demo_docs):
    # demo-paper and synth --min-g run the same level search, and both
    # documents write its record
    out = demo_docs["root"] / "min_g_record" / "ctrl.json"
    assert main(["synth", "--plant", str(demo_docs["plant"]), "--min-g", "--g-lo", "0.01",
                 "--g-hi", "1.0", "--tol-g", "5e-3", "--out", str(out)]) == 0
    cert = serialize.read_doc(out.with_suffix(".cert.json"))
    search = serialize.read_doc(demo_docs["root"] / "report.json")["level_search"]
    assert set(search) == {"status", "newton_steps", "shift_steps", "objective_steps",
                           "margin", "t", "gap", "notes"}
    assert {f"lmi_{k}": v for k, v in search.items()} == {
        k: v for k, v in cert.items() if k.startswith("lmi_")}


def test_synth_writes_a_design_that_does_not_certify_and_exits_1(demo_docs, capsys,
                                                                   monkeypatch):
    # the level search's design checked at 0.03, below its g*: the storage
    # certificate fails, and synth still writes both files before it exits 1
    from qhinf import synthesis

    certify = synthesis.certify_design

    def below_g_star(plant, result, ctrl, g, **kwargs):
        return certify(plant, result, ctrl, 0.03, **kwargs)

    monkeypatch.setattr(synthesis, "certify_design", below_g_star)
    out = demo_docs["root"] / "not_certified" / "ctrl.json"
    assert main(["synth", "--plant", str(demo_docs["plant"]), "--min-g", "--tol-g", "5e-3",
                 "--out", str(out)]) == 1
    cert = serialize.read_doc(out.with_suffix(".cert.json"))
    assert cert["certified"] is False and cert["certificate_margin"] < 0
    assert cert["lmi_status"] == "feasible" and out.exists()
    manifest = serialize.read_doc(str(out) + ".manifest.json")
    assert set(manifest["outputs"]) == {str(out), str(out.with_suffix(".cert.json"))}
    assert "does not certify at g = 0.039478 (storage margin -" in capsys.readouterr().err


def test_demo_rejects_zero_paths_before_the_design(tmp_path, capsys, monkeypatch):
    from qhinf import synthesis

    def design(*args, **kwargs):
        raise AssertionError("the design ran before the path count was checked")

    monkeypatch.setattr(synthesis, "min_attenuation", design)
    rc = main(["demo-paper", "--paths", "0", "--out-dir", str(tmp_path / "demo")])
    assert rc == 3
    assert "n_paths must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "demo").exists()


@pytest.mark.parametrize("argv", [
    ["synth", "--bogus", "1"],
    ["analyze", "--plant", "p.json", "--controller", "c.json", "--g", "abc"],
    [],
    ["synth", "--plant", "p.json", "--g", "0.5", "--format", "doc"],
    ["augment", "--controller", "c.json", "--format", "text"],
    # synth takes exactly one level option: --min-g would drop --g unread
    ["synth", "--plant", "p.json", "--g", "0.05", "--min-g"],
    ["synth", "--plant", "p.json"],
])
def test_usage_errors_exit_3(argv, capsys):
    # 2 means infeasible or undecided synthesis, so argparse's own 2 is not used;
    # synth and augment write documents only and take no --format
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_simulate_later_paths_report_exact_energies(demo_docs):
    # path 0 is sampled on the --dt grid; later paths run one step per fault
    # segment, and their energies match a run on the same grid
    out = demo_docs["root"] / "sim_paths.json"
    assert main(["simulate", "--system", str(demo_docs["system"]), "--paths", "3",
                 "--t-end", "100", "--dt", "0.05", "--seed", "4", "--disturbance", "sin:0.5",
                 "--format", "doc", "--out", str(out)]) == 0
    doc = serialize.read_doc(out)
    assert len(doc["trajectory"]["time"]) == 401  # 2000 grid points at stride 5
    plant, ctrl, _ = serialize.parse_system_doc(serialize.read_doc(demo_docs["system"]))
    loop = qhinf.assemble_closed_loop(plant, ctrl)
    disturbance = jumpsim.Disturbance("sin:0.5", np.eye(loop.n_w)[0], "sin", 0.5)
    for p, record in enumerate(doc["paths"]):
        path = jumpsim.sample_markov_path(loop.rates, 100.0, seed=jumpsim.path_seed(4, p))
        traj = jumpsim.propagate_moments(loop, path, disturbance, np.zeros(loop.n),
                                         np.eye(loop.n), 0.05)
        assert record["jump_times"] == list(path.jump_times)
        for key, value in (("output_energy", traj.output_energy),
                           ("input_energy", traj.input_energy)):
            assert abs(record[key] - value) <= 1e-10 * abs(value)

