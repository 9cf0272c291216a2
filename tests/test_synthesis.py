import importlib.util
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from qhinf import demo, lmi, realizability, serialize
from qhinf.analysis import coupled_mode_check, verify_closed_loop
from qhinf.qmodel import (
    Controller,
    JumpPlant,
    TransitionRateMatrix,
    assemble_closed_loop,
    make_commutation_matrix,
)
from qhinf.synthesis import (
    COND_LIMIT,
    LmiInfeasibleError,
    SynthesisError,
    _congruenced_blocks,
    _result,
    _storage,
    build_hinf_lmis,
    certify_design,
    min_attenuation,
    synthesize,
)


def test_build_problem_variable_inventory():
    plant = demo.reference_plant()
    problem = build_hinf_lmis(plant, 0.5)
    names = {v.name for v in problem.variables}
    assert names == {f"{p}{i}" for p in "XYLF" for i in (1, 2, 3)}
    for v in problem.variables:
        assert v.symmetric == (v.name[0] in "XY")
    # per mode: observer block, coupling block, state-feedback block; the
    # state-feedback block carries n + n_z + n_w + n (N - 1) rows
    assert len(problem.constraints) == 9
    dims = sorted(c.expr.dim for c in problem.constraints)
    assert dims == [4, 4, 4, 4, 4, 4, 10, 10, 10]


def test_build_problem_single_mode_reduction():
    # with one mode and zero rates the rate-coupling rows vanish: the
    # state-feedback block shrinks to (n + n_z + n_w) instead of
    # (n + n_z + n_w + n(N-1))
    problem = build_hinf_lmis(_single_mode_plant(), 2.0)
    dims = sorted(c.expr.dim for c in problem.constraints)
    assert dims == [4, 4, 6]
    three_mode = build_hinf_lmis(demo.reference_plant(), 2.0)
    assert max(c.expr.dim for c in three_mode.constraints) == 2 + 2 + 2 + 2 * 2


def test_build_rejects_nonpositive_g():
    with pytest.raises(ValueError, match="positive"):
        build_hinf_lmis(demo.reference_plant(), 0.0)


def _solution(assignment):
    # a feasible verdict carrying a given assignment, as a solve returns it
    return lmi.LmiSolution(assignment, 1.0, 0, "feasible", -1.0, ())


def _diagonal_scalar_plant(d1, d2):
    # the scalar data A=-1, B1=B2=C1=C2=1 on two decoupled coordinates, zero rates
    eye = np.eye(2)
    return JumpPlant(
        a_modes=(-eye,), b1=eye, b2=eye, c1=eye, d1=d1 * eye, c2=eye, d2=d2 * eye,
        theta=make_commutation_matrix(2), rates=TransitionRateMatrix(np.zeros((1, 1))),
    )


def test_reconstruct_mode_scalar_oracle():
    # frozen hand-computed values for scalar data on both coordinates:
    # A=-1, B1=B2=C1=C2=1, D1=0.5, D2=-0.3, rates=0, g=2,
    # X=2, Y=1, L=-3, F=-0.5
    eye = np.eye(2)
    solution = _solution({"X1": 2.0 * eye, "Y1": eye, "L1": -3.0 * eye, "F1": -0.5 * eye})
    (mode,) = _result(_diagonal_scalar_plant(0.5, -0.3), 2.0, solution).controller.modes
    np.testing.assert_allclose(mode.c, -0.5 * eye, atol=1e-15)
    np.testing.assert_allclose(mode.b, 3.0 * eye, atol=1e-15)
    np.testing.assert_allclose(mode.a, -5.525 * eye, atol=1e-14)


def test_reconstruct_rejects_coupling_degeneracy():
    # Y = 2, X = 0.5: Y^-1 - X = 0
    eye = np.eye(2)
    solution = _solution({"X1": 0.5 * eye, "Y1": 2.0 * eye, "L1": eye, "F1": eye})
    with pytest.raises(SynthesisError, match=r"\(Y_1\^-1 - X_1\) is singular"):
        _result(_diagonal_scalar_plant(1.0, 1.0), 2.0, solution)


def _completion_term(plant, g, assignment, i):
    # the nine-term completion M_i, written out as a reference for _result
    x, y, l, f = (assignment[f"{v}{i + 1}"] for v in "XYLF")
    a, b1, b2, c1, d1, c2, d2 = (plant.a_modes[i], plant.b1, plant.b2, plant.c1,
                                 plant.d1, plant.c2, plant.d2)
    m = (-a.T - x @ a @ y - x @ b2 @ f - l @ c2 @ y - c1.T @ (c1 @ y + d1 @ f)
         - (x @ b1 + l @ d2) @ b1.T / (g * g))
    for j, rate in enumerate(plant.rates.pi[i]):
        m = m - rate * np.linalg.inv(assignment[f"Y{j + 1}"]) @ y
    return m


def _seeded_assignment(plant, seed):
    # X_i > Y_i^-1 > 0, as the coupling condition asks, with random gains
    rng = np.random.default_rng(seed)
    n, assignment = plant.n, {}
    for i in range(1, plant.n_modes + 1):
        r, q = rng.standard_normal((2, n, n))
        y = r @ r.T / n + np.eye(n)
        assignment[f"Y{i}"] = y
        assignment[f"X{i}"] = np.linalg.inv(y) + q @ q.T / n + np.eye(n)
        assignment[f"L{i}"] = rng.standard_normal((n, plant.n_y))
        assignment[f"F{i}"] = rng.standard_normal((plant.n_u, n))
    return assignment


@pytest.mark.parametrize("seed, n, modes", [(0, 2, 3), (1, 4, 3), (2, 4, 2), (3, 6, 3)])
def test_reconstruction_matches_the_completion_formula(seed, n, modes):
    plant, g = _random_plant(seed, n, modes), 0.7
    assert np.all(plant.rates.pi[~np.eye(modes, dtype=bool)] > 0)
    assert np.any(plant.d1) and np.any(plant.d2)
    assignment = _seeded_assignment(plant, seed)
    controller = _result(plant, g, _solution(assignment)).controller
    for i, mode in enumerate(controller.modes):
        x, y, l, f = (assignment[f"{v}{i + 1}"] for v in "XYLF")
        y_inv = np.linalg.inv(y)
        w_inv = np.linalg.inv(y_inv - x)
        expected = (w_inv @ _completion_term(plant, g, assignment, i) @ y_inv,
                    w_inv @ l, f @ y_inv)
        for got, want in zip((mode.a, mode.b, mode.c), expected):
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def _single_mode_plant():
    eye = np.eye(2)
    return JumpPlant(
        a_modes=(-eye,),
        b1=eye, b2=eye, c1=eye, d1=-eye, c2=eye, d2=-eye,
        theta=make_commutation_matrix(2),
        rates=TransitionRateMatrix(np.zeros((1, 1))),
    )


def test_synthesize_single_mode_generous_level():
    result = synthesize(_single_mode_plant(), 1000.0)
    assert result.solution.feasible
    assert result.controller.n_k == 2
    assert result.controller.n_nu == 0


def test_synthesize_infeasible_at_tiny_level():
    with pytest.raises(LmiInfeasibleError):
        synthesize(demo.reference_plant(), 1e-6)


def test_synthesis_result_self_verifies():
    plant = demo.reference_plant()
    problem = build_hinf_lmis(plant, 0.5)
    result = synthesize(plant, 0.5)
    # substituting the returned blocks back into the constraints reproduces
    # the reported margins
    assignment = result.solution.assignment
    margins = []
    for c in problem.constraints:
        eigs = lmi.symmetric_eigenvalues(c.expr.evaluate(assignment))
        margins.append(-eigs[-1] if c.sense == "neg" else eigs[0])
    assert min(margins) == pytest.approx(result.solution.margin, abs=1e-8)
    # coupling condition delivers positive definite blocks
    for i in range(plant.n_modes):
        assert np.linalg.eigvalsh(assignment[f"X{i + 1}"])[0] > 0
        assert np.linalg.eigvalsh(assignment[f"Y{i + 1}"])[0] > 0


def test_coupling_condition_numbers_match_the_solution_blocks():
    # the reconstruction's eigendecomposition of Y_i^-1 - X_i gives the
    # same condition numbers as an SVD of that matrix
    plant = demo.reference_plant()
    _, result = min_attenuation(plant, 0.01, 1.0, tol_g=5e-3)
    assignment = result.solution.assignment
    expected = [np.linalg.cond(np.linalg.inv(assignment[f"Y{i}"]) - assignment[f"X{i}"])
                for i in range(1, plant.n_modes + 1)]
    assert len(result.coupling_condition_numbers) == plant.n_modes
    np.testing.assert_allclose(result.coupling_condition_numbers, expected, rtol=1e-12)


def test_feasibility_monotone_in_level():
    plant = demo.reference_plant()
    result = synthesize(plant, 0.25)
    assert result.solution.feasible
    assert synthesize(plant, 0.5).solution.feasible


def test_controller_dimension_matches_plant():
    result = synthesize(demo.reference_plant(), 0.5)
    assert result.controller.n_k == demo.reference_plant().n


def _scalar_plant():
    # the scalar data A=-1, B=C=D=1 on two decoupled coordinates
    eye = np.eye(2)
    return JumpPlant(
        a_modes=(-eye,), b1=eye, b2=eye, c1=eye, d1=eye, c2=eye, d2=eye,
        theta=make_commutation_matrix(2), rates=TransitionRateMatrix(np.zeros((1, 1))),
    )


def _feasible_at(plant, g):
    try:
        synthesize(plant, g)
    except LmiInfeasibleError:
        return False
    return True


@pytest.mark.parametrize("g", [0.0034, 0.005, 0.0099])
def test_rounding_floor_keeps_the_scalar_plant_feasible(g):
    # this plant's shift phase plateaus at a normalised Newton decrement of
    # about 8, outside the quadratic region where lmi._centre may end a round
    # at its rounding floor; a rule that also cut that plateau turned these
    # three feasible levels into infeasible-at-tolerance
    assert _feasible_at(_scalar_plant(), g)


def test_min_attenuation_matches_brute_force_sweep():
    # the minimised level must fall inside the bracket that a fixed-level
    # feasibility sweep puts around the boundary
    plant = _scalar_plant()
    grid = np.geomspace(2e-4, 0.05, 25)
    sweep = [_feasible_at(plant, g) for g in grid]
    assert not sweep[0] and sweep[-1]
    boundary_idx = next(i for i, f in enumerate(sweep) if f)
    lo_oracle = grid[boundary_idx - 1]
    hi_oracle = grid[boundary_idx]

    g_star, result = min_attenuation(plant, 2e-4, 0.05, tol_g=1e-4)
    assert result.solution.feasible
    assert lo_oracle - 1e-4 <= g_star <= hi_oracle + 1e-4


def test_min_attenuation_rejects_g_hi_below_minimum():
    # the reference plant's boundary is near 0.037; nothing below 0.02 is
    # strictly feasible
    with pytest.raises(LmiInfeasibleError):
        min_attenuation(demo.reference_plant(), 0.002, 0.02, tol_g=5e-3)


@pytest.mark.parametrize("tol_g", [0.0, -1e-3, float("nan"), float("inf")])
def test_min_attenuation_rejects_bad_tolerance(tol_g):
    # at tol_g = 0 the barrier correction of the gap bound rounds to zero
    # long before the level is certified, so no such run can be trusted
    with pytest.raises(ValueError, match="tol_g"):
        min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=tol_g)


def test_min_attenuation_g_lo_above_minimum_returns_g_lo():
    plant = demo.reference_plant()
    g_star, result = min_attenuation(plant, 0.06, 0.5, tol_g=5e-3)
    assert result.solution.feasible
    assert 0.06 < g_star <= 0.06 + 5e-3
    aug = realizability.augment_jump_controller(result.controller)
    assert verify_closed_loop(plant, aug, g_star).attenuation_ok


def test_reference_plant_feasible_at_0_040():
    # fixed-level solves used to stall and call this level infeasible
    result = synthesize(demo.reference_plant(), 0.040)
    assert result.solution.feasible


def test_reference_plant_verdicts_monotone_in_level():
    plant = demo.reference_plant()
    grid = np.linspace(0.037, 0.05, 6)
    assert all(_feasible_at(plant, g) for g in grid)
    assert not _feasible_at(plant, 0.036)


def test_min_attenuation_is_one_solve(monkeypatch):
    calls = []
    solve = lmi.solve_feasibility

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lmi, "solve_feasibility", counting)
    min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=5e-3)
    assert len(calls) == 1


def test_demo_quick_makes_one_lmi_solve(monkeypatch):
    # the level search; its own storage certifies the synthesized loop, and
    # the coupled Lyapunov storage certifies the tabulated controller's loop
    calls = []
    solve = lmi.solve_feasibility

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lmi, "solve_feasibility", counting)
    report = demo.run_paper_demo(quick=True)
    assert len(calls) == 1
    check = next(c for c in report["checks"]
                 if c["name"] == "tabulated controller certified at g = 1")
    assert check["status"] == "PASS"
    assert check["detail"] == "feasible, 0 Newton steps, margin 1.968e-02 (lyapunov route)"


def test_demo_reports_the_level_search_as_data():
    # min_attenuation raises unless its level is within tolerance, so a
    # PASS line for the search could never fail; its facts are report data
    report = demo.run_paper_demo(quick=True)
    search = report["level_search"]
    assert search["status"] == "feasible"
    assert search["newton_steps"] == 84
    # the shift phase hands over after two full rounds, and the objective
    # phase takes the rest
    assert (search["shift_steps"], search["objective_steps"]) == (30, 54)
    assert search["margin"] > 0 and 0 < search["gap"] < 5e-3
    assert "attenuation level minimised" not in [c["name"] for c in report["checks"]]
    assert "level search: feasible, 84 Newton steps" in demo.format_demo_report(report)


def test_demo_reports_the_augmentation_residual_as_data():
    # augment_controller raises above a 1e-9 commutation defect and builds
    # the output conditions exactly, so a realizability PASS line could never
    # fail; the residual is report data
    report = demo.run_paper_demo(quick=True)
    assert 0.0 <= report["realizability_residual"] <= 1e-9
    names = [c["name"] for c in report["checks"]]
    assert "synthesized controller realizable after augmentation" not in names
    assert len(names) == 30
    assert ("realizability residual after augmentation: "
            f"{report['realizability_residual']:.3e}") in demo.format_demo_report(report)


def test_min_attenuation_reference_level_within_tolerance_of_sweep():
    # boundary of the fixed-level verdicts: 0.036 infeasible, 0.037 feasible
    plant = demo.reference_plant()
    assert not _feasible_at(plant, 0.036) and _feasible_at(plant, 0.037)
    g_star, result = min_attenuation(plant, 0.01, 1.0, tol_g=1e-3)
    assert 0.036 <= g_star <= 0.037 + 1e-3
    gamma = result.solution.assignment["gamma"][0, 0]
    assert np.sqrt(gamma) - np.sqrt(gamma - result.solution.gap) <= 5e-4


def test_min_attenuation_validates_bracket():
    with pytest.raises(ValueError, match="g_lo"):
        min_attenuation(_single_mode_plant(), 1.0, 1.0)


def test_min_attenuation_rejects_a_bracket_too_thin_to_certify():
    # the bracket rows cap every margin at (g_hi^2 - g_lo^2)/2 = 8.0e-7, below
    # EPS_STRICT, so this search ended infeasible although 0.04 is feasible
    plant = demo.reference_plant()
    with pytest.raises(ValueError, match=r"bracket \[0\.04, 0\.04002\] is too thin .*"
                                         r"g_hi above 0\.0400249922"):
        min_attenuation(plant, 0.04, 0.04002)
    g_star, result = min_attenuation(plant, 0.04, 0.0401)
    assert g_star == 0.0401 and result.solution.feasible


def test_min_attenuation_reference_plant_certificate():
    plant = demo.reference_plant()
    g_star, result = min_attenuation(plant, 0.01, 1.0, tol_g=2e-3)
    assert result.solution.feasible
    aug = realizability.augment_jump_controller(result.controller)
    report = verify_closed_loop(plant, aug, g_star)
    assert report.attenuation_ok


def _random_plant(seed, n, modes):
    # perfbench's seeded plants: stable-shifted random drifts, D1 = D2 = -I
    spec = importlib.util.spec_from_file_location(
        "plants", Path(__file__).resolve().parents[1] / "perfbench" / "plants.py")
    plants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plants)
    return plants.random_plant(seed, n, modes, 0)


def test_min_attenuation_rebuilds_ill_conditioned_minimiser(monkeypatch):
    # on this plant (Y_2^-1 - X_2) of the minimiser's point is too badly
    # conditioned to invert, so the controller comes from a second,
    # fixed-level solve at the returned level
    plant = _random_plant(1, 6, 3)
    calls = []
    solve = lmi.solve_feasibility

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(lmi, "solve_feasibility", counting)
    g_star, result = min_attenuation(plant, 0.01, 10.0, tol_g=5e-3)
    assert len(calls) == 2
    assert 0.01 < g_star < 10.0 and result.g == g_star
    assert result.solution.feasible and result.solution.gap is None
    aug = realizability.augment_jump_controller(result.controller)
    # the coupled solve stalls short of this loop's certificate (margin
    # -3.6e-2 after 206 steps); the rebuilt design's own storage certifies it
    assert certify_design(plant, result, aug, g_star).certified


def test_min_attenuation_without_a_rebuilt_controller_is_undecided(monkeypatch):
    # the level search certifies g* = 0.98287 (margin 4.8e-6), but its point
    # gives no controller, as above; with the fixed-level solve at g* made to
    # stall, it ends infeasible-at-tolerance and gives none either, yet a
    # verified point shows g* feasible, so the verdict is undecided
    solve = lmi.solve_feasibility

    def stalling(problem, **kwargs):
        if problem.objective is None:  # the fixed-level solve: every round stalls
            monkeypatch.setattr(lmi, "_PROGRESS_TOL", np.inf)
        return solve(problem, **kwargs)

    monkeypatch.setattr(lmi, "solve_feasibility", stalling)
    with pytest.raises(SynthesisError, match=r"undecided at g=0\.98287\d: ") as info:
        min_attenuation(_random_plant(1, 6, 3), 0.01, 10.0, tol_g=5e-3)
    assert not isinstance(info.value, LmiInfeasibleError)
    message = str(info.value)
    assert "feasible, 105 Newton steps, margin 4.849e-06" in message
    assert "fixed-level solve" in message and "infeasible-at-tolerance" in message
    assert (info.value.solution.status, info.value.solution.iterations) == (
        "infeasible-at-tolerance", 30)


def test_fixed_level_synthesis_of_a_random_plant_certifies():
    # a unit starting barrier weight left this solve stalled:
    # infeasible-at-tolerance at g = 5, far above the plant's least level
    plant = _random_plant(1, 2, 3)
    result = synthesize(plant, 5.0)
    assert result.solution.feasible
    assert certify_design(plant, result, result.controller, 5.0).certified


def test_fixed_level_stop_waits_for_a_rebuildable_point():
    # the first certified iterate of this synthesis (step 49) has
    # cond(Y_1^-1 - X_1) = 1.2e10, above COND_LIMIT, so no controller could
    # be rebuilt there; the solve goes on to the first certified iterate
    # whose inversions are within the limit
    plant, g = _random_plant(36, 2, 2), 0.45
    bare = lmi.solve_feasibility(build_hinf_lmis(plant, g))
    assert (bare.status, bare.iterations) == ("feasible", 49)
    with pytest.raises(SynthesisError, match=r"\(Y_1\^-1 - X_1\) is singular or badly"):
        _result(plant, g, bare)
    result = synthesize(plant, g)
    assert (result.solution.status, result.solution.iterations) == ("feasible", 54)
    assert 1e9 < max(result.coupling_condition_numbers) <= COND_LIMIT
    aug = realizability.augment_jump_controller(result.controller)
    assert certify_design(plant, result, aug, g).certified
    assert verify_closed_loop(plant, aug, g).attenuation_ok


def test_level_search_of_a_random_plant_finds_its_level():
    # a unit starting barrier weight ended this search infeasible at g_hi
    plant = _random_plant(1, 2, 3)
    g_star, result = min_attenuation(plant, 0.01, 10.0, tol_g=5e-3)
    assert g_star == pytest.approx(1.853, abs=5e-3)
    assert certify_design(plant, result, result.controller, g_star).certified


def test_level_search_cut_before_its_objective_phase_writes_a_null_gap(monkeypatch):
    # five Newton steps end inside the shift phase, so no gap bound was formed
    monkeypatch.setattr(lmi, "MAX_ITER", 5)
    with pytest.raises(SynthesisError, match="undecided, 5 Newton steps") as info:
        min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=5e-3)
    solution = info.value.solution
    assert solution.gap == np.inf and solution.record()["gap"] is None
    assert (solution.record()["shift_steps"], solution.record()["objective_steps"]) == (5, 0)
    text = serialize.dumps_doc(solution.record())
    assert '"gap": null' in text
    json.loads(text, parse_constant=lambda name: pytest.fail(f"non-finite {name} written"))


def test_min_attenuation_budget_exhausted_raises(monkeypatch):
    # 60 Newton steps pass the shift phase (30 steps) but end the
    # minimisation far from the least level: no level may be returned
    monkeypatch.setattr(lmi, "MAX_ITER", 60)
    with pytest.raises(SynthesisError, match="not within tolerance") as info:
        min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=5e-3)
    assert not isinstance(info.value, LmiInfeasibleError)
    # the error carries the cut solve, so callers can record what it did
    assert info.value.solution.iterations == 60
    assert info.value.solution.objective_iterations > 0
    assert info.value.solution.margin >= lmi.EPS_STRICT


def test_undecided_level_search_names_its_bracket(monkeypatch):
    # a level search has no fixed level: its verified point sits near 0.04,
    # so naming g_hi = 1.0 as the level without a verdict would mislead
    monkeypatch.setattr(lmi, "MAX_ITER", 60)
    with pytest.raises(SynthesisError, match=r"^no verdict in the bracket \[0\.01, 1\.0\]: "
                                             r"objective gap bound .* not within tolerance") as info:
        min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=5e-3)
    assert "g=1.0" not in str(info.value)
    assert info.value.solution.status == "undecided"


def _unit_start(monkeypatch):
    # mu0 = 1: the fixed schedule's Newton path, which the equilibrated Newton
    # solve and the pre-solved first step must leave unchanged
    monkeypatch.setattr(lmi, "_starting_weight", lambda oriented, x: (1.0, None))


@pytest.mark.parametrize(("tol_g", "g_star", "steps", "start"), [
    pytest.param(5e-3, 0.039478031681191336, 84, "centred", id="tol_g=5e-3"),
    pytest.param(1e-3, 0.037478031681191334, 90, "centred", id="tol_g=1e-3"),
    pytest.param(5e-3, 0.03945961343404557, 96, "unit", id="tol_g=5e-3-unit"),
    pytest.param(1e-3, 0.037459613434045566, 102, "unit", id="tol_g=1e-3-unit"),
])
def test_min_attenuation_reference_iterates_pinned(tol_g, g_star, steps, start, monkeypatch):
    # a kernel change that moves these moved the Newton path, not just its rounding
    if start == "unit":
        _unit_start(monkeypatch)
    g, result = min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=tol_g)
    assert g == pytest.approx(g_star, rel=1e-12)
    assert result.solution.iterations == steps


@pytest.mark.parametrize(("g", "status", "steps", "start"), [
    pytest.param(0.036, "infeasible-at-tolerance", 97, "centred", id="g=0.036"),
    pytest.param(0.037, "feasible", 66, "centred", id="g=0.037"),
    pytest.param(0.040, "feasible", 60, "centred", id="g=0.040"),
    pytest.param(0.048, "feasible", 53, "centred", id="g=0.048"),
    pytest.param(0.05, "feasible", 53, "centred", id="g=0.05"),
    pytest.param(0.036, "infeasible-at-tolerance", 106, "unit", id="g=0.036-unit"),
    pytest.param(0.037, "feasible", 77, "unit", id="g=0.037-unit"),
    pytest.param(0.040, "feasible", 71, "unit", id="g=0.040-unit"),
    pytest.param(0.048, "feasible", 64, "unit", id="g=0.048-unit"),
    pytest.param(0.05, "feasible", 64, "unit", id="g=0.05-unit"),
])
def test_synthesize_reference_iterates_pinned(g, status, steps, start, monkeypatch):
    if start == "unit":
        _unit_start(monkeypatch)
    try:
        solution = synthesize(demo.reference_plant(), g).solution
    except LmiInfeasibleError as exc:
        solution = exc.solution
    assert (solution.status, solution.iterations) == (status, steps)


def test_reference_design_just_above_the_boundary_certifies_by_both_checks():
    # 0.037 is the reference plant's least fixed level the solver certifies
    # (0.036 is infeasible-at-tolerance); the design of its first rebuildable
    # certified iterate (margin 5.7e-6) certifies by its own storage and by
    # the coupled certificate of its augmented loop
    plant, g = demo.reference_plant(), 0.037
    result = synthesize(plant, g)
    assert lmi.EPS_STRICT <= result.solution.margin < 1e-5
    aug = realizability.augment_jump_controller(result.controller)
    assert certify_design(plant, result, aug, g).certified
    assert verify_closed_loop(plant, aug, g).attenuation_ok


def test_budget_exhaustion_is_not_infeasibility(monkeypatch):
    plant = demo.reference_plant()
    for budget, solve in ((0, lambda: synthesize(plant, 0.05)),
                          (5, lambda: min_attenuation(plant, 0.01, 1.0))):
        monkeypatch.setattr(lmi, "MAX_ITER", budget)
        with pytest.raises(SynthesisError, match="budget ran out") as info:
            solve()
        assert not isinstance(info.value, LmiInfeasibleError)
        assert info.value.solution.status == "undecided"


@pytest.fixture(scope="module")
def reference_design():
    # demo-paper's design: the level search at tol_g 5e-3 and its augmentation
    plant = demo.reference_plant()
    g_star, result = min_attenuation(plant, 0.01, 1.0, tol_g=5e-3)
    return plant, g_star, result, realizability.augment_jump_controller(result.controller)


def test_storage_certificate_of_the_reference_design(reference_design):
    plant, g_star, result, aug = reference_design
    cert = certify_design(plant, result, aug, g_star)
    assert cert.certified and cert.g == g_star
    assert min(cert.storage_margins) == pytest.approx(9.144e-5, rel=1e-3)
    assert min(cert.coupling_margins) == pytest.approx(1.305e-5, rel=1e-3)
    assert cert.margin == min(cert.coupling_margins)
    assert cert.summary() == "storage margin 9.144e-05, coupling margin 1.305e-05"
    # the repair noise channels enter B2~ only, which the block does not read
    assert certify_design(plant, result, result.controller, g_star) == cert


@pytest.mark.parametrize("design", ["reference", "random"])
def test_rebuilt_design_zeroes_the_schur_off_diagonal_block(reference_design, design):
    # M_i is the M~ that zeroes the off-diagonal block of the Schur complement
    # of the -g^2 I corner; read back from the rebuilt controller through
    # F~ = C_K Y, L~ = W B_K and M~ = W A_K Y, that block is rounding only
    if design == "reference":
        plant, g, result, _ = reference_design
    else:
        plant, g = _random_plant(0, 4, 3), 5.0
        result = synthesize(plant, g)
    storage = _storage(plant, result.solution.assignment)
    xs, ys, y_invs = storage
    n = plant.n
    for i, mode in enumerate(result.controller.modes):
        y, w = ys[i], y_invs[i] - xs[i]
        h, g_col, _ = _congruenced_blocks(plant, storage, i, mode.c @ y, w @ mode.b,
                                          w @ mode.a @ y)
        schur = h + g_col @ g_col.T / (g * g)
        assert np.max(np.abs(schur[n:, :n])) <= 1e-9 * np.max(np.abs(h))


@pytest.mark.parametrize("design", ["reference", "random"])
def test_storage_certificate_agrees_with_the_coupled_solve(reference_design, design):
    if design == "reference":
        plant, g, result, aug = reference_design
    else:
        plant, g = _random_plant(0, 4, 3), 5.0
        result = synthesize(plant, g)
        aug = realizability.augment_jump_controller(result.controller)
    cert = certify_design(plant, result, aug, g)
    coupled = coupled_mode_check(assemble_closed_loop(plant, aug), g)
    assert cert.certified and coupled.attenuation_ok


@pytest.mark.parametrize("seed, n, modes, g_star", [
    pytest.param(4, 4, 3, 1.3144576779986163, id="4-4-3"),
    pytest.param(0, 4, 2, 0.94750450449254, id="0-4-2"),
])
def test_storage_certificate_of_level_search_designs(seed, n, modes, g_star):
    # the coupled certificate solve rejects both designs at g*
    # (infeasible-at-tolerance, margins -1.5e-3 and -6.4e-4), yet the level
    # search's own storage certifies them
    plant = _random_plant(seed, n, modes)
    g, result = min_attenuation(plant, 0.01, 10.0, tol_g=5e-3)
    assert g == pytest.approx(g_star, rel=1e-12)
    cert = certify_design(plant, result, result.controller, g)
    assert cert.certified and cert.margin > 1e-4


def _scaled_a(ctrl, factor):
    return Controller(tuple(replace(m, a=factor * m.a) for m in ctrl.modes), ctrl.theta_k)


@pytest.mark.parametrize("case, margin", [
    ("level 0.030", -2.258e-4),
    pytest.param("A_K scaled by 1.01", -2.474e-5, id="A_K scaled by 1.01"),
])
def test_storage_certificate_rejects(reference_design, case, margin):
    plant, g_star, result, aug = reference_design
    if case == "level 0.030":
        cert = certify_design(plant, result, aug, 0.030)
    else:
        cert = certify_design(plant, result, _scaled_a(aug, 1.01), g_star)
    assert not cert.certified
    assert min(cert.storage_margins) == pytest.approx(margin, rel=1e-2)


def test_storage_certificate_rejects_a_controller_of_another_shape(reference_design):
    plant, g_star, result, _ = reference_design
    other = synthesize(_single_mode_plant(), 1000.0).controller
    with pytest.raises(ValueError, match="3 modes and state dimension 2, got 1 and 2"):
        certify_design(plant, result, other, g_star)


def _exact(m):
    return [[Fraction(float(v)) for v in row] for row in np.asarray(m)]


def _mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _add(*ms):
    return [[sum(vals) for vals in zip(*rows)] for rows in zip(*ms)]


def _scale(c, m):
    return [[c * v for v in row] for row in m]


def _t(m):
    return [list(col) for col in zip(*m)]


def _inverse(m):
    # Gauss-Jordan elimination with nonzero pivots
    k = len(m)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(m)]
    for c in range(k):
        p = next(r for r in range(c, k) if aug[r][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [v / pivot for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def _positive_definite(m):
    # a symmetric matrix is positive definite iff every pivot of its
    # elimination without row exchanges is positive
    m = [row[:] for row in m]
    for c in range(len(m)):
        if m[c][c] <= 0:
            return False
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [v - f * w for v, w in zip(m[r], m[c])]
    return True


def _block(rows):
    return [sum((blk[k] for blk in row), []) for row in rows for k in range(len(row[0]))]


def _exact_certificate(plant, result, controller, g):
    """BRL(P) < 0 and P > 0 in exact rational arithmetic, for the storage
    P_i = [[X_i, W_i], [W_i, -W_i]] with W_i = Y_i^{-1} - X_i exactly."""
    assignment = result.solution.assignment
    ps = []
    for i in range(plant.n_modes):
        x, y = _exact(assignment[f"X{i + 1}"]), _exact(assignment[f"Y{i + 1}"])
        w = _add(_inverse(y), _scale(-1, x))
        ps.append(_block([[x, w], [w, _scale(-1, w)]]))
    pi = _exact(plant.rates.pi)
    corner = _scale(-Fraction(g) ** 2, _exact(np.eye(plant.n_w)))
    for i, mode in enumerate(assemble_closed_loop(plant, controller).modes):
        a, b, c = _exact(mode.a), _exact(mode.b1), _exact(mode.c)
        p = ps[i]
        top = _add(_mul(_t(a), p), _mul(p, a), _mul(_t(c), c),
                   *(_scale(pi[i][j], ps[j]) for j in range(plant.n_modes)))
        pb = _mul(p, b)
        brl = _block([[top, pb], [_t(pb), corner]])
        if not (_positive_definite(p) and _positive_definite(_scale(-1, brl))):
            return False
    return True


@pytest.mark.parametrize("design, certified", [
    ("reference", True),
    ("ill-conditioned", True),
    ("reference at 0.030", False),
    ("single mode at 2.0", True),
])
def test_storage_certificate_matches_an_exact_oracle(reference_design, design, certified):
    # on the ill-conditioned design, the level search's, cond(Y_1^-1 - X_1)
    # is 8.0e9, so forming T^T BRL(P) T in double precision is meaningless
    # there; the closed form and the exact check agree
    if design == "ill-conditioned":
        plant = _random_plant(36, 2, 2)
        g, result = min_attenuation(plant, 0.01, 10.0, tol_g=5e-3)
        ctrl = result.controller
        assert max(result.coupling_condition_numbers) > 1e9
    elif design == "single mode at 2.0":
        plant, g = _single_mode_plant(), 2.0
        result = synthesize(plant, g)
        ctrl = result.controller
        # the design is off the stability boundary (see the fragility test
        # below), so the coupled Lyapunov storage certifies its loop too
        report = verify_closed_loop(plant, ctrl, g)
        assert report.attenuation_ok and report.route == "lyapunov"
    else:
        plant, g, result, ctrl = reference_design
        if design == "reference at 0.030":
            g = 0.030
    assert certify_design(plant, result, ctrl, g).certified is certified
    assert _exact_certificate(plant, result, ctrl, g) is certified


def _significant(m, digits):
    """m with every entry rounded to ``digits`` significant digits."""
    return np.vectorize(lambda v: float(f"{v:.{digits - 1}e}"))(m)


@pytest.mark.parametrize("case", ["single mode at 2.0", *(f"{n}x3 at 5" for n in (2, 4, 6, 8))])
def test_design_certifies_at_four_significant_digits(case):
    # optical components are given to about four significant digits: a
    # design rounded to them must keep its certificate, with its own X and Y
    if case == "single mode at 2.0":
        plant, g = _single_mode_plant(), 2.0
    else:
        plant, g = _random_plant(0, int(case.split("x")[0]), 3), 5.0
    result = synthesize(plant, g)
    ctrl = result.controller
    rounded = Controller(tuple(replace(m, a=_significant(m.a, 4), b=_significant(m.b, 4),
                                       c=_significant(m.c, 4)) for m in ctrl.modes),
                         ctrl.theta_k)
    assert certify_design(plant, result, rounded, g).certified
    if plant.n_modes == 1:
        # a design that nearly cancels the plant would sit on the stability
        # boundary, where rounding moves the slowest pole across it
        (mode,) = assemble_closed_loop(plant, ctrl).modes
        assert np.max(np.linalg.eigvals(mode.a).real) < -1e-3
