import numpy as np
import pytest

from qhinf import demo, lmi, realizability
from qhinf.analysis import verify_closed_loop
from qhinf.qmodel import JumpPlant, TransitionRateMatrix, make_commutation_matrix
from qhinf.synthesis import (
    LmiInfeasibleError,
    SynthesisError,
    _build_problem,
    _reconstruct_mode,
    build_hinf_lmis,
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
    # per mode: observer block, coupling block, state-feedback block
    assert len(problem.constraints) == 9
    dims = sorted(c.expr.dim for c in problem.constraints)
    assert dims == [4, 4, 4, 4, 4, 4, 8, 8, 8]


def test_build_problem_single_mode_reduction():
    # with one mode and zero rates the rate-coupling rows vanish: the
    # state-feedback block shrinks to (n + n_z) instead of (n + n_z + n(N-1))
    problem, _ = _build_problem(
        [np.array([[-1.0]])], np.eye(1), np.eye(1), np.eye(1), np.eye(1),
        np.eye(1), np.eye(1), np.zeros((1, 1)), 2.0,
    )
    dims = sorted(c.expr.dim for c in problem.constraints)
    assert dims == [2, 2, 2]
    three_mode = build_hinf_lmis(demo.reference_plant(), 2.0)
    assert max(c.expr.dim for c in three_mode.constraints) == 2 + 2 + 2 * 2


def test_build_rejects_nonpositive_g():
    with pytest.raises(ValueError, match="positive"):
        build_hinf_lmis(demo.reference_plant(), 0.0)


def test_reconstruct_mode_scalar_oracle():
    # frozen hand-computed values for scalar data:
    # A=-1, B1=B2=C1=C2=1, D1=0.5, D2=-0.3, rates=0, g=2,
    # X=2, Y=1, L=-3, F=-0.5
    one = np.eye(1)
    ak, bk, ck, _ = _reconstruct_mode(
        a=-one, b1=one, b2=one, c1=one, d1=0.5 * one, c2=one, d2=-0.3 * one,
        pi_row=np.zeros(1), y=one, y_invs=[one], g=2.0,
        x=2.0 * one, l=-3.0 * one, f=-0.5 * one, i=0,
    )
    assert ck[0, 0] == pytest.approx(-0.5)
    assert bk[0, 0] == pytest.approx(3.0)
    assert ak[0, 0] == pytest.approx(-5.525)


def test_reconstruct_rejects_coupling_degeneracy():
    one = np.eye(1)
    with pytest.raises(SynthesisError, match="singular"):
        _reconstruct_mode(
            a=-one, b1=one, b2=one, c1=one, d1=one, c2=one, d2=one,
            pi_row=np.zeros(1), y=2.0 * one, y_invs=[0.5 * one], g=2.0,
            x=0.5 * one, l=one, f=one, i=0,
        )


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
    assignment = {}
    for i, m in enumerate(result.modes):
        assignment[f"X{i + 1}"] = m.x
        assignment[f"Y{i + 1}"] = m.y
        assignment[f"L{i + 1}"] = m.l
        assignment[f"F{i + 1}"] = m.f
    margins = []
    for c in problem.constraints:
        eigs = lmi.symmetric_eigenvalues(c.expr.evaluate(assignment))
        margins.append(-eigs[-1] if c.sense == "neg" else eigs[0])
    assert min(margins) == pytest.approx(result.solution.margin, abs=1e-8)
    # coupling condition delivers positive definite blocks
    for m in result.modes:
        assert np.linalg.eigvalsh(m.x)[0] > 0
        assert np.linalg.eigvalsh(m.y)[0] > 0


def test_feasibility_monotone_in_level():
    plant = demo.reference_plant()
    result = synthesize(plant, 0.25)
    assert result.solution.feasible
    assert synthesize(plant, 0.5).solution.feasible


def test_controller_dimension_matches_plant():
    result = synthesize(demo.reference_plant(), 0.5)
    assert result.controller.n_k == demo.reference_plant().n


def _scalar_feasible(g):
    problem, _ = _build_problem(
        [np.array([[-1.0]])], np.eye(1), np.eye(1), np.eye(1), np.eye(1),
        np.eye(1), np.eye(1), np.zeros((1, 1)), g,
    )
    return lmi.solve_feasibility(problem).feasible


def test_min_attenuation_matches_brute_force_sweep():
    # scalar plant: bisect on the matrix-level problem and compare with a
    # direct feasibility sweep over a grid spanning the boundary
    grid = np.geomspace(2e-4, 0.05, 25)
    sweep = [_scalar_feasible(g) for g in grid]
    assert not sweep[0] and sweep[-1]
    boundary_idx = next(i for i, f in enumerate(sweep) if f)
    lo_oracle = grid[boundary_idx - 1]
    hi_oracle = grid[boundary_idx]

    lo, hi = 2e-4, 0.05
    while hi - lo > 1e-4:
        mid = 0.5 * (lo + hi)
        if _scalar_feasible(mid):
            hi = mid
        else:
            lo = mid
    assert lo_oracle - 1e-4 <= hi <= hi_oracle + 1e-4


def test_min_attenuation_widens_bracket_both_ways():
    plant = demo.reference_plant()
    # upper end starts infeasible and is doubled; lower end starts feasible
    # and is halved; the boundary near 0.05 ends up inside either way
    g_star, _ = min_attenuation(plant, 0.002, 0.02, tol_g=5e-3)
    assert 0.02 <= g_star <= 0.08
    g_star2, _ = min_attenuation(plant, 0.06, 0.5, tol_g=5e-3)
    assert 0.03 <= g_star2 <= 0.08


def test_min_attenuation_validates_bracket():
    with pytest.raises(ValueError, match="g_lo"):
        min_attenuation(_single_mode_plant(), 1.0, 1.0)


def test_min_attenuation_reference_plant_certificate():
    plant = demo.reference_plant()
    g_star, result = min_attenuation(plant, 0.01, 1.0, tol_g=2e-3)
    assert result.solution.feasible
    aug = realizability.augment_jump_controller(result.controller)
    report = verify_closed_loop(plant, aug, g_star)
    assert report.attenuation_ok
