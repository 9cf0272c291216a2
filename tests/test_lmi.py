import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from qhinf import analysis, demo, lmi, synthesis
from qhinf.qmodel import assemble_closed_loop

ROOT = Path(__file__).resolve().parents[1]


def test_symmetric_eigenvalues_examples():
    assert np.allclose(lmi.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    assert np.allclose(lmi.symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])
    assert np.allclose(lmi.symmetric_eigenvalues(np.zeros((3, 3))), [0, 0, 0])


def test_symmetric_eigenvalues_reconstruction():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 6))
    m = m + m.T
    w = lmi.symmetric_eigenvalues(m)
    q = np.linalg.eigh(m)[1]
    scale = 1.0 + np.max(np.abs(m))
    assert np.max(np.abs(m - q @ np.diag(w) @ q.T)) <= 1e-9 * scale
    assert np.max(np.abs(q.T @ q - np.eye(6))) <= 1e-10
    assert np.all(np.diff(w) >= 0)


def test_symmetric_eigenvalues_rejects_nonsymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        lmi.symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _lyapunov_problem(a):
    n = a.shape[0]
    problem = lmi.LmiProblem()
    problem.add_variable("P", n, symmetric=True)
    pos = lmi.AffineMatrixExpr(n)
    pos.add_term("P")
    problem.add_constraint(pos, "pos")
    neg = lmi.AffineMatrixExpr(n)
    neg.add_term("P", a.T, np.eye(n))
    neg.add_term("P", np.eye(n), a)
    problem.add_constraint(neg, "neg")
    return problem


def test_scalar_strict_negativity():
    problem = lmi.LmiProblem()
    problem.add_variable("x", 1, symmetric=True)
    expr = lmi.AffineMatrixExpr(1)
    expr.add_term("x")
    problem.add_constraint(expr, "neg")
    sol = lmi.solve_feasibility(problem)
    assert sol.feasible
    assert sol.assignment["x"][0, 0] < 0


def test_scalar_lyapunov_feasible():
    sol = lmi.solve_feasibility(_lyapunov_problem(np.array([[-1.0]])))
    assert sol.feasible
    assert sol.assignment["P"][0, 0] > 0


def test_constant_constraint_takes_part_in_the_shift():
    # a block with no variable terms: its slack is t I - M_k(0) throughout
    problem = _lyapunov_problem(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    problem.add_constraint(lmi.AffineMatrixExpr(3, -0.5 * np.eye(3)), "neg")
    sol = lmi.solve_feasibility(problem)
    assert sol.feasible
    assert sol.constraint_margins[-1] == pytest.approx(0.5)
    problem.add_constraint(lmi.AffineMatrixExpr(1, [[0.25]]), "neg")
    assert lmi.solve_feasibility(problem).status == "infeasible-at-tolerance"


def test_margins_self_verify():
    # reported margins must equal a direct eigenvalue evaluation
    problem = _lyapunov_problem(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    sol = lmi.solve_feasibility(problem)
    assert sol.feasible
    for constraint, margin in zip(problem.constraints, sol.constraint_margins):
        eigs = lmi.symmetric_eigenvalues(constraint.expr.evaluate(sol.assignment))
        direct = -eigs[-1] if constraint.sense == "neg" else eigs[0]
        assert abs(direct - margin) <= 1e-8 * (1.0 + abs(direct))
    assert sol.margin == min(sol.constraint_margins)


def test_determinism():
    a = np.array([[-1.0, 2.0], [0.0, -3.0]])
    s1 = lmi.solve_feasibility(_lyapunov_problem(a))
    s2 = lmi.solve_feasibility(_lyapunov_problem(a))
    assert s1.iterations == s2.iterations
    assert s1.t_achieved == s2.t_achieved
    assert np.array_equal(s1.assignment["P"], s2.assignment["P"])


@settings(max_examples=15)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_lyapunov_feasible_for_hurwitz(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5 + rng.uniform()) * np.eye(n)
    sol = lmi.solve_feasibility(_lyapunov_problem(a))
    assert sol.feasible


@settings(max_examples=15)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_lyapunov_infeasible_with_unstable_eigenvalue(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    a += (1.0 - np.max(np.linalg.eigvals(a).real)) * np.eye(n)  # max real part exactly +1
    sol = lmi.solve_feasibility(_lyapunov_problem(a))
    assert sol.status == "infeasible-at-tolerance"


def test_undeclared_variable_rejected():
    problem = lmi.LmiProblem()
    problem.add_variable("P", 2, symmetric=True)
    expr = lmi.AffineMatrixExpr(2)
    expr.add_term("Q")
    problem.add_constraint(expr, "neg")
    with pytest.raises(ValueError, match="undeclared"):
        lmi.solve_feasibility(problem)


def test_expression_evaluation_symmetrises():
    expr = lmi.AffineMatrixExpr(2, constant=np.array([[1.0, 2.0], [0.0, 1.0]]))
    value = expr.evaluate({})
    assert np.array_equal(value, value.T)


def test_full_variable_terms():
    # rectangular variable entering through left/right coefficients
    problem = lmi.LmiProblem()
    problem.add_variable("L", 2, 1)
    expr = lmi.AffineMatrixExpr(2, constant=np.eye(2))
    c = np.array([[1.0, 0.0]])
    expr.add_term("L", np.eye(2), c)
    expr.add_term("L", c.T, np.eye(2), transpose=True)
    problem.add_constraint(expr, "pos")
    sol = lmi.solve_feasibility(problem)
    assert sol.feasible
    value = expr.evaluate(sol.assignment)
    assert lmi.symmetric_eigenvalues(value)[0] >= sol.eps_strict


def test_oriented_value_matches_loop_reference():
    problem = _lyapunov_problem(np.array([[-1.0, 2.0], [0.5, -3.0]]))
    layout = lmi._Layout(problem.variables)
    x = np.random.default_rng(1).normal(size=layout.total + 1)  # parameters, then t
    for grp in lmi._materialise(problem, layout).groups:
        slacks = grp.slacks(x)
        for j in range(len(grp.members)):
            reference = -grp.const[j]
            for q, c in zip(grp.idx[j], grp.coeffs[j]):
                reference = reference - x[q] * c.reshape(grp.dim, grp.dim)
            tol = 1e-12 * (1.0 + np.max(np.abs(reference)))
            assert np.max(np.abs(slacks[j] - reference)) <= tol


def test_minimize_scalar_objective():
    # minimise x subject to x > 1: the returned value certifies and lies
    # within the accepted distance of the bound, by the reported gap
    problem = lmi.LmiProblem()
    problem.add_variable("x", 1, symmetric=True)
    expr = lmi.AffineMatrixExpr(1, [[-1.0]])
    expr.add_term("x")
    problem.add_constraint(expr, "pos")
    problem.minimize("x", lambda value, lower: value - lower <= 1e-3)
    sol = lmi.solve_feasibility(problem)
    assert sol.feasible
    x = sol.assignment["x"][0, 0]
    assert 1.0 + sol.eps_strict <= x <= 1.0 + sol.eps_strict + 1e-3
    assert sol.gap <= 1e-3
    with pytest.raises(ValueError, match="1x1"):
        _lyapunov_problem(np.eye(2) * -1.0).minimize("P", lambda value, lower: True)


def _basis_materialise(problem, layout):
    """Reference: evaluate each expression on every coordinate basis matrix.

    Returns per constraint the oriented constant and the dense coefficient
    stack over all parameters.
    """
    zero = {v.name: np.zeros((v.rows, v.cols)) for v in problem.variables}
    out = []
    for c in problem.constraints:
        sign = 1.0 if c.sense == "neg" else -1.0
        base = sign * c.expr.evaluate(zero)
        stack = np.zeros((layout.total, c.expr.dim, c.expr.dim))
        for v in problem.variables:
            pairs = [(i, j) for i in range(v.rows)
                     for j in range(i if v.symmetric else 0, v.cols)]
            for k, (i, j) in enumerate(pairs):
                basis = np.zeros((v.rows, v.cols))
                basis[i, j] = 1.0
                if v.symmetric:
                    basis[j, i] = 1.0
                stack[layout.offsets[v.name] + k] = (
                    sign * c.expr.evaluate({**zero, v.name: basis}) - base
                )
        out.append((base, stack))
    return out


def _assert_stacks_match_basis_reference(problem):
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    reference = _basis_materialise(problem, layout)
    seen = []
    for grp in oriented.groups:
        d, p = grp.dim, grp.idx.shape[1]
        assert grp.coeffs.shape == (len(grp.members), p, d * d)
        for j, k in enumerate(grp.members):
            base, stack_ref = reference[k]
            stack_ref = np.concatenate([stack_ref, -np.eye(d)[None]])  # t has coefficient -I
            assert np.unique(grp.idx[j]).size == p and grp.idx[j, -1] == layout.total
            stack = np.zeros_like(stack_ref)
            stack[grp.idx[j]] = grp.coeffs[j].reshape(p, d, d)
            tol = 1e-13 * (1.0 + np.max(np.abs(stack_ref)))
            assert np.max(np.abs(stack - stack_ref)) <= tol
            assert np.max(np.abs(grp.const[j] - base)) <= 1e-13 * (1.0 + np.max(np.abs(base)))
            assert np.all(np.any(grp.coeffs[j] != 0.0, axis=1))  # only live parameters kept
            seen.append(k)
    assert sorted(seen) == list(range(len(problem.constraints)))


@pytest.mark.parametrize("g", [0.05, None])
def test_synthesis_stacks_match_basis_evaluation(g):
    _assert_stacks_match_basis_reference(synthesis.build_hinf_lmis(demo.reference_plant(), g))


def _coupled_check_problem(monkeypatch, plant=None, controller=None, g=0.5):
    """The LMI problem ``coupled_mode_check`` poses on a closed loop (by default
    the reference loop)."""
    problems = []
    solve = lmi.solve_feasibility

    def capture(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    monkeypatch.setattr(lmi, "solve_feasibility", capture)
    plant = demo.reference_plant() if plant is None else plant
    controller = demo.reference_controller() if controller is None else controller
    analysis.coupled_mode_check(assemble_closed_loop(plant, controller), g)
    assert len(problems) == 1
    return problems[0]


def test_coupled_check_stacks_match_basis_evaluation(monkeypatch):
    _assert_stacks_match_basis_reference(_coupled_check_problem(monkeypatch))


def _rotated_4x3_problem(monkeypatch):
    """Coupled check of a 4-state, 3-mode random plant in rotated coordinates
    (the scaled-design benchmark plant), closed with its synthesized controller."""
    spec = importlib.util.spec_from_file_location("plants", ROOT / "perfbench" / "plants.py")
    plants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plants)
    plant = plants.rotated_plant(plants.random_plant(0, 4, 3, 0), 1, 0)
    controller = synthesis.synthesize(plant, 5.0).controller
    return _coupled_check_problem(monkeypatch, plant, controller, 5.0)


def _hand_built_problem():
    """Five blocks of one shape in a symmetric P, one in a full R, and one
    block with no parameters."""
    rng = np.random.default_rng(7)
    problem = lmi.LmiProblem()
    problem.add_variable("P", 3, symmetric=True)
    problem.add_variable("R", 2, 3)
    for _ in range(5):
        a = rng.normal(size=(3, 3))
        expr = lmi.AffineMatrixExpr(3, rng.normal(size=(3, 3)))
        expr.add_term("P", a.T, np.eye(3))
        expr.add_term("P", np.eye(3), a)
        problem.add_constraint(expr, "neg")
    expr = lmi.AffineMatrixExpr([2, 3], np.eye(5))
    expr.add_term("R", block=(0, 1))
    problem.add_constraint(expr, "pos")
    problem.add_constraint(lmi.AffineMatrixExpr(2, -np.eye(2)), "neg")
    return problem


def _oriented_values(problem, layout, vec):
    """M_k(v) of every constraint in "M(v) <= t I" form, in problem order."""
    assignment = layout.unpack(vec)
    return [(1.0 if c.sense == "neg" else -1.0) * c.expr.evaluate(assignment)
            for c in problem.constraints]


def _oriented_tops(problem, layout, vec):
    """Largest eigenvalue of every oriented M_k(v), in problem order."""
    return [float(lmi.symmetric_eigenvalues(m)[-1])
            for m in _oriented_values(problem, layout, vec)]


def _einsum_newton_system(problem, layout, oriented, factors, mu):
    """Reference: the dense formulas mu tr(S^-1 C_p) and mu tr(S^-1 C_p S^-1 C_q)
    over every parameter and the shift t (C_t = -I, plus 1 on the gradient's
    t), with basis-evaluated coefficients and S^-1 from the slack factors."""
    grad = np.zeros(layout.total + 1)
    grad[-1] = 1.0
    hess = np.zeros((layout.total + 1,) * 2)
    reference = _basis_materialise(problem, layout)
    for grp, stack in zip(oriented.groups, factors):
        for k, r in zip(grp.members, stack):
            c = np.concatenate([reference[k][1], -np.eye(grp.dim)[None]])
            s_inv = sla.cho_solve((r, False), np.eye(grp.dim))
            s_inv = 0.5 * (s_inv + s_inv.T)
            w = np.einsum("ij,pjk->pik", s_inv, c)
            grad += mu * np.einsum("pii->p", w)
            hess += mu * np.einsum("pij,qji->pq", w, w)
    return grad, hess


@pytest.mark.parametrize("kind", ["synthesis", "coupled", "coupled-rotated-4x3", "hand-built"])
def test_newton_system_matches_einsum_reference(kind, monkeypatch):
    if kind == "synthesis":
        problem = synthesis.build_hinf_lmis(demo.reference_plant(), 0.05)
    elif kind == "coupled":
        problem = _coupled_check_problem(monkeypatch)
    elif kind == "coupled-rotated-4x3":
        problem = _rotated_4x3_problem(monkeypatch)
    else:
        problem = _hand_built_problem()
        monkeypatch.setattr(lmi, "_GROUP_ENTRIES", 2 * 7 * 3**2)  # two 3x3 blocks in P and t
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    if kind == "hand-built":
        shapes = [(grp.dim, grp.idx.shape[1], len(grp.members)) for grp in oriented.groups]
        assert shapes == [(3, 7, 2), (3, 7, 2), (3, 7, 1), (5, 7, 1), (2, 1, 1)]
    else:
        assert max(len(grp.members) for grp in oriented.groups) > 1
    vec = 0.3 * np.random.default_rng(5).normal(size=layout.total)
    top = max(_oriented_tops(problem, layout, vec))
    for room, mu in ((0.5, 1.0), (1e-4, 1e-3)):  # well inside, and near the boundary
        x = np.append(vec, top + room)  # every slack >= room * I
        factors = lmi._slacks(oriented, x)
        grad, hess = lmi._newton_system(oriented, factors, mu)
        ref_grad, ref_hess = _einsum_newton_system(problem, layout, oriented, factors, mu)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))
        assert np.max(np.abs(hess - ref_hess)) <= 1e-12 * np.max(np.abs(ref_hess))
    shape = (layout.total + 1,) * 2
    mesh = [np.ravel_multi_index(np.ix_(idx, idx), shape).reshape(-1)
            for grp in oriented.groups for idx in grp.idx]
    assert np.array_equal(oriented.hess_idx, np.concatenate(mesh))  # member by member


@pytest.mark.parametrize("transpose", [False, True])
def test_off_diagonal_block_term_matches_hand_padded_pair(transpose):
    rng = np.random.default_rng(3)
    left, right = rng.normal(size=(2, 4)), rng.normal(size=(3, 3))
    if transpose:
        left, right = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    const = rng.normal(size=(2, 3))
    blocks = lmi.AffineMatrixExpr([2, 3])
    blocks.add_constant(const, block=(0, 1))
    blocks.add_term("V", left, right, transpose, block=(0, 1))

    pad_left = np.vstack([left, np.zeros((3, left.shape[1]))])
    pad_right = np.hstack([np.zeros((right.shape[0], 2)), right])
    hand = lmi.AffineMatrixExpr(5, np.block([[np.zeros((2, 2)), const],
                                             [const.T, np.zeros((3, 3))]]))
    hand.add_term("V", pad_left, pad_right, transpose)
    hand.add_term("V", pad_right.T, pad_left.T, not transpose)

    assignment = {"V": rng.normal(size=(4, 3))}
    value = blocks.evaluate(assignment)
    assert np.max(np.abs(value - hand.evaluate(assignment))) <= 1e-14 * (1.0 + np.max(np.abs(value)))
    assert np.max(np.abs(value[2:, :2] - value[:2, 2:].T)) == 0.0
    assert np.max(np.abs(value[:2, :2])) == 0.0 and np.max(np.abs(value[2:, 2:])) == 0.0


def test_unpack_round_trips_symmetric_and_rectangular():
    variables = [lmi.MatrixVariable("S", 3, 3, symmetric=True), lmi.MatrixVariable("R", 2, 3)]
    layout = lmi._Layout(variables)
    assert layout.total == 6 + 6
    vec = np.random.default_rng(4).normal(size=layout.total)
    out = layout.unpack(vec)
    s, r = out["S"], out["R"]
    assert np.array_equal(s, s.T)
    assert np.array_equal(s[np.triu_indices(3)], vec[:6])
    assert np.array_equal(r, vec[6:].reshape(2, 3))
    again = layout.unpack(np.concatenate([s[np.triu_indices(3)], r.ravel()]))
    assert np.array_equal(again["S"], s) and np.array_equal(again["R"], r)


def _reference_synthesis_point():
    problem = synthesis.build_hinf_lmis(demo.reference_plant(), 0.05)
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    vec = 0.3 * np.random.default_rng(5).normal(size=layout.total)
    return problem, layout, oriented, vec, _oriented_tops(problem, layout, vec)


def _shifted_slacks(problem, layout, vec, t):
    """t I - M_k(v) of every constraint, in problem order."""
    return [t * np.eye(len(m)) - m for m in _oriented_values(problem, layout, vec)]


def test_slacks_none_when_one_block_indefinite():
    _, _, oriented, vec, tops = _reference_synthesis_point()
    assert sorted(tops)[-2] < max(tops) - 1e-3
    assert lmi._slacks(oriented, np.append(vec, max(tops) + 1e-6)) is not None
    # every other block is well inside; only the top block's slack turns indefinite
    assert lmi._slacks(oriented, np.append(vec, max(tops) - 1e-6)) is None


def test_slacks_none_when_one_member_of_a_group_is_indefinite():
    # three blocks c_k I + x I of one shape, stacked as one group
    problem = lmi.LmiProblem()
    problem.add_variable("x", 1, symmetric=True)
    for c in (-1.0, 0.5, -2.0):
        expr = lmi.AffineMatrixExpr(2, c * np.eye(2))
        expr.add_term("x", np.ones((2, 1)) / np.sqrt(2), np.ones((1, 2)) / np.sqrt(2))
        problem.add_constraint(expr, "neg")
    oriented = lmi._materialise(problem, lmi._Layout(problem.variables))
    (grp,) = oriented.groups
    assert list(grp.members) == [0, 1, 2]
    assert lmi._slacks(oriented, np.array([0.0, 0.6])) is not None
    assert lmi._slacks(oriented, np.array([0.0, 0.4])) is None  # the middle member only


def test_slacks_factor_each_shifted_block():
    problem, layout, oriented, vec, tops = _reference_synthesis_point()
    t = max(tops) + 0.5
    slacks = _shifted_slacks(problem, layout, vec, t)
    factors = lmi._slacks(oriented, np.append(vec, t))
    for grp, stack in zip(oriented.groups, factors, strict=True):
        for k, r in zip(grp.members, stack, strict=True):
            s = slacks[k]
            assert np.max(np.abs(r.T @ r - s)) <= 1e-12 * np.max(np.abs(s))
            assert np.all(np.tril(r, -1) == 0.0)


def test_barrier_value_is_shift_minus_weighted_logdets():
    problem, layout, oriented, vec, tops = _reference_synthesis_point()
    t, mu = max(tops) + 0.5, 0.3
    logdet = 0.0
    for s in _shifted_slacks(problem, layout, vec, t):
        sign, value = np.linalg.slogdet(s)
        assert sign == 1.0
        logdet += value
    barrier = lmi._barrier_value(lmi._slacks(oriented, np.append(vec, t)), t, mu)
    assert barrier == pytest.approx(t - mu * logdet, rel=1e-12)


def test_non_finite_data_is_rejected_by_constraint():
    problem = _lyapunov_problem(np.array([[-1.0, 0.5], [0.0, -2.0]]))
    problem.add_constraint(lmi.AffineMatrixExpr(2, np.diag([1.0, np.inf])), "neg")
    with pytest.raises(ValueError, match="constraint 2 has a non-finite"):
        lmi.solve_feasibility(problem)
    problem = _lyapunov_problem(np.array([[-1.0, np.nan], [0.0, -2.0]]))
    with pytest.raises(ValueError, match="constraint 1 has a non-finite"):
        lmi.solve_feasibility(problem)


def test_newton_steps_match_dense_solve(monkeypatch):
    # every Newton step of the reference synthesis is the Cholesky solve of
    # its Hessian; LU on the same system agrees to 1e-10
    calls = []
    dposv = lmi.lapack.dposv

    def recording(hess, rhs, **options):
        out = dposv(hess, rhs, **options)
        calls.append((hess.copy(), rhs.copy(), out[1], out[2]))
        return out

    monkeypatch.setattr(lmi.lapack, "dposv", recording)
    result = synthesis.synthesize(demo.reference_plant(), 0.05)
    assert len(calls) == result.solution.iterations
    for hess, rhs, step, info in calls:
        assert info == 0
        ref = np.linalg.solve(hess, rhs)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))
