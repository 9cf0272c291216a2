import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings, strategies as st

from qhinf import analysis, demo, lmi, realizability, synthesis
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


def test_solution_record_is_plain_json():
    sol = lmi.solve_feasibility(_between_zero_and_b_problem(_B))
    record = sol.record()
    assert {k: type(v) for k, v in record.items()} == {
        "status": str, "newton_steps": int, "shift_steps": int, "objective_steps": int,
        "margin": float, "t": float, "gap": type(None), "notes": list}
    # no objective: every Newton step is a shift-phase step
    assert record == {"status": "feasible", "newton_steps": sol.iterations,
                      "shift_steps": sol.iterations, "objective_steps": 0,
                      "margin": sol.margin, "t": sol.t_achieved, "gap": None, "notes": []}
    assert json.loads(json.dumps(record, allow_nan=False)) == record
    assert sol.summary() == f"feasible, {sol.iterations} Newton steps, margin {sol.margin:.3e}"


def _never(assignment):
    """A ``ready`` predicate that accepts no iterate: the solve runs on past
    its certified iterates, to its stall test or the end of its schedule."""
    return False


def test_solution_record_carries_the_notes():
    # V > 0 alone leaves the shift unbounded below; a solve not stopped at
    # its first certified iterate runs the shift past the floor
    problem = lmi.LmiProblem()
    problem.add_variable("V", 2, symmetric=True)
    problem.add_constraint(lmi.AffineMatrixExpr(2).add_term("V"), "pos")
    sol = lmi.solve_feasibility(problem, ready=_never)
    assert (sol.status, sol.iterations) == ("feasible", 1)
    record = sol.record()
    assert record["notes"] == ["shift unbounded below; any interior point certifies feasibility"]
    assert record["t"] == sol.t_achieved < -1e9


def _between_zero_and_b_problem(b):
    """0 < X < B over a symmetric 3x3 X."""
    problem = lmi.LmiProblem()
    problem.add_variable("X", 3, symmetric=True)
    lower = lmi.AffineMatrixExpr(3)
    lower.add_term("X")
    problem.add_constraint(lower, "pos")
    upper = lmi.AffineMatrixExpr(3, -b)
    upper.add_term("X")
    problem.add_constraint(upper, "neg")
    return problem


_B = np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]])


def test_feasibility_stops_at_the_first_certified_iterate_ready_accepts():
    # 0 < X < B has largest margin max_X min(lambda_min(X), lambda_min(B - X))
    # = lambda_min(B) / 2 at X = B / 2, by Weyl's inequality
    best = (3.0 - np.sqrt(2.0)) / 2.0
    seen = []

    def near_the_centre(assignment):
        x = assignment["X"]
        margin = min(np.linalg.eigvalsh(x)[0], np.linalg.eigvalsh(_B - x)[0])
        seen.append(margin)
        return margin >= 0.99 * best

    sol = lmi.solve_feasibility(_between_zero_and_b_problem(_B), ready=near_the_centre)
    assert sol.status == "feasible" and sol.margin >= 0.99 * best
    # ready sees certified iterates only, one per step, and the solve ends
    # at the first it accepts
    assert len(seen) == sol.iterations == 5
    assert min(seen) >= lmi.EPS_STRICT
    assert [m >= 0.99 * best for m in seen] == [False] * 4 + [True]
    # a predicate that accepts nothing leaves the stall test to end the
    # solve, still feasible: the verdict rests on the final iterate
    sol = lmi.solve_feasibility(_between_zero_and_b_problem(_B), ready=_never)
    assert sol.status == "feasible"
    assert sol.margin == pytest.approx(best, rel=1e-6)
    assert sol.iterations == 21


def test_first_certificate_stop_ends_at_the_first_certified_iterate(monkeypatch):
    # the rule is tested after every Newton step: here the first iterate
    # already certifies, so the solve ends there
    problem = _between_zero_and_b_problem(_B)
    sol = lmi.solve_feasibility(problem)
    assert sol.status == "feasible"
    assert sol.iterations == 1
    # the verdict rests on the final iterate, re-verified from the expressions
    x = sol.assignment["X"]
    direct = min(np.linalg.eigvalsh(x)[0], np.linalg.eigvalsh(_B - x)[0])
    assert sol.margin == pytest.approx(direct, rel=1e-12)
    assert sol.margin >= lmi.EPS_STRICT
    # one step fewer leaves the starting point, X = 0, which does not certify
    monkeypatch.setattr(lmi, "MAX_ITER", sol.iterations - 1)
    short = lmi.solve_feasibility(problem)
    assert short.status == "undecided" and short.notes == ("the Newton step budget ran out",)


def test_every_verdict_reads_the_one_strictness_margin(monkeypatch):
    # solve_feasibility, certify_design and coupled_mode_check all compare
    # with lmi.EPS_STRICT as it is when they are called.  A bounded-real
    # block at level g has the corner -g^2 I, so its margin stays below g^2:
    # at EPS_STRICT = g^2 none of the three can certify.
    plant, g = demo.reference_plant(), 0.05
    result = synthesis.synthesize(plant, g)
    loop = assemble_closed_loop(plant, result.controller)
    assert synthesis.certify_design(plant, result, result.controller, g).certified
    assert analysis.coupled_mode_check(loop, g).solution.feasible
    monkeypatch.setattr(lmi, "EPS_STRICT", g * g)
    with pytest.raises(synthesis.LmiInfeasibleError) as info:
        synthesis.synthesize(plant, g)
    assert 0 < info.value.solution.margin < g * g
    assert not synthesis.certify_design(plant, result, result.controller, g).certified
    coupled = analysis.coupled_mode_check(loop, g).solution
    assert coupled.status == "infeasible-at-tolerance" and 0 < coupled.margin < g * g


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
    assert lmi.symmetric_eigenvalues(value)[0] >= lmi.EPS_STRICT


def test_oriented_value_matches_loop_reference():
    problem = _lyapunov_problem(np.array([[-1.0, 2.0], [0.5, -3.0]]))
    layout = lmi._Layout(problem.variables)
    x = np.random.default_rng(1).normal(size=layout.total + 1)  # parameters, then t
    for grp in lmi._materialise(problem, layout).groups:
        slacks = grp.slacks(x)
        for j in range(len(grp.const)):
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
    assert 1.0 + lmi.EPS_STRICT <= x <= 1.0 + lmi.EPS_STRICT + 1e-3
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


def _group_members(problem, layout, oriented):
    """Per group, the problem index of each member: the first constraint not
    yet taken whose oriented value M_k(v) at a random v the member's slack at
    (v, 0) negates."""
    vec = np.random.default_rng(0).normal(size=layout.total)
    values = _oriented_values(problem, layout, vec)
    free = list(range(len(values)))
    members = []
    for grp in oriented.groups:
        members.append([])
        for s in grp.slacks(np.append(vec, 0.0)):
            k = next(k for k in free if values[k].shape == s.shape
                     and np.max(np.abs(values[k] + s)) <= 1e-12 * (1.0 + np.max(np.abs(s))))
            free.remove(k)
            members[-1].append(k)
    return members


def _assert_stacks_match_basis_reference(problem):
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    reference = _basis_materialise(problem, layout)
    seen = []
    for grp, members in zip(oriented.groups, _group_members(problem, layout, oriented)):
        d, p = grp.dim, grp.idx.shape[1]
        assert grp.coeffs.shape == (len(members), p, d * d)
        assert members == sorted(members)  # a group keeps problem order
        for j, k in enumerate(members):
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


def test_split_run_stacks_match_basis_evaluation(monkeypatch):
    # a cap of two (d, p) = (4, 7) members splits that run 2 + 1; every
    # other block is over the cap alone
    monkeypatch.setattr(lmi, "_GROUP_ENTRIES", 2 * 7 * 4**2)
    problem = synthesis.build_hinf_lmis(demo.reference_plant(), 0.05)
    oriented = lmi._materialise(problem, lmi._Layout(problem.variables))
    shapes = [(grp.dim, grp.idx.shape[1], len(grp.const)) for grp in oriented.groups]
    assert shapes == [(4, 14, 1), (4, 7, 2), (4, 7, 1)] + [(10, 14, 1)] * 3 + [(4, 11, 1)] * 2
    _assert_stacks_match_basis_reference(problem)


def _coupled_check_problem(plant=None, controller=None, g=0.5):
    """The LMI problem ``coupled_mode_check`` poses on a closed loop (by default
    the reference loop)."""
    plant = demo.reference_plant() if plant is None else plant
    controller = demo.reference_controller() if controller is None else controller
    return analysis.coupled_problem(assemble_closed_loop(plant, controller), g)


def test_coupled_check_stacks_match_basis_evaluation():
    _assert_stacks_match_basis_reference(_coupled_check_problem())


def test_round_end_margin_matches_verified_margins(monkeypatch):
    # the shift phase's round-end margin comes from the stacked slacks; it
    # must agree with the eigenvalues of the expressions themselves
    problems, ends = [], []
    solve, stacked = lmi.solve_feasibility, lmi._stacked_margin

    def capture(problem, **kwargs):
        problems.append(problem)
        return solve(problem, **kwargs)

    def recording(oriented, x):
        margin = stacked(oriented, x)
        ends.append((problems[-1], x.copy(), margin))
        return margin

    monkeypatch.setattr(lmi, "solve_feasibility", capture)
    monkeypatch.setattr(lmi, "_stacked_margin", recording)
    # the level search, the barrier's coupled certificate of its design, then a
    # fixed-level synthesis
    plant = demo.reference_plant()
    g_star, result = synthesis.min_attenuation(plant, 0.01, 1.0, tol_g=5e-3)
    aug = realizability.augment_jump_controller(result.controller)
    loop = assemble_closed_loop(plant, aug)
    assert lmi.solve_feasibility(analysis.coupled_problem(loop, g_star)).feasible
    synthesis.synthesize(plant, 0.05)
    assert len(problems) == 3
    assert {id(problem) for problem, _, _ in ends} == {id(problem) for problem in problems}
    for problem, x, margin in ends:
        assignment = lmi._Layout(problem.variables).unpack(x[:-1])
        verified = min(lmi._verified_margins(problem, assignment))
        scale = max(np.max(np.abs(c.expr.evaluate(assignment))) for c in problem.constraints)
        assert abs(margin - verified) <= 1e-12 * (1.0 + scale)


def _plants():
    """perfbench's seeded plant generators."""
    spec = importlib.util.spec_from_file_location("plants", ROOT / "perfbench" / "plants.py")
    plants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plants)
    return plants


def _rotated_4x3_problem():
    """Coupled check of a 4-state, 3-mode random plant in rotated coordinates
    (the scaled-design benchmark plant), closed with its synthesized controller."""
    plants = _plants()
    plant = plants.rotated_plant(plants.random_plant(0, 4, 3, 0), 1, 0)
    controller = synthesis.synthesize(plant, 5.0).controller
    return _coupled_check_problem(plant, controller, 5.0)


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
    members = _group_members(problem, layout, oriented)
    for grp, ks, stack in zip(oriented.groups, members, factors, strict=True):
        for k, r in zip(ks, stack, strict=True):
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
        problem = _coupled_check_problem()
    elif kind == "coupled-rotated-4x3":
        problem = _rotated_4x3_problem()
    else:
        problem = _hand_built_problem()
        monkeypatch.setattr(lmi, "_GROUP_ENTRIES", 2 * 7 * 3**2)  # two 3x3 blocks in P and t
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    if kind == "hand-built":
        shapes = [(grp.dim, grp.idx.shape[1], len(grp.const)) for grp in oriented.groups]
        assert shapes == [(3, 7, 2), (3, 7, 2), (3, 7, 1), (5, 7, 1), (2, 1, 1)]
    else:
        assert max(len(grp.const) for grp in oriented.groups) > 1
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


@pytest.mark.parametrize("kind", ["synthesis", "hand-built", "between"])
def test_starting_weight_centres_the_starting_point(kind):
    # at x0 (v = 0, t one above every max eigenvalue of M_k(0)), with g and H
    # the barrier's gradient and Hessian there, mu0 minimises the centring
    # residual r(mu) = |e_t + mu g| in the H^-1 norm, and the first step is
    # the Newton step of t - mu0 sum_k logdet S_k at x0
    problem = {"synthesis": lambda: synthesis.build_hinf_lmis(demo.reference_plant(), 0.05),
               "hand-built": _hand_built_problem,
               "between": lambda: _between_zero_and_b_problem(_B)}[kind]()
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    zero = np.zeros(layout.total)
    x0 = np.append(zero, max(_oriented_tops(problem, layout, zero)) + 1.0)
    mu0, (grad, step) = lmi._starting_weight(oriented, x0)
    g, h = _einsum_newton_system(problem, layout, oriented, lmi._slacks(oriented, x0), 1.0)
    g[-1] -= 1.0
    e_t = np.eye(len(g))[-1]

    def residual(mu):
        r = e_t + mu * g
        return float(r @ np.linalg.solve(h, r))

    assert 0.0 < mu0 < 1.0
    assert residual(mu0) < min(residual(0.99 * mu0), residual(1.01 * mu0), residual(1.0))
    # r'(mu0) = 2 g' H^-1 (e_t + mu0 g) = -2 mu0 g' step vanishes
    assert abs(g @ step) <= 1e-12 * np.linalg.norm(g) * np.linalg.norm(step)
    assert np.max(np.abs(grad - (e_t + mu0 * g))) <= 1e-14 * np.max(np.abs(g))
    newton = mu0 * h @ step + grad
    assert np.max(np.abs(newton)) <= 1e-10 * mu0 * np.max(np.abs(h)) * np.max(np.abs(step))


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
    assert np.array_equal(grp.const, [c * np.eye(2) for c in (-1.0, 0.5, -2.0)])  # in order
    assert lmi._slacks(oriented, np.array([0.0, 0.6])) is not None
    assert lmi._slacks(oriented, np.array([0.0, 0.4])) is None  # the middle member only


def test_slacks_factor_each_shifted_block():
    problem, layout, oriented, vec, tops = _reference_synthesis_point()
    t = max(tops) + 0.5
    slacks = _shifted_slacks(problem, layout, vec, t)
    factors = lmi._slacks(oriented, np.append(vec, t))
    for ks, stack in zip(_group_members(problem, layout, oriented), factors, strict=True):
        for k, r in zip(ks, stack, strict=True):
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
    # its Hessian; LU on the same system agrees to 1e-10.  A round that ends
    # at its rounding floor solves one system it does not step on, so each
    # round adds at most one solve to the steps
    calls, rounds = [], []
    dposv, centre = lmi.lapack.dposv, lmi._centre

    def recording(hess, rhs, **options):
        out = dposv(hess, rhs, **options)
        calls.append((hess.copy(), rhs.copy(), out[1], out[2]))
        return out

    def counting(*args, **kwargs):
        rounds.append(args[2])
        return centre(*args, **kwargs)

    monkeypatch.setattr(lmi.lapack, "dposv", recording)
    monkeypatch.setattr(lmi, "_centre", counting)
    result = synthesis.synthesize(demo.reference_plant(), 0.05)
    steps = result.solution.iterations
    assert steps < len(calls) <= steps + len(rounds)
    for hess, rhs, step, info in calls:
        assert info == 0
        ref = np.linalg.solve(hess, rhs)
        assert np.max(np.abs(step - ref)) <= 1e-10 * np.max(np.abs(ref))


def _round_from_the_start(problem, mu, monkeypatch, fraction):
    """One barrier round at weight mu from the solve's starting point, with
    every Newton step cut to ``fraction`` of its length; returns (steps, the
    normalised decrement lambda^2 = decrement / mu of every solve)."""
    layout = lmi._Layout(problem.variables)
    oriented = lmi._materialise(problem, layout)
    zero = np.zeros(layout.total)
    x0 = np.append(zero, max(_oriented_tops(problem, layout, zero)) + 1.0)
    solve, normalised = lmi._newton_solve, []

    def partial(hess, rhs):
        step = fraction * solve(hess, rhs)
        normalised.append(float(rhs[:, 0] @ step[:, 0]) / mu)
        return step

    with monkeypatch.context() as patch:
        patch.setattr(lmi, "_newton_solve", partial)
        _, steps, note, stopped = lmi._centre(oriented, x0, mu, None, lmi._ROUND_STEPS)
    assert note is None and not stopped
    return steps, normalised


def test_round_ends_at_its_rounding_floor(monkeypatch):
    # Inside the quadratic region (lambda^2 < 1/16) a full Newton step
    # shrinks the decrement at least fivefold.  With exact steps this round
    # meets its decrement tolerance and steps on every solve.  A step cut to
    # a tenth of its length shrinks the decrement by about 0.9^2 instead, as
    # rounding does, so the round ends at the first solve after the region
    # is entered, without stepping on it, and not at its step cap.
    problem = _between_zero_and_b_problem(_B)
    steps, normalised = _round_from_the_start(problem, 0.2, monkeypatch, 1.0)
    assert len(normalised) == steps == 6
    assert normalised[-1] * 0.2 <= lmi._DECREMENT_TOL
    steps, normalised = _round_from_the_start(problem, 0.2, monkeypatch, 0.1)
    entered = next(k for k, lam in enumerate(normalised) if lam < 1.0 / 16.0)
    assert steps == entered + 1 < lmi._ROUND_STEPS
    assert len(normalised) == steps + 1
    assert 0.5 * normalised[-2] <= normalised[-1] < normalised[-2]


def test_rounding_floor_leaves_the_shift_plateau_alone(monkeypatch):
    # the 4x3 plant's shift phase runs onto the plateau of the unbounded
    # (Y, F) scaling, lambda^2 about 72, outside the quadratic region: the
    # rule cannot fire there, and with no stop at a certified iterate the
    # round runs to its step cap
    plant = _plants().random_plant(0, 4, 3, 0)
    rounds, centre = [], lmi._centre

    def counting(*args):
        out = centre(*args)
        rounds.append(out[1])
        return out

    monkeypatch.setattr(lmi, "_centre", counting)
    solution = lmi.solve_feasibility(synthesis.build_hinf_lmis(plant, 5.0), ready=_never)
    assert solution.status == "feasible"
    assert rounds[0] == lmi._ROUND_STEPS



def _interval_problem(upper):
    """0 < x < upper over a scalar x."""
    problem = lmi.LmiProblem()
    problem.add_variable("x", 1, symmetric=True)
    problem.add_constraint(lmi.AffineMatrixExpr(1).add_term("x"), "pos")
    problem.add_constraint(lmi.AffineMatrixExpr(1, [[-upper]]).add_term("x"), "neg")
    return problem


def test_starting_weight_above_one_starts_at_the_unit_weight():
    # 0 < x < 10 from x = 0, t = 1 has slacks 1 and 11.  There the barrier's
    # gradient is g = -(10, 12) / 11 and its Hessian H = [[122, 120], [120,
    # 122]] / 121, so H^-1 g = (5, -6) and the centring weight is 6 / 2 = 3;
    # the schedule starts at the unit weight instead
    problem = _interval_problem(10.0)
    oriented = lmi._materialise(problem, lmi._Layout(problem.variables))
    g = -np.array([10.0, 12.0]) / 11.0
    h = np.array([[122.0, 120.0], [120.0, 122.0]]) / 121.0
    toward_g = np.linalg.solve(h, g)
    assert -toward_g[-1] / (g @ toward_g) == pytest.approx(3.0, rel=1e-12)
    mu0, (grad, step) = lmi._starting_weight(oriented, np.array([0.0, 1.0]))
    assert mu0 == 1.0
    # the first step is the Newton step of t - sum_k logdet S_k at x0
    assert np.max(np.abs(grad - (g + [0.0, 1.0]))) <= 1e-15
    assert np.max(np.abs(h @ step + grad)) <= 1e-10
    assert lmi.solve_feasibility(problem).feasible


def test_newton_solve_falls_back_to_least_squares_off_the_cone():
    # an indefinite system fails dposv's Cholesky factorisation; the
    # least-squares solve of the same equilibrated system still solves it
    hess = np.array([[1.0, 2.0], [2.0, 1.0]])
    rhs = np.array([[1.0], [-3.0]])
    assert sla.lapack.dposv(hess, rhs, lower=1)[2] > 0
    regularised = hess + 2e-12 * np.eye(2)  # 1e-12 (1 + tr(hess) / size)
    out = lmi._newton_solve(hess.copy(), rhs)
    assert np.max(np.abs(out - np.linalg.solve(regularised, rhs))) <= 1e-14


def test_failed_cholesky_solves_give_the_same_verdict(monkeypatch):
    # with dposv reporting failure on every Newton system, every step comes
    # from the least-squares fallback, and the reference synthesis still
    # certifies with the same steps
    expected = synthesis.synthesize(demo.reference_plant(), 0.05).solution
    dposv = lmi.lapack.dposv

    def failing(hess, rhs, **options):
        c, x, _ = dposv(hess, rhs, **options)
        return c, x, 1

    monkeypatch.setattr(lmi.lapack, "dposv", failing)
    solution = synthesis.synthesize(demo.reference_plant(), 0.05).solution
    assert (solution.status, solution.iterations) == ("feasible", expected.iterations)
    assert solution.margin == pytest.approx(expected.margin, rel=1e-6)


def _break_line_search(monkeypatch, objective_phase, keep_start):
    """Make every barrier round of one phase (the objective phase, or else
    the shift phase) fail: ``_slacks`` rejects every point the round's line
    search tries and, unless ``keep_start``, the round's starting iterate
    too.  The other phase and the verdict's checks see the real slacks."""
    centre, slacks = lmi._centre, lmi._slacks

    def breaking(oriented, x, mu, objective, *args):
        if (objective is not None) is not objective_phase:
            return centre(oriented, x, mu, objective, *args)
        start = x.copy()
        monkeypatch.setattr(lmi, "_slacks", lambda o, y: (
            slacks(o, y) if keep_start and np.array_equal(y, start) else None))
        try:
            return centre(oriented, x, mu, objective, *args)
        finally:
            monkeypatch.setattr(lmi, "_slacks", slacks)

    monkeypatch.setattr(lmi, "_centre", breaking)


CENTRING_NOTES = [
    (True, "step-size collapse; problem may be ill-posed"),
    (False, "interior iterate lost positive definiteness"),
]


@pytest.mark.parametrize("keep_start, note", CENTRING_NOTES)
def test_a_shift_phase_note_reaches_the_record_without_a_certificate(
        monkeypatch, keep_start, note):
    # X = 0, where the solve starts, is not strictly feasible for 0 < X < B,
    # and no round can leave it; two stalled rounds end the solve, which
    # could not decide anything
    _break_line_search(monkeypatch, False, keep_start)
    record = lmi.solve_feasibility(_between_zero_and_b_problem(_B)).record()
    assert record["notes"] == [note, note]
    assert record["newton_steps"] == (2 if keep_start else 0)
    assert record["status"] == "undecided"


def test_a_synthesis_whose_rounds_cannot_step_is_undecided(monkeypatch):
    # the reference synthesis at 0.05 is feasible; with every shift-phase
    # line search failing it has no verdict, which is never infeasibility
    _break_line_search(monkeypatch, False, True)
    with pytest.raises(synthesis.SynthesisError) as info:
        synthesis.synthesize(demo.reference_plant(), 0.05)
    assert not isinstance(info.value, synthesis.LmiInfeasibleError)
    note = "step-size collapse; problem may be ill-posed"
    assert str(info.value) == (f"no verdict at g=0.05: {note} "
                               "(undecided, 2 Newton steps, margin -1.000e+00)")
    record = info.value.solution.record()
    assert (record["status"], record["notes"]) == ("undecided", [note, note])


@pytest.mark.parametrize("keep_start, note", CENTRING_NOTES)
def test_an_objective_phase_note_leaves_the_level_search_undecided(
        monkeypatch, keep_start, note):
    # the objective phase stops at its first note and keeps the verified
    # point the shift phase handed over, with no bound on the objective gap;
    # the level search cannot place its level and raises, but never calls
    # the level infeasible
    _break_line_search(monkeypatch, True, keep_start)
    with pytest.raises(synthesis.SynthesisError, match="not within tolerance") as info:
        synthesis.min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=5e-3)
    assert not isinstance(info.value, synthesis.LmiInfeasibleError)
    record = info.value.solution.record()
    assert record["notes"] == [note, "objective gap bound inf not within tolerance"]
    assert record["objective_steps"] == (1 if keep_start else 0)
    assert record["gap"] is None


def _problem_with(*, declare=(("X", 2, True),), constraints=()):
    """A problem declaring ``declare`` (name, rows, symmetric) and adding each
    (expression factory, sense) of ``constraints``."""
    problem = lmi.LmiProblem()
    for name, rows, symmetric in declare:
        problem.add_variable(name, rows, symmetric=symmetric)
    for make_expr, sense in constraints:
        problem.add_constraint(make_expr(), sense)
    return problem


def _mismatched_term():
    # a 3-row left factor on the 2x2 variable X inside a 3x3 expression
    expr = lmi.AffineMatrixExpr(3)
    expr.add_term("X", np.ones((3, 3)), np.ones((3, 3)))
    return expr


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: lmi.symmetric_eigenvalues(np.ones((2, 3))), "need a square matrix",
                 id="non-square eigenvalues"),
    pytest.param(lambda: lmi.MatrixVariable("X", 0, 2), "variable dimensions must be positive",
                 id="empty variable"),
    pytest.param(lambda: lmi.MatrixVariable("X", 2, 3, symmetric=True),
                 "symmetric variables must be square", id="rectangular symmetric"),
    pytest.param(lambda: lmi.AffineMatrixExpr([2, 0]), "expression dimension must be positive",
                 id="empty block"),
    pytest.param(lambda: lmi.AffineMatrixExpr(2, np.eye(3)), "constant block has the wrong shape",
                 id="constant shape"),
    pytest.param(lambda: lmi.AffineMatrixExpr(2).add_constant(np.eye(3)),
                 "constant block has the wrong shape", id="added constant shape"),
    pytest.param(lambda: lmi.AffineMatrixExpr(2).add_term("X", np.eye(3)),
                 "term coefficients must map into the expression dimension", id="term shape"),
    pytest.param(lambda: lmi.LmiConstraint(lmi.AffineMatrixExpr(2), "leq"),
                 "constraint sense must be 'neg' or 'pos'", id="unknown sense"),
    pytest.param(lambda: _problem_with(declare=(("X", 2, True), ("X", 3, False))),
                 "variable 'X' declared twice", id="duplicate variable"),
    pytest.param(lambda: _problem_with().variable("Y"), "'Y'", id="unknown variable"),
    pytest.param(lambda: _problem_with(constraints=((_mismatched_term, "neg"),)).validate(),
                 "constraint 0: term on 'X' has inconsistent shapes", id="inconsistent term"),
    pytest.param(lambda: lmi.solve_feasibility(_problem_with()), "problem has no constraints",
                 id="no constraints"),
])
def test_problem_input_checks_name_the_defect(build, message):
    with pytest.raises((ValueError, KeyError), match=message):
        build()


def test_a_certified_iterate_short_on_reverification_is_undecided_with_a_note(monkeypatch):
    # the stop accepts an iterate whose slacks factor at t = -EPS_STRICT; if
    # its eigensolved margin still falls short, the solve cannot decide, and
    # says so rather than calling the point infeasible or the budget spent
    verified = lmi._verified_margins
    monkeypatch.setattr(lmi, "_verified_margins",
                        lambda problem, assignment: tuple(
                            m - 1.0 for m in verified(problem, assignment)))
    sol = lmi.solve_feasibility(_between_zero_and_b_problem(_B))
    assert (sol.status, sol.iterations) == ("undecided", 1)
    assert sol.notes == (f"verified margin {sol.margin:.3e} below EPS_STRICT",)
