import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhinf import lmi


def test_symmetric_eigenvalues_examples():
    assert np.allclose(lmi.symmetric_eigenvalues(np.diag([3.0, 1.0, 2.0])), [1, 2, 3])
    assert np.allclose(lmi.symmetric_eigenvalues(np.array([[2.0, 1.0], [1.0, 2.0]])), [1, 3])
    assert np.allclose(lmi.symmetric_eigenvalues(np.zeros((3, 3))), [0, 0, 0])


def test_symmetric_eigenvalues_reconstruction():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(6, 6))
    m = m + m.T
    w, q = lmi.symmetric_eigenvalues(m, vectors=True)
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
    vec = np.random.default_rng(1).normal(size=layout.total)
    for oc in lmi._materialise(problem, layout):
        reference = oc.const.copy()
        for pos, p in enumerate(oc.param_idx):
            reference = reference + vec[p] * oc.coeffs[pos]
        assert np.max(np.abs(oc.value(vec) - reference)) <= 1e-12 * (1.0 + np.max(np.abs(reference)))


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
