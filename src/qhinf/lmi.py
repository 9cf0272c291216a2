"""Strict LMI feasibility over named matrix variables.

The engine rewrites every constraint in the uniform form M_k(v) <= t I
(constraints required positive definite are negated first) and minimises the
shift t with a log-det barrier interior-point method on the slack matrices
S_k = t I - M_k(v).  A problem is declared strictly feasible when the final
iterate achieves max_k lambda_max(M_k(v)) <= -eps_strict.

A problem may also name a scalar variable to minimise (``LmiProblem.minimize``):
once the margin exceeds eps_strict, a second barrier phase freezes t at
-eps_strict and minimises that variable, so each of its iterates certifies.

Design notes:

* All matrix variables are vectorised into one parameter vector; symmetric
  variables contribute upper-triangle coordinates only.
* Constraints are affine, so their coefficient matrices are materialised
  once, straight from the L V R terms: a term contributes L[:, i] (x) R[j, :]
  to the coefficient of V[i, j], which is the parameter itself for a full
  variable; a symmetric variable maps its stack through the upper-triangle
  duplication T with vec(V) = T theta.
* The Newton system is assembled from whitened coefficient stacks.  With
  the slack factor S_k = L L^T and one triangular inverse L^-1, the stack
  G_p = L^-1 C_p L^-T comes from two GEMMs on the (p d, d) reshaped
  coefficients.  The barrier gradient is mu tr(G_p), the Hessian block is
  mu G G^T with G flattened to (p, d^2), and the shift cross term is
  -mu <G_p, L^-1 L^-T> = -mu <C_p, S^-2>.  Each constraint scatters its
  block through flat Hessian indices fixed at materialisation.
* The inner loop calls LAPACK directly (dpotrf on each slack, dtrtri for
  L^-1, dposv for the SPD Newton system): on blocks of dimension <= 20 the
  numpy/scipy wrappers' per-call overhead costs more than the arithmetic.
* The barrier weight follows a fixed geometric schedule and the Newton
  iteration uses deterministic damped steps, so identical problems produce
  identical iterate sequences.
* Before returning, every constraint margin is recomputed from scratch with
  the dense symmetric eigensolver; the verdict rests on that re-verification
  and never on solver internals.

Problem sizes here are tens of scalar unknowns with constraint blocks of
dimension at most a few tens, so dense linear algebra is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .qmodel import _maxabs

__all__ = [
    "MatrixVariable",
    "AffineMatrixExpr",
    "LmiConstraint",
    "LmiProblem",
    "LmiSolution",
    "symmetric_eigenvalues",
    "solve_feasibility",
]


def symmetric_eigenvalues(m) -> np.ndarray:
    """Eigenvalues (ascending) of a real symmetric matrix.

    Rejects input whose symmetry defect exceeds 1e-10 (scaled by the matrix
    magnitude).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("need a square matrix")
    if _maxabs(m - m.T) > 1e-10 * (1.0 + _maxabs(m)):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


@dataclass(frozen=True)
class MatrixVariable:
    """Declaration of one matrix unknown."""

    name: str
    rows: int
    cols: int
    symmetric: bool = False

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("variable dimensions must be positive")
        if self.symmetric and self.rows != self.cols:
            raise ValueError("symmetric variables must be square")

    @property
    def n_scalars(self) -> int:
        if self.symmetric:
            return self.rows * (self.rows + 1) // 2
        return self.rows * self.cols


@dataclass(frozen=True)
class _Term:
    name: str
    left: np.ndarray
    right: np.ndarray
    transpose: bool


class AffineMatrixExpr:
    """Affine symmetric block-matrix expression constant + sum_k L_k V_k R_k.

    ``dims`` lists the block dimensions (a plain int is one block).  Each
    term multiplies a named variable (optionally transposed) from the left
    and right and sits at a block position (row block, column block); for an
    off-diagonal position the expression also adds the mirrored transpose
    term, and ``add_constant`` mirrors its block likewise, so the sum is
    exactly symmetric for any assignment.  Evaluation returns the symmetric
    part of the sum, a no-op on exact data.
    """

    def __init__(self, dims, constant=None):
        dims = [dims] if np.ndim(dims) == 0 else list(dims)
        if not dims or min(dims) <= 0:
            raise ValueError("expression dimension must be positive")
        self.dims = dims
        self.offsets = np.concatenate([[0], np.cumsum(dims)]).astype(int)
        self.dim = int(self.offsets[-1])
        if constant is None:
            constant = np.zeros((self.dim, self.dim))
        constant = np.asarray(constant, dtype=float)
        if constant.shape != (self.dim, self.dim):
            raise ValueError("constant block has the wrong shape")
        self.constant = 0.5 * (constant + constant.T)
        self.terms: list[_Term] = []

    def _block(self, k):
        return slice(self.offsets[k], self.offsets[k + 1])

    def add_constant(self, mat, block=(0, 0)):
        r, c = block
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (self.dims[r], self.dims[c]):
            raise ValueError("constant block has the wrong shape")
        self.constant[self._block(r), self._block(c)] += mat
        if r != c:
            self.constant[self._block(c), self._block(r)] += mat.T

    def add_term(self, name: str, left=None, right=None, transpose: bool = False,
                 block=(0, 0)):
        r, c = block
        left = np.eye(self.dims[r]) if left is None else np.asarray(left, dtype=float)
        right = np.eye(self.dims[c]) if right is None else np.asarray(right, dtype=float)
        if left.shape[0] != self.dims[r] or right.shape[1] != self.dims[c]:
            raise ValueError("term coefficients must map into the expression dimension")
        self._place(name, r, left, c, right, transpose)
        if r != c:
            self._place(name, c, right.T, r, left.T, not transpose)
        return self

    def _place(self, name, r, left, c, right, transpose):
        padded_left = np.zeros((self.dim, left.shape[1]))
        padded_left[self._block(r)] = left
        padded_right = np.zeros((right.shape[0], self.dim))
        padded_right[:, self._block(c)] = right
        self.terms.append(_Term(name, padded_left, padded_right, transpose))

    def evaluate(self, assignment: dict) -> np.ndarray:
        m = self.constant.copy()
        for t in self.terms:
            v = np.asarray(assignment[t.name], dtype=float)
            if t.transpose:
                v = v.T
            m += t.left @ v @ t.right
        return 0.5 * (m + m.T)


@dataclass(frozen=True)
class LmiConstraint:
    expr: AffineMatrixExpr
    sense: str  # "neg" for < 0, "pos" for > 0

    def __post_init__(self):
        if self.sense not in ("neg", "pos"):
            raise ValueError("constraint sense must be 'neg' or 'pos'")


class LmiProblem:
    """Matrix variables, strict matrix-inequality constraints, and either no
    objective or (name of a 1x1 variable to minimise, acceptance test)."""

    def __init__(self, variables=(), constraints=()):
        self.variables: list[MatrixVariable] = list(variables)
        self.constraints: list[LmiConstraint] = list(constraints)
        self.objective: tuple | None = None

    def add_variable(self, name, rows, cols=None, symmetric=False) -> MatrixVariable:
        v = MatrixVariable(name, rows, rows if cols is None else cols, symmetric)
        if any(existing.name == name for existing in self.variables):
            raise ValueError(f"variable {name!r} declared twice")
        self.variables.append(v)
        return v

    def add_constraint(self, expr: AffineMatrixExpr, sense: str):
        self.constraints.append(LmiConstraint(expr, sense))

    def minimize(self, name: str, within):
        """Minimise the 1x1 variable ``name`` (bounded below) until ``within(value,
        lower)`` accepts a value against a lower bound on its least value."""
        v = self.variable(name)
        if (v.rows, v.cols) != (1, 1):
            raise ValueError("the objective must be a 1x1 variable")
        self.objective = (name, within)

    def variable(self, name: str) -> MatrixVariable:
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def validate(self):
        declared = {v.name: v for v in self.variables}
        for k, c in enumerate(self.constraints):
            for t in c.expr.terms:
                if t.name not in declared:
                    raise ValueError(f"constraint {k} uses undeclared variable {t.name!r}")
                v = declared[t.name]
                r, cdim = (v.cols, v.rows) if t.transpose else (v.rows, v.cols)
                if t.left.shape[1] != r or t.right.shape[0] != cdim:
                    raise ValueError(
                        f"constraint {k}: term on {t.name!r} has inconsistent shapes"
                    )


@dataclass(frozen=True)
class LmiSolution:
    """Feasibility verdict plus the verified margins of the final iterate.

    ``gap`` is the barrier gap bound on the objective (None without one).
    """

    assignment: dict
    margin: float
    iterations: int
    status: str  # feasible | infeasible-at-tolerance | max-iter
    t_achieved: float
    constraint_margins: tuple
    eps_strict: float
    notes: tuple = ()
    gap: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"


def _expansion(v: MatrixVariable) -> np.ndarray | None:
    """T with vec(V) = T theta (row-major vec, theta the upper triangle) for a
    symmetric variable; None for a full one, whose theta is vec(V) itself."""
    if not v.symmetric:
        return None
    rows, cols = np.triu_indices(v.rows)
    t = np.zeros((v.rows * v.cols, v.n_scalars))
    k = np.arange(v.n_scalars)
    t[rows * v.cols + cols, k] = 1.0
    t[cols * v.cols + rows, k] = 1.0
    return t


class _Layout:
    """Vectorisation of the declared variables into one parameter vector."""

    def __init__(self, variables):
        self.variables = list(variables)
        self.offsets = {}
        self.expansions = {}
        total = 0
        for v in self.variables:
            self.offsets[v.name] = total
            self.expansions[v.name] = _expansion(v)
            total += v.n_scalars
        self.total = total

    def unpack(self, vec):
        out = {}
        for v in self.variables:
            off = self.offsets[v.name]
            theta = vec[off : off + v.n_scalars]
            t = self.expansions[v.name]
            out[v.name] = (theta if t is None else t @ theta).reshape(v.rows, v.cols)
        return out


@dataclass
class _OrientedConstraint:
    """Constraint data in uniform "M(v) <= t I" orientation."""

    const: np.ndarray      # M_k(0)
    param_idx: np.ndarray  # indices of parameters with nonzero coefficient
    coeffs: np.ndarray     # (len(param_idx), d, d) basis coefficient matrices
    dim: int
    hess_idx: np.ndarray   # flat (param_idx, param_idx) indices into the Newton Hessian

    def __post_init__(self):
        self.eye = np.eye(self.dim)
        self.flat = self.coeffs.reshape(self.param_idx.size, self.dim**2)  # (p, d^2) view

    def value(self, vec):
        return self.const + (vec[self.param_idx] @ self.flat).reshape(self.dim, self.dim)


def _materialise(problem: LmiProblem, layout: _Layout):
    oriented = []
    for c in problem.constraints:
        sign = 1.0 if c.sense == "neg" else -1.0
        d = c.expr.dim
        base = sign * 0.5 * (c.expr.constant + c.expr.constant.T)
        by_name = {}  # variable -> coefficients of vec(V), (rows * cols, d, d)
        for t in c.expr.terms:
            # outer[i, j] = L[:, i] (x) R[j, :], the coefficient of (V or V^T)[i, j]
            outer = t.left.T[:, None, :, None] * t.right[None, :, None, :]
            if t.transpose:
                outer = outer.transpose(1, 0, 2, 3)
            outer = outer.reshape(-1, d, d)
            by_name[t.name] = by_name.get(t.name, 0.0) + outer
        idx, mats = [], []
        for name in sorted(by_name, key=layout.offsets.get):
            g, t = by_name[name], layout.expansions[name]
            if t is not None:
                g = np.tensordot(t, g, axes=(0, 0))
            g = sign * 0.5 * (g + g.transpose(0, 2, 1))
            keep = np.flatnonzero(np.any(g != 0.0, axis=(1, 2)))
            idx.append(layout.offsets[name] + keep)
            mats.append(g[keep])
        idx = np.concatenate(idx) if idx else np.zeros(0, dtype=int)
        coeffs = np.concatenate(mats) if mats else np.zeros((0, d, d))
        hess_idx = (idx[:, None] * (layout.total + 1) + idx).reshape(-1)
        oriented.append(_OrientedConstraint(base, idx, coeffs, d, hess_idx))
    return oriented


def _slacks(oriented, vec, t):
    """Cholesky factors of t I - M_k(v), or None when not positive definite."""
    factors = []
    for oc in oriented:
        chol, info = lapack.dpotrf(t * oc.eye - oc.value(vec), lower=1, clean=1)
        if info != 0:
            return None
        factors.append(chol)
    return factors


def _barrier_value(factors, t, mu):
    logdet = 2.0 * float(np.log(np.concatenate([f.diagonal() for f in factors])).sum())
    return t - mu * logdet


def _newton_system(oriented, factors, mu, n_params):
    grad = np.zeros(n_params + 1)
    hess = np.zeros((n_params + 1, n_params + 1))
    grad[-1] = 1.0
    for oc, chol in zip(oriented, factors):
        l_inv = lapack.dtrtri(chol, lower=1)[0]
        k = l_inv @ l_inv.T  # similar to S^-1 = L^-T L^-1: same trace and norm
        if oc.param_idx.size:
            # W_p = C_p L^-T, then G_p = W_p^T L^-T = L^-1 C_p L^-T as C_p is symmetric
            w = (oc.coeffs.reshape(-1, oc.dim) @ l_inv.T).reshape(oc.coeffs.shape)
            g = (w.transpose(0, 2, 1).reshape(-1, oc.dim) @ l_inv.T).reshape(oc.param_idx.size, -1)
            grad[oc.param_idx] += mu * g[:, :: oc.dim + 1].sum(axis=1)
            hess.reshape(-1)[oc.hess_idx] += (mu * (g @ g.T)).reshape(-1)
            hess[oc.param_idx, -1] -= mu * (g @ k.reshape(-1))
        grad[-1] -= mu * float(np.trace(k))
        hess[-1, -1] += mu * float(np.sum(k * k))
    hess[-1, :-1] = hess[:-1, -1]
    return grad, hess


def _verified_margins(problem: LmiProblem, assignment: dict):
    """Per-constraint strictness slack, recomputed with the eigensolver."""
    slacks = []
    for c in problem.constraints:
        m = c.expr.evaluate(assignment)
        eigs = symmetric_eigenvalues(m)
        slack = -float(eigs[-1]) if c.sense == "neg" else float(eigs[0])
        slacks.append(slack)
    return tuple(slacks)


def _centre(oriented, x, mu, objective, max_steps, tol):
    """Damped Newton steps on x[obj] - mu sum_k logdet(t I - M_k(v)), x = (v, t).

    With ``objective`` None, obj is t and every coordinate moves; otherwise t
    stays frozen and obj is the parameter index ``objective``.  Returns
    (x, steps, note), with a note when no step could be taken.
    """
    obj = -1 if objective is None else objective
    steps = 0
    factors = None  # slack factors at x, carried over from the accepted candidate
    while steps < max_steps and x[-1] >= _T_FLOOR:
        if factors is None:
            factors = _slacks(oriented, x[:-1], x[-1])
            if factors is None:
                # should not happen from a feasible iterate; bail out
                return x, steps, "interior iterate lost positive definiteness"
        grad, hess = _newton_system(oriented, factors, mu, len(x) - 1)
        if objective is not None:
            grad, hess = grad[:-1], hess[:-1, :-1]
            grad[objective] += 1.0
        hess.flat[:: len(hess) + 1] += 1e-12 * (1.0 + float(np.trace(hess)) / len(hess))
        step, info = lapack.dposv(hess, -grad, lower=1)[1:]  # hess is SPD: Gram matrices plus reg I
        if info != 0:
            step = np.linalg.lstsq(hess, -grad, rcond=None)[0]
        decrement = float(-grad @ step)
        f0 = _barrier_value(factors, x[obj], mu)
        steps += 1
        alpha = 1.0
        while True:
            if alpha < 1e-14:
                return x, steps, "step-size collapse; problem may be ill-posed"
            cand = x.copy()
            cand[: step.size] += alpha * step
            cand_factors = _slacks(oriented, cand[:-1], cand[-1])
            if cand_factors is not None:
                f1 = _barrier_value(cand_factors, cand[obj], mu)
                if f1 <= f0 - 1e-4 * alpha * decrement or f1 < f0:
                    x, factors = cand, cand_factors
                    break
            alpha *= 0.5
        if decrement <= max(tol, 1e-12) * (1.0 + abs(x[obj])):
            break
    return x, steps, None


_T_FLOOR = -1e9  # a shift this far below zero means it is unbounded below
_MU_FACTOR = 0.2
_ROUND_STEPS = 15  # Newton steps per barrier weight


def solve_feasibility(
    problem: LmiProblem,
    eps_strict: float = 1e-6,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> LmiSolution:
    """Search a strictly feasible point of an LMI system.

    Minimises the uniform eigenvalue shift t with a barrier path-following
    scheme and reports ``feasible`` when the re-verified margin of the final
    iterate is at least ``eps_strict``.  With an objective, the shift phase
    stops once that margin is exceeded and a phase at t = -eps_strict
    minimises the objective in rounds of falling mu.  Once ``within`` accepts
    the last value against the lower bound value - mu * sum_k dim_k (exact on
    the central path), one more round tightens the bound and the earliest
    round-end iterate ``within`` accepts is returned.  ``max_iter`` caps the
    Newton steps of both phases; exhausting it without a certificate yields
    status ``max-iter`` with the best iterate still attached.  Raises
    ``ValueError`` unless eps_strict is finite and positive, tol finite and
    nonnegative, and max_iter nonnegative.
    """
    if not (np.isfinite(eps_strict) and eps_strict > 0):
        raise ValueError(f"eps_strict must be finite and positive, got {eps_strict}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    problem.validate()
    layout = _Layout(problem.variables)
    oriented = _materialise(problem, layout)
    if not oriented:
        raise ValueError("problem has no constraints")

    x = np.zeros(layout.total + 1)  # parameters, then the shift t
    x[-1] = max(float(symmetric_eigenvalues(oc.const)[-1]) for oc in oriented) + 1.0

    mu = 1.0
    mu_min = 1e-11
    iterations = 0
    notes = []
    stall_rounds = 0
    t_prev_outer = x[-1]
    margin_prev = -np.inf
    settled = False  # progress on t has stopped or the schedule finished
    minimise = False  # the shift phase has handed over to the objective phase

    while mu > mu_min:
        x, steps, note = _centre(
            oriented, x, mu, None, min(_ROUND_STEPS, max_iter - iterations), tol
        )
        iterations += steps
        if note:
            notes.append(note)
        t = x[-1]
        margin_now = min(_verified_margins(problem, layout.unpack(x[:-1])))
        if (problem.objective is not None and margin_now > eps_strict
                and _slacks(oriented, x[:-1], -eps_strict) is not None):
            minimise = True
            break
        if t < _T_FLOOR:
            notes.append("shift unbounded below; any interior point certifies feasibility")
            settled = True
            break
        progress_tol = max(tol, 1e-8) * (1.0 + abs(t))
        t_stalled = abs(t - t_prev_outer) <= progress_tol
        margin_stalled = (margin_now - margin_prev) <= progress_tol
        if note or t_stalled or margin_stalled:
            stall_rounds += 1
            if stall_rounds >= 2:
                settled = True
                break
        else:
            stall_rounds = 0
        t_prev_outer = t
        margin_prev = margin_now
        if iterations >= max_iter:
            break
        mu *= _MU_FACTOR
    else:
        settled = True  # barrier schedule ran to completion

    gap = None if problem.objective is None else np.inf
    if minimise:
        name, within = problem.objective
        obj = layout.offsets[name]
        dim_total = sum(oc.dim for oc in oriented)
        x[-1] = -eps_strict
        rounds, sharpened = [x], False
        while iterations < max_iter:
            x, steps, note = _centre(
                oriented, x, mu, obj, min(_ROUND_STEPS, max_iter - iterations), tol
            )
            iterations += steps
            if note:
                notes.append(note)
                break
            rounds.append(x)
            gap = mu * dim_total
            if within(x[obj], x[obj] - gap):
                if sharpened:
                    break
                sharpened = True  # one more round tightens the lower bound
            mu *= _MU_FACTOR
        # the earliest, most central, round-end iterate within tolerance of
        # the lower bound is the best-conditioned certificate
        lower = x[obj] - gap
        x = next((r for r in rounds if within(r[obj], lower)), x)
        gap = float(x[obj] - lower)
        if not within(x[obj], lower):
            notes.append(f"objective gap bound {gap:.3e} not within tolerance")

    assignment = layout.unpack(x[:-1])
    constraint_margins = _verified_margins(problem, assignment)
    margin = min(constraint_margins)
    if margin >= eps_strict:
        status = "feasible"
    elif settled:
        status = "infeasible-at-tolerance"
    else:
        status = "max-iter"
    return LmiSolution(
        assignment=assignment,
        margin=margin,
        iterations=iterations,
        status=status,
        t_achieved=float(x[-1]),
        constraint_margins=constraint_margins,
        eps_strict=eps_strict,
        notes=tuple(notes),
        gap=gap,
    )
