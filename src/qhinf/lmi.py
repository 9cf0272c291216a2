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
* The shift t is one more coordinate of x = (v, t), with coefficient -I in
  every block, so each slack is S_k = -(M_k(0) + sum_p x_p C_kp) and the
  Newton system needs no separate t row.
* Constraints of one block dimension d and one parameter count p form a
  group whose constants, parameter indices and coefficients are stacked
  once, so a Newton step costs a few numpy calls per group instead of per
  block: one batched GEMV gives the group's slacks, and two batched GEMMs
  against the stacked inverse factors whiten its coefficients to
  G_p = L^-1 C_p L^-T (S = L L^T).  The gradient is mu tr(G_p), the
  Hessian block mu G G^T with G flattened to (p, d^2); one np.bincount
  each scatters every group's entries, summing a parameter's repeats
  across members.  Blocks are grouped by exact (d, p) because padding to a
  common p wastes flops, and a group's coefficients are capped at
  _GROUP_ENTRIES because stacks that outgrow the cache slow the GEMMs.
* Factors and inverses come from LAPACK directly, one member at a time
  (dpotrf on each slack, dtrtri for L^-1, both in place in the stack, and
  dposv for the SPD Newton system): on blocks of dimension <= 20 the
  numpy/scipy wrappers' per-call overhead, batched np.linalg included,
  costs more than the arithmetic.
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


# Cap on a group's coefficient entries, members x parameters x d^2.  Stacks
# of blocks that together outgrow the CPU cache make the batched GEMMs slower
# than one block at a time, so a group stops growing at the cap and a block
# above it forms a group of one.
_GROUP_ENTRIES = 2**15


class _Group:
    """Oriented constraints ("M(v) <= t I") of one block dimension d and one
    parameter count p, stacked.  The last coordinate of x = (v, t) is the
    shift t, with coefficient -I in every member, so member j's slack is
    S_j = t I - M_j(v) = -(const_j + sum_q x[idx_jq] C_jq)."""

    def __init__(self, members, const, idx, coeffs):
        self.members = np.asarray(members)  # constraint indices, in problem order
        self.const = np.stack(const)        # (m, d, d) M_j(0)
        self.idx = np.stack(idx)            # (m, p) parameter indices, the shift's last
        self.coeffs = np.stack(coeffs)      # (m, p, d^2) flattened C_jq, the shift's -I last
        self.dim = self.const.shape[-1]

    def slacks(self, x):
        """The slacks S_j at x = (v, t), stacked (m, d, d)."""
        s = np.matmul(-x[self.idx][:, None, :], self.coeffs).reshape(self.const.shape)
        s -= self.const
        return s


class _Oriented:
    """A problem's constraints grouped by (d, p), with the flat gradient and
    Hessian indices of every group's (m, p) and (m, p, p) entries in group
    order: a parameter occurs in several members, so the Newton system sums
    them with ``np.bincount``, as fancy-index ``+=`` would drop repeats."""

    def __init__(self, groups, n_params):
        self.groups = groups
        self.size = n_params + 1  # the parameters, then the shift t
        self.grad_idx = np.concatenate([grp.idx.reshape(-1) for grp in groups])
        self.hess_idx = np.concatenate(
            [(grp.idx[:, :, None] * self.size + grp.idx[:, None, :]).reshape(-1)
             for grp in groups]
        )


def _materialise(problem: LmiProblem, layout: _Layout) -> _Oriented:
    """The constraints in "M(v) <= t I" form, grouped by (d, p) in order of
    first appearance and stacked; raises ``ValueError`` naming a constraint
    whose constant or coefficients are not finite."""
    shift = layout.total
    data, runs = [], {}  # runs: (d, p) -> member lists, the last one open
    for k, c in enumerate(problem.constraints):
        sign = 1.0 if c.sense == "neg" else -1.0
        d = c.expr.dim
        idx, mats = [], []
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite data is named below
            base = sign * 0.5 * (c.expr.constant + c.expr.constant.T)
            by_name = {}  # variable -> coefficients of vec(V), (rows * cols, d, d)
            for t in c.expr.terms:
                # outer[i, j] = L[:, i] (x) R[j, :], the coefficient of (V or V^T)[i, j]
                outer = t.left.T[:, None, :, None] * t.right[None, :, None, :]
                if t.transpose:
                    outer = outer.transpose(1, 0, 2, 3)
                outer = outer.reshape(-1, d, d)
                by_name[t.name] = by_name.get(t.name, 0.0) + outer
            for name in sorted(by_name, key=layout.offsets.get):
                g, t = by_name[name], layout.expansions[name]
                if t is not None:
                    g = np.tensordot(t, g, axes=(0, 0))
                g = sign * 0.5 * (g + g.transpose(0, 2, 1))
                keep = np.flatnonzero(np.any(g != 0.0, axis=(1, 2)))
                idx.append(layout.offsets[name] + keep)
                mats.append(g[keep])
        if not all(np.all(np.isfinite(a)) for a in [base, *mats]):
            raise ValueError(f"constraint {k} has a non-finite constant or coefficient")
        idx = np.concatenate([*idx, [shift]])
        coeffs = np.concatenate([*mats, -np.eye(d)[None]]).reshape(idx.size, d * d)
        data.append((base, idx, coeffs))
        members = runs.setdefault((d, idx.size), [[]])
        if members[-1] and (len(members[-1]) + 1) * coeffs.size > _GROUP_ENTRIES:
            members.append([])
        members[-1].append(k)
    groups = [_Group(m, *zip(*(data[k] for k in m))) for run in runs.values() for m in run]
    return _Oriented(groups, layout.total)


def _slacks(oriented: _Oriented, x):
    """Per group, upper Cholesky factors R_j with R_j^T R_j = S_j at x = (v, t),
    stacked (m, d, d); None when some slack is not positive definite."""
    factors = []
    for grp in oriented.groups:
        s = grp.slacks(x)
        for member in s:
            # the transposed view is Fortran-ordered, so dpotrf works in place
            # and its lower factor L reads as R = L^T in the C-ordered stack
            if lapack.dpotrf(member.T, lower=1, clean=1, overwrite_a=1)[1] != 0:
                return None
        factors.append(s)
    return factors


def _barrier_value(factors, t, mu):
    diagonals = [r.reshape(len(r), -1)[:, :: r.shape[-1] + 1] for r in factors]
    return t - 2.0 * mu * float(np.log(np.concatenate(diagonals, axis=None)).sum())


def _newton_system(oriented: _Oriented, factors, mu):
    """Gradient and Hessian of t - mu sum_j logdet S_j over x = (v, t): with
    G_q = R^-T C_q R^-1, mu tr(G_q) (plus 1 on t) and mu <G_q, G_r>."""
    traces, grams = [], []
    for grp, r in zip(oriented.groups, factors):
        m, p, d = len(r), grp.idx.shape[1], grp.dim
        r_inv = r.copy()
        for member in r_inv:
            # in place as in _slacks: L^-1 in Fortran order reads as R^-1
            lapack.dtrtri(member.T, lower=1, overwrite_c=1)
        # W_q = C_q R^-1, then G_q = W_q^T R^-1 = R^-T C_q R^-1 as C_q is symmetric
        w = np.matmul(grp.coeffs.reshape(m, p * d, d), r_inv).reshape(m, p, d, d)
        w = np.ascontiguousarray(w.transpose(0, 1, 3, 2)).reshape(m, p * d, d)
        g = np.matmul(w, r_inv).reshape(m, p, d * d)
        traces.append(g[:, :, :: d + 1].sum(axis=2).reshape(-1))
        grams.append(np.matmul(g, g.transpose(0, 2, 1)).reshape(-1))
    size = oriented.size
    grad = mu * np.bincount(oriented.grad_idx, np.concatenate(traces), minlength=size)
    grad[-1] += 1.0
    hess = mu * np.bincount(oriented.hess_idx, np.concatenate(grams), minlength=size * size)
    return grad, hess.reshape(size, size)


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
            factors = _slacks(oriented, x)
            if factors is None:
                # should not happen from a feasible iterate; bail out
                return x, steps, "interior iterate lost positive definiteness"
        grad, hess = _newton_system(oriented, factors, mu)
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
            cand_factors = _slacks(oriented, cand)
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
    nonnegative, max_iter nonnegative, and every constraint's constant and
    coefficients finite (the message names the first constraint that is not).
    """
    if not (np.isfinite(eps_strict) and eps_strict > 0):
        raise ValueError(f"eps_strict must be finite and positive, got {eps_strict}")
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative, got {max_iter}")
    problem.validate()
    if not problem.constraints:
        raise ValueError("problem has no constraints")
    layout = _Layout(problem.variables)
    oriented = _materialise(problem, layout)

    x = np.zeros(layout.total + 1)  # parameters, then the shift t
    x[-1] = max(float(np.linalg.eigvalsh(grp.const)[:, -1].max()) for grp in oriented.groups) + 1.0

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
                and _slacks(oriented, np.append(x[:-1], -eps_strict)) is not None):
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
        dim_total = sum(grp.const.shape[0] * grp.dim for grp in oriented.groups)
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
