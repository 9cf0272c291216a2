"""Strict LMI feasibility over named matrix variables.

The engine rewrites every constraint in the uniform form M_k(v) <= t I
(constraints required positive definite are negated first) and minimises the
shift t with a log-det barrier interior-point method on the slack matrices
S_k = t I - M_k(v).  A problem is declared strictly feasible when the final
iterate achieves max_k lambda_max(M_k(v)) <= -EPS_STRICT.  ``EPS_STRICT``
(1e-6) and the Newton step budget ``MAX_ITER`` (400) are the one strictness
margin and the one budget of the program: every solve, and the closed-form
design certificate of ``synthesis``, reads them here.

Every solve ends with one of three outcomes (``LmiSolution.status``), which
its callers only map to exceptions: ``feasible`` (a verified point),
``infeasible-at-tolerance`` (the margin stopped rising) or ``undecided``
(anything else, never counted as infeasible; de Klerk, Roos & Terlaky,
Oper. Res. Lett. 20, 1997).  The barrier weight falls without a floor:
``MAX_ITER`` is the only budget.

A problem may also name a scalar variable to minimise (``LmiProblem.minimize``):
once the margin exceeds EPS_STRICT, a second barrier phase freezes t at
-EPS_STRICT and minimises that variable, so each of its iterates certifies.

Design notes:

* All matrix variables are vectorised into one parameter vector; symmetric
  variables contribute upper-triangle coordinates only.
* Constraints are affine, so their coefficient matrices are materialised
  once, straight from the L V R terms.  The layout stacks each variable's
  basis B_p once (E_rc for a full variable's parameter (r, c); E_rc + E_cr,
  or E_rr on the diagonal, for a symmetric one's), and a term adds
  L B_p R for every p, one batched product, at its block of the
  constraint's (parameters, d, d) stack over the variables it uses (and,
  in ``AffineMatrixExpr.evaluate``, L V R into its block only).  One pass
  per constraint then symmetrises and orients the stack, drops all-zero
  coefficients and checks finiteness.  An entry of L B_p is an entry of L
  or an exact zero, so where L or R is the identity or a selection, as in
  every term this package builds, an entry of L B_p R is one rounded
  product.  Measured: the stacks equal, sign bits included, the outer
  products L[:, i] (x) R[j, :] folded over the triangle that they replace,
  on the reference level search and synthesis, rotated 4-state, 3-mode
  plants and an 8-state, 6-mode plant, on one BLAS thread and on two;
  materialising takes 0.75 ms in place of 1.49 ms on the reference level
  search and 1.15 ms in place of 2.23 ms on a 4-state, 3-mode synthesis.
* The shift t is one more coordinate of x = (v, t), with coefficient -I in
  every block, so each slack is S_k = -(M_k(0) + sum_p x_p C_kp) and the
  Newton system needs no separate t row.  The groups below keep -C_kp, so
  the slacks take no negation: x (-C) rounds as (-x) C, sign bits
  included.
* Constraints of one block dimension d and one parameter count p form a
  group whose constants, parameter indices and coefficients are stacked
  once, so a Newton step costs a few numpy calls per group instead of per
  block: one batched GEMV gives the group's slacks, and two batched GEMMs
  against the stacked inverse factors whiten its coefficients to
  G_p = L^-1 C_p L^-T (S = L L^T).  The gradient is mu tr(G_p), the
  Hessian block mu G G^T with G flattened to (p, d^2); one np.bincount
  each scatters every group's entries, summing a parameter's repeats
  across members.  Blocks are grouped by exact (d, p): padding every block
  of one d to a common p with zero rows halves the reference synthesis's
  groups and makes the paper's design 12% faster, but the padded Gram
  products made synthesis at n = 4..8 6-12% slower and a 4-state, 3-mode
  design 4% slower.  A group's coefficients are capped at _GROUP_ENTRIES
  because stacks that outgrow the cache slow the GEMMs.
* Factors and inverses come from LAPACK directly, one member at a time
  (dpotrf on each slack, dtrtri for L^-1, both in place in the stack, and
  dposv for the SPD Newton system): on blocks of dimension <= 20 the
  numpy/scipy wrappers' per-call overhead, batched np.linalg included,
  costs more than the arithmetic.  The three are looked up in
  ``scipy.linalg.lapack`` when a solve runs, so importing this module does
  not import scipy.linalg (about 0.2 s of start-up); the first barrier
  solve does, and only commands that solve (``synth``, ``demo-paper``, an
  ``analyze`` off the closed-form routes) pay for it.  numpy's Cholesky,
  inverse and solve are no substitute: they round differently, so every
  iterate would move, and on these small blocks they are slower.
* The Newton system is equilibrated before its Cholesky solve: with
  D = diag(H) after the 1e-12 regulariser, dposv solves D^-1/2 H D^-1/2,
  whose diagonal is one, and the step is scaled back.  The parameters of
  one problem differ in scale by orders of magnitude; on the reference
  synthesis this takes cond(H) from 3e13 to 3e2, where Cholesky and LU
  agree to 1e-10.
* The first barrier weight comes from the starting point x0 (v = 0, t one
  above the largest eigenvalue of every M_k(0)): with g and H the barrier's
  gradient and Hessian at x0, mu0 = -(e_t' H^-1 g) / (g' H^-1 g) minimises
  the centring residual |e_t + mu g| in the H^-1 norm, which puts x0 as
  near the central path as any weight can (Boyd & Vandenberghe, Convex
  Optimization, 2004, 11.3.1).  The one solve that gives mu0 also gives the
  first Newton step, which ``_starting_weight`` leaves, beside the
  weight-free sums at x0, for the first round (``_Held``, below).  The
  starting slacks are factored once, for both.  From mu0 the weight falls
  by _MU_FACTOR per round of at most _ROUND_STEPS steps.  A unit first
  weight left the first round uncentred after its 15 steps (Newton
  decrement 24 in certification, 72 in synthesis).  Over 147 solves on
  seeded random plants (fixed-level and minimal-level synthesis, and the
  certification of each design) mu0 lay in 0.018-0.82 but for two
  certifications of 2-state designs, at 4.5 and 58; a weight above 1 is
  lowered to 1, which took no more steps there.
  The reference synthesis at 0.037 takes 66 Newton steps against 77 from
  a unit weight.  Newton steps are deterministic and damped, so identical
  problems produce identical iterate sequences.
* A round ends after _ROUND_STEPS steps, at a Newton decrement below
  _DECREMENT_TOL (1 + |objective|), or at its rounding floor.  The barrier
  scaled by 1/mu is self-concordant, so its normalised decrement
  lambda^2 = decrement / mu obeys lambda(x+) <= (lambda / (1 - lambda))^2
  after a full step from lambda < 1/4 (Boyd & Vandenberghe, Convex
  Optimization, 2004, 9.6.4): inside that quadratic region (lambda^2 <
  1/16) exact arithmetic shrinks the decrement at least fivefold per full
  step.  A full step from there after which the decrement has not halved
  met rounding, not progress, and the round ends at that point without
  stepping again; it has solved one Newton system it does not step on.
  The decrement tolerance itself is rarely met.  On the reference level
  search, three objective rounds ended with 8-9 full steps at a constant
  lambda^2 (0.028, 1.2e-3 and 3.9e-5) and ran to the cap; the rule takes
  the search from 108 Newton steps to 84 (30 in the shift phase, 54, from
  78, in the objective phase), with the same verdicts and a level 1.3e-7
  higher.  The rule cannot
  fire outside the quadratic region, so the shift phase's plateau along
  the unbounded (Y, F) scaling (lambda^2 about 24 on the reference level
  search, 72 on a 4-state, 3-mode design, and 8 on a scalar plant) is
  left to the step cap: cutting it too turned three feasible fixed-level
  solves of the scalar plant infeasible-at-tolerance.
* State enters a round only through a ``_Held`` at its starting iterate:
  the slack factors there, the weight-free sums of a Newton system formed
  there, which the round scales by its own weight, and a first step
  already solved.  The solve factors its starting point once and
  ``_starting_weight`` adds the sums and the first step; a round leaves
  the next round of its phase the factors of the iterate it returns and,
  when it solved a Newton system there without stepping (rounding floor,
  failed line search), that system's sums; the objective phase starts
  from the factors that certified the hand-off at t = -EPS_STRICT.  So no
  round factors its start, and every start has factored already.  The
  reference level search forms 84 Newton systems and 122 slack
  factorisations, the reference synthesis at g = 0.05 53 and 125, each
  iterate to the bits that forming both afresh gives.  Saving
  steps is another matter: a tangent predictor before each weight cut
  saved 21 of its 84 steps but moved the levels the searches return and
  cost one design its augmentation (ROADMAP item 9).
* A shift-phase round ends with the margin min_k -lambda_max(M_k(v)) read off
  the stacked slacks at t = 0, one batched eigensolve per group, for the
  stall test and the hand-off to the objective phase.  Only the final
  iterate is re-verified from the expressions themselves: every constraint
  is rebuilt from its terms, the values of one dimension are eigensolved
  together in one batched call (to the bit as one at a time), and the
  verdict rests on that re-verification and never on solver internals.
* A problem with no objective stops at the first certified iterate that
  ``ready`` accepts, tested after every accepted Newton step, as feasp tests
  its target (Gahinet, Nemirovski, Laub & Chilali, LMI Control Toolbox,
  1995).  An iterate certifies when every slack factors at t = -EPS_STRICT,
  one dpotrf pass per member.  Synthesis passes as ``ready`` the inversions
  its controller rebuild takes, and rebuilds from those of the iterate it
  accepted; certification passes none.  On a 45-case
  fixed-level synthesis audit this took 2.7 s to 0.86 s (a 4-state, 3-mode
  design 16 Newton steps to 3, the reference design at g = 0.037 86 to 66)
  with the same verdicts, every design certified.  A problem with an
  objective hands over to its objective phase at round ends only.

Problem sizes here are tens of scalar unknowns with constraint blocks of
dimension at most a few tens, so dense linear algebra is used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy

from .qmodel import _maxabs

__all__ = [
    "MatrixVariable",
    "AffineMatrixExpr",
    "LmiConstraint",
    "LmiProblem",
    "LmiSolution",
    "symmetric_eigenvalues",
    "solve_feasibility",
    "EPS_STRICT",
    "MAX_ITER",
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
    """L (V or V^T) R placed at the block rows x cols of its expression."""

    name: str
    left: np.ndarray   # (rows block dimension, rows of V or V^T)
    right: np.ndarray  # (columns of V or V^T, cols block dimension)
    transpose: bool
    rows: slice
    cols: slice


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
        self.dims = [int(d) for d in dims]
        self.offsets = [0]
        for d in self.dims:
            self.offsets.append(self.offsets[-1] + d)
        self.dim = self.offsets[-1]
        self._blocks = [slice(a, b) for a, b in zip(self.offsets, self.offsets[1:])]
        if constant is None:
            constant = np.zeros((self.dim, self.dim))
        constant = np.asarray(constant, dtype=float)
        if constant.shape != (self.dim, self.dim):
            raise ValueError("constant block has the wrong shape")
        self.constant = 0.5 * (constant + constant.T)
        self.terms: list[_Term] = []

    def add_constant(self, mat, block=(0, 0)):
        r, c = block
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (self.dims[r], self.dims[c]):
            raise ValueError("constant block has the wrong shape")
        self.constant[self._blocks[r], self._blocks[c]] += mat
        if r != c:
            self.constant[self._blocks[c], self._blocks[r]] += mat.T

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
        self.terms.append(_Term(name, np.array(left, order="C"), np.array(right, order="C"),
                                transpose, self._blocks[r], self._blocks[c]))

    def evaluate(self, assignment: dict) -> np.ndarray:
        m = self.constant.copy()
        for t in self.terms:
            v = np.asarray(assignment[t.name], dtype=float)
            if t.transpose:
                v = v.T
            m[t.rows, t.cols] += t.left @ v @ t.right
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

    def __init__(self):
        self.variables: list[MatrixVariable] = []
        self.constraints: list[LmiConstraint] = []
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

    ``iterations`` counts the Newton steps of both phases, of which
    ``objective_iterations`` minimised the objective; ``t_achieved`` is
    the shift t of the barrier iterate the solve stopped at, ``notes`` name
    what the solve ran into, and ``gap`` is the barrier gap bound on the
    objective (None without one, inf when its phase never started).  The
    verdict is ``status``, which rests on ``margin``, not on t: a solve
    stopped at its first certified iterate can report t > 0 beside a
    verified margin > 0.  A point verified without a barrier solve (the
    coupled Lyapunov or Riccati storage of ``analysis.coupled_mode_check``)
    reports 0 iterations and t = -margin.  Reports of a solve use ``record()`` and
    ``summary()``.

    ``status`` is one of three outcomes:

    * ``feasible``: the verified margin is at least ``EPS_STRICT`` and, for
      a problem with an objective, ``within`` accepts the returned value
      against its lower bound;
    * ``infeasible-at-tolerance``: two shift-phase rounds in a row stalled,
      neither on a note;
    * ``undecided``: anything else, never counted as infeasible.  Its notes
      say why: the last one is "the Newton step budget ran out" when
      ``MAX_ITER`` ended the solve, or names the verified margin when a
      certified iterate fell short of ``EPS_STRICT`` on re-verification.
    """

    assignment: dict
    margin: float
    iterations: int
    status: str  # feasible | infeasible-at-tolerance | undecided
    t_achieved: float
    constraint_margins: tuple
    notes: tuple = ()
    gap: float | None = None
    objective_iterations: int = 0

    @property
    def feasible(self) -> bool:
        return self.status == "feasible"

    def record(self) -> dict:
        """Status, Newton steps (in all, then those of the shift phase and of
        the objective phase), verified margin, final shift t, objective gap
        and notes as JSON values; an infinite gap is None."""
        gap = None if self.gap is None or not math.isfinite(self.gap) else float(self.gap)
        objective = int(self.objective_iterations)
        return {"status": self.status, "newton_steps": int(self.iterations),
                "shift_steps": int(self.iterations) - objective, "objective_steps": objective,
                "margin": float(self.margin), "t": float(self.t_achieved), "gap": gap,
                "notes": list(self.notes)}

    def summary(self) -> str:
        return f"{self.status}, {self.iterations} Newton steps, margin {self.margin:.3e}"


class _Layout:
    """Vectorisation of the declared variables into one parameter vector.

    A full variable's parameters are vec(V), row-major; a symmetric one's are
    its upper triangle, at the index pairs ``triangles[name]`` =
    ``np.triu_indices(rows)`` (None for a full variable).  ``bases[name]``
    stacks the variable's basis matrices B_p, one per parameter, so that
    V = sum_p theta_p B_p: E_rc for a full variable's (r, c), and for a
    symmetric one's (r, c) E_rc + E_cr off the diagonal and E_rr on it."""

    def __init__(self, variables):
        self.variables = list(variables)
        self.offsets = {}
        self.triangles = {}
        self.bases = {}
        total = 0
        for v in self.variables:
            self.offsets[v.name] = total
            if v.symmetric:
                rows, cols = pairs = np.triu_indices(v.rows)
                basis = np.zeros((rows.size, v.rows, v.cols))
                basis[np.arange(rows.size), rows, cols] = 1.0
                basis[np.arange(rows.size), cols, rows] = 1.0
            else:
                pairs = None
                basis = np.eye(v.n_scalars).reshape(v.n_scalars, v.rows, v.cols)
            self.triangles[v.name] = pairs
            self.bases[v.name] = basis
            total += v.n_scalars
        self.total = total

    def unpack(self, vec):
        out = {}
        for v in self.variables:
            off = self.offsets[v.name]
            theta = vec[off : off + v.n_scalars]
            pairs = self.triangles[v.name]
            if pairs is None:
                out[v.name] = theta.reshape(v.rows, v.cols)
            else:
                value = np.empty((v.rows, v.cols))
                value[pairs] = value[pairs[::-1]] = theta
                out[v.name] = value
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
    S_j = t I - M_j(v) = -(const_j + sum_q x[idx_jq] C_jq).

    The group keeps -C_jq, from which the slacks need no negation: x (-C)
    rounds as (-x) C, sign bits included.  ``coeffs`` gives C_jq back
    exactly.  Built from ``_materialise``'s members (M_j(0), parameter
    indices, -C_jq), each with the shift's entries last."""

    def __init__(self, members):
        self.const = np.stack([member[0] for member in members])  # (m, d, d) M_j(0)
        self.idx = np.stack([member[1] for member in members])    # (m, p)
        negated = members[0][2][None] if len(members) == 1 else np.stack(
            [member[2] for member in members])
        m, p, d = negated.shape[:3]
        self.negated = negated.reshape(m, p, d * d)  # (m, p, d^2) flattened -C_jq
        self.dim = d

    @property
    def coeffs(self):
        """C_jq, stacked (m, p, d^2)."""
        return -self.negated

    def slacks(self, x):
        """The slacks S_j at x = (v, t), stacked (m, d, d)."""
        s = np.matmul(x[self.idx][:, None, :], self.negated).reshape(self.const.shape)
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
    whose constant or coefficients are not finite.

    A constraint's coefficients accumulate in one (parameters, d, d) stack
    over the parameters of the variables it uses, in layout order: each
    term adds L B_p R (L B_p^T R when it transposes V) for every basis
    matrix B_p of its variable, in one batched product, at its block.  One
    pass then symmetrises and orients the stack and keeps its nonzero
    coefficients."""
    shift = layout.total
    data, runs = [], {}  # runs: (d, p) -> member lists, the last one open
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite data is named below
        for k, c in enumerate(problem.constraints):
            sign = 1.0 if c.sense == "neg" else -1.0
            d = c.expr.dim
            names = sorted({t.name for t in c.expr.terms}, key=layout.offsets.get)
            first, params = {}, []  # each variable's first row in the stack; its parameters
            for name in names:
                first[name] = len(params)
                params.extend(range(layout.offsets[name],
                                    layout.offsets[name] + len(layout.bases[name])))
            params = np.array(params, dtype=np.intp)
            acc = np.zeros((params.size, d, d))
            for t in c.expr.terms:
                basis = layout.bases[t.name]
                if t.transpose:
                    basis = basis.transpose(0, 2, 1)
                rows = slice(first[t.name], first[t.name] + len(basis))
                acc[rows, t.rows, t.cols] += t.left @ basis @ t.right
            base = sign * 0.5 * (c.expr.constant + c.expr.constant.T)
            # -C = -(sign / 2) (acc + acc^T) per parameter, then the shift's +I
            negated = np.empty((params.size + 1, d, d))
            np.add(acc, acc.transpose(0, 2, 1), out=negated[:-1])
            negated[:-1] *= -(sign * 0.5)
            # skip exact zeros only: a zero rate's term adds no parameter
            live = np.flatnonzero(negated[:-1].reshape(params.size, d * d).any(axis=1))
            if not (np.isfinite(base).all() and np.isfinite(negated[:-1]).all()):
                raise ValueError(f"constraint {k} has a non-finite constant or coefficient")
            if live.size < params.size:
                negated[: live.size] = negated[live]
                negated = negated[: live.size + 1]
            negated[-1] = np.eye(d)
            idx = np.append(params[live], shift)
            data.append((base, idx, negated))
            members = runs.setdefault((d, idx.size), [[]])
            if members[-1] and (len(members[-1]) + 1) * idx.size * d * d > _GROUP_ENTRIES:
                members.append([])
            members[-1].append(k)
    groups = [_Group([data[k] for k in m]) for run in runs.values() for m in run]
    return _Oriented(groups, layout.total)


def _slacks(oriented: _Oriented, x):
    """Per group, upper Cholesky factors R_j with R_j^T R_j = S_j at x = (v, t),
    stacked (m, d, d); None when some slack is not positive definite."""
    dpotrf = scipy.linalg.lapack.dpotrf
    factors = []
    for grp in oriented.groups:
        s = grp.slacks(x)
        for member in s:
            # the transposed view is Fortran-ordered, so dpotrf works in place
            # and its lower factor L reads as R = L^T in the C-ordered stack
            if dpotrf(member.T, lower=1, clean=1, overwrite_a=1)[1] != 0:
                return None
        factors.append(s)
    return factors


def _barrier_value(factors, t, mu):
    diagonals = [r.reshape(len(r), -1)[:, :: r.shape[-1] + 1] for r in factors]
    return t - 2.0 * mu * float(np.log(np.concatenate(diagonals, axis=None)).sum())


def _newton_sums(oriented: _Oriented, factors):
    """The weight-free sums of the Newton system at the slack factors: with
    G_q = R^-T C_q R^-1 over the members, sum tr(G_q) per coordinate of
    x = (v, t) and sum <G_q, G_r> per pair, as the (size,) and (size, size)
    arrays that ``_weighted`` scales by the barrier weight."""
    dtrtri = scipy.linalg.lapack.dtrtri
    traces, grams = [], []
    for grp, r in zip(oriented.groups, factors):
        m, p, d = len(r), grp.idx.shape[1], grp.dim
        r_inv = r.copy()
        for member in r_inv:
            # in place as in _slacks: L^-1 in Fortran order reads as R^-1
            dtrtri(member.T, lower=1, overwrite_c=1)
        # -W_q = -C_q R^-1, then -G_q = -W_q^T R^-1 = -R^-T C_q R^-1 as C_q is
        # symmetric: the traces change sign and the Gram products do not, to
        # the bit but for the signs of zeros, which bincount's sums from +0 drop
        w = np.matmul(grp.negated.reshape(m, p * d, d), r_inv).reshape(m, p, d, d)
        w = np.ascontiguousarray(w.transpose(0, 1, 3, 2)).reshape(m, p * d, d)
        g = np.matmul(w, r_inv).reshape(m, p, d * d)
        traces.append(-g[:, :, :: d + 1].sum(axis=2).reshape(-1))
        grams.append(np.matmul(g, g.transpose(0, 2, 1)).reshape(-1))
    size = oriented.size
    return (np.bincount(oriented.grad_idx, np.concatenate(traces), minlength=size),
            np.bincount(oriented.hess_idx, np.concatenate(grams),
                        minlength=size * size).reshape(size, size))


def _weighted(sums, mu):
    """Gradient and Hessian of t - mu sum_j logdet S_j from the Newton sums:
    mu tr(G_q) (plus 1 on t) and mu <G_q, G_r>."""
    traces, grams = sums
    grad = mu * traces
    grad[-1] += 1.0
    return grad, mu * grams


def _stacked_margin(oriented: _Oriented, x):
    """min_k -lambda_max(M_k(v)) at x = (v, t), from the stacked slacks at
    t = 0 with one batched eigensolve per group."""
    x0 = np.append(x[:-1], 0.0)
    return min(float(np.linalg.eigvalsh(grp.slacks(x0))[:, 0].min()) for grp in oriented.groups)


def _verified_margins(problem: LmiProblem, assignment: dict):
    """Per-constraint strictness slack, recomputed from the expressions with
    the eigensolver: every constraint is evaluated from its terms, and the
    values of one dimension are eigensolved together in one batched call."""
    values = [c.expr.evaluate(assignment) for c in problem.constraints]
    by_dim = {}
    for k, m in enumerate(values):
        by_dim.setdefault(len(m), []).append(k)
    slacks = [0.0] * len(values)
    for ks in by_dim.values():
        for k, eigs in zip(ks, np.linalg.eigvalsh(np.stack([values[k] for k in ks]))):
            neg = problem.constraints[k].sense == "neg"
            slacks[k] = -float(eigs[-1]) if neg else float(eigs[0])
    return tuple(slacks)


def _newton_solve(hess, rhs):
    """hess^-1 rhs for a Newton system ``hess`` (changed in place) and
    right-hand sides stacked by column, (size, k).

    A regulariser 1e-12 (1 + tr(hess) / size) joins the diagonal, and dposv
    solves the equilibrated system D^-1/2 hess D^-1/2, D = diag(hess), whose
    unit diagonal bounds every entry (module docstring).  Raises
    ``ValueError`` when the system overflows: finite data whose Gram
    products leave the double range.
    """
    # the diagonal bounds every Gram entry (Cauchy-Schwarz), so a finite
    # trace means a finite system
    trace = float(np.trace(hess))
    if not math.isfinite(trace):
        raise ValueError("the Newton system is not finite: the constraint data "
                         "overflow double precision in its Gram products")
    hess.flat[:: len(hess) + 1] += 1e-12 * (1.0 + trace / len(hess))
    scale = 1.0 / np.sqrt(np.diagonal(hess))
    hess *= scale[:, None]
    hess *= scale
    rhs = rhs * scale[:, None]
    # hess is SPD: Gram matrices plus reg I
    out, info = scipy.linalg.lapack.dposv(hess, rhs, lower=1)[1:]
    if info != 0:
        out = np.linalg.lstsq(hess, rhs, rcond=None)[0]
    return out * scale[:, None]


@np.errstate(over="ignore", invalid="ignore")  # _newton_solve names a non-finite system
def _starting_weight(oriented, held):
    """The barrier weight mu0 that puts the starting point x nearest the
    central path, from the slack factors ``held`` holds there.  Leaves in
    ``held`` the weight-free Newton sums at x and the first round's
    (gradient, Newton step) of t - mu0 sum_k logdet S_k at x.

    With g and H the gradient and Hessian of -sum_k logdet S_k at x, the
    centring residual e_t + mu g is least in the H^-1 norm at
    mu0 = -(e_t' H^-1 g) / (g' H^-1 g) (Boyd & Vandenberghe, Convex
    Optimization, 11.3.1).  One two-column solve gives H^-1 e_t and H^-1 g,
    so mu0 and the first step -(mu0 H)^-1 (e_t + mu0 g) =
    -(H^-1 e_t / mu0 + H^-1 g) cost one Newton system.  A weight outside
    (0, 1] is replaced by 1, so the schedule never starts above a unit
    weight: above 1 it is rare and gained nothing (module docstring), and
    a weight <= 0 (e_t' H^-1 g >= 0) or NaN has no centre to aim at.
    """
    held.sums = _newton_sums(oriented, held.factors)
    grad, hess = _weighted(held.sums, 1.0)
    grad[-1] -= 1.0  # g: the barrier's own gradient
    unit = np.zeros_like(grad)
    unit[-1] = 1.0
    toward_t, toward_g = _newton_solve(hess, np.column_stack([unit, grad])).T
    mu = -toward_g[-1] / float(grad @ toward_g)  # toward_g[-1] = e_t' H^-1 g
    if not 0.0 < mu <= 1.0:
        mu = 1.0
    grad *= mu
    grad[-1] += 1.0
    held.newton = (grad, -(toward_t / mu + toward_g))
    return mu


class _Held:
    """What a barrier round starts from at its iterate x: the slack factors
    at x, the weight-free Newton sums at x (``_newton_sums``) when they have
    been formed there, and the round's first (gradient, Newton step) when it
    has been solved already.  ``solve_feasibility`` builds one from the
    factors of the starting point and one from those of the hand-off to the
    objective phase; ``_starting_weight`` adds the sums and the first step
    at the starting point.  A round leaves in it the factors of the iterate
    it returns and, when it solved a Newton system there without stepping
    on it (at its rounding floor, or when its line search failed), that
    system's sums, which the next round of its phase, at a lower weight,
    scales by its own."""

    __slots__ = ("factors", "sums", "newton")

    def __init__(self, factors):
        self.factors, self.sums, self.newton = factors, None, None


@np.errstate(over="ignore", invalid="ignore")  # _newton_solve names a non-finite system
def _centre(oriented, x, mu, objective, max_steps, held, stop=None):
    """Damped Newton steps on x[obj] - mu sum_k logdet(t I - M_k(v)), x = (v, t).

    With ``objective`` None, obj is t and every coordinate moves; otherwise t
    stays frozen and obj is the parameter index ``objective``.  The round
    starts from ``held``, a ``_Held`` at x, and leaves in it what it holds
    at the iterate it returns.  ``stop``, when given, is tested on every
    accepted iterate, and the steps end at the first one it accepts.  The
    steps also end at the rounding floor: after a full step (alpha = 1)
    from a normalised decrement decrement / mu below 1/16, where exact
    arithmetic shrinks the decrement at least fivefold (module docstring),
    a decrement at the new point that is not below half of the previous
    one ends the round there, before another step.  Returns (x, steps, note, stopped), with a note when no
    step could be taken and ``stopped`` when ``stop`` ended the steps.
    Raises ``ValueError`` when the Newton system overflows.
    """
    obj = -1 if objective is None else objective
    steps, note, stopped = 0, None, False
    # the slack factors at x with its barrier value f0, and the Newton sums at
    # x; the factors are carried over on acceptance, the sums are not
    factors, sums = held.factors, held.sums
    f0 = _barrier_value(factors, x[obj], mu)
    floor = None  # the decrement before a full step taken inside the quadratic region
    while steps < max_steps and x[-1] >= _T_FLOOR:
        if held.newton is not None:
            (grad, step), held.newton = held.newton, None
        else:
            if sums is None:
                sums = _newton_sums(oriented, factors)
            grad, hess = _weighted(sums, mu)
            if objective is not None:
                grad, hess = grad[:-1], hess[:-1, :-1]
                grad[objective] += 1.0
            step = _newton_solve(hess, -grad[:, None])[:, 0]
        decrement = float(-grad @ step)
        if floor is not None and decrement >= 0.5 * floor:
            break  # the rounding floor: a full step did not halve it
        steps += 1
        alpha = 1.0
        while alpha >= 1e-14:
            cand = x.copy()
            cand[: step.size] += alpha * step
            cand_factors = _slacks(oriented, cand)
            if cand_factors is not None:
                f1 = _barrier_value(cand_factors, cand[obj], mu)
                if f1 <= f0 - 1e-4 * alpha * decrement or f1 < f0:
                    x, factors, f0, sums = cand, cand_factors, f1, None
                    break
            alpha *= 0.5
        if alpha < 1e-14:
            note = "step-size collapse; problem may be ill-posed"
            break
        floor = decrement if alpha == 1.0 and decrement < mu / 16.0 else None
        if stop is not None and stop(x):
            stopped = True
            break
        if decrement <= _DECREMENT_TOL * (1.0 + abs(x[obj])):
            break
    held.factors, held.sums = factors, sums
    return x, steps, note, stopped


_T_FLOOR = -1e9  # a shift this far below zero means it is unbounded below
_DECREMENT_TOL = 1e-9  # centring ends at a Newton decrement this times 1 + |objective|
_PROGRESS_TOL = 1e-8  # a round stalls unless its margin grows more than this times 1 + |t|
_MU_FACTOR = 0.2
_ROUND_STEPS = 15  # Newton steps per barrier weight

# The strictness margin every certificate must reach and the Newton step
# budget of every solve.  solve_feasibility reads both when it is called.
EPS_STRICT = 1e-6
MAX_ITER = 400


def solve_feasibility(problem: LmiProblem, *, ready=None) -> LmiSolution:
    """Search a strictly feasible point of an LMI system.

    Minimises the uniform eigenvalue shift t with a barrier path-following
    scheme and reports ``feasible`` when the margin of the final iterate,
    re-verified from the constraint expressions, is at least ``EPS_STRICT``.
    The scheme starts at v = 0 with t one above every max eigenvalue of
    M_k(0), at the barrier weight mu0 that puts that point nearest the
    central path (module docstring), and divides the weight by 5 after each
    round of at most 15 Newton steps.  Each shift-phase round ends with the
    margin of the stacked slacks, which drives the stall test.  Without an
    objective, the solve ends at the first Newton iterate whose margin
    exceeds EPS_STRICT (every slack factors at t = -EPS_STRICT) and that
    ``ready``, when given, accepts: a predicate on the unpacked assignment
    (variable name to matrix), called only at certified iterates after
    accepted steps.  Any verified point is a complete certificate, so
    certification passes none; synthesis passes the condition its
    controller rebuild checks.  The verdict still rests on the re-verified
    final iterate, so a solve whose certified iterates ``ready`` never
    accepts runs on to its stall test and can still end feasible.
    ``ready`` has no effect with an objective: then the shift phase stops
    at the first round end whose margin exceeds EPS_STRICT and a phase at
    t = -EPS_STRICT minimises the objective in rounds of falling mu.  Once
    ``within`` accepts the last value against the lower bound value - mu *
    sum_k dim_k (exact on the central path), one more round tightens the
    bound and the earliest round-end iterate ``within`` accepts is returned.
    Two stalled shift-phase rounds in a row end a solve without a
    certificate: ``infeasible-at-tolerance``, or ``undecided`` when one of
    them ended on a note (no step could be taken).  ``MAX_ITER`` caps the
    Newton steps of both phases and is the solve's one budget; a solve it
    ends without a verdict is ``undecided``, with the note "the Newton step
    budget ran out" and the last iterate attached.  With an objective,
    ``feasible`` also needs ``within`` to accept the returned value; a
    verified point whose value it does not accept is ``undecided``, noted
    "objective gap bound ... not within tolerance".  Raises
    ``ValueError`` unless every constraint's constant and coefficients are
    finite (the message names the first constraint that is not), and when
    a slack does not factor at the starting point: a constant whose
    largest eigenvalue is about 2^53 or more, where one more rounds back
    onto it.
    """
    eps_strict, max_iter = EPS_STRICT, MAX_ITER
    problem.validate()
    if not problem.constraints:
        raise ValueError("problem has no constraints")
    layout = _Layout(problem.variables)
    oriented = _materialise(problem, layout)

    x = np.zeros(layout.total + 1)  # parameters, then the shift t
    x[-1] = max(float(np.linalg.eigvalsh(grp.const)[:, -1].max()) for grp in oriented.groups) + 1.0

    factors = _slacks(oriented, x)
    if factors is None:
        raise ValueError(f"the starting point is not interior: at t = {x[-1]:.3e}, one above "
                         "every constant's largest eigenvalue, a slack does not factor")
    held = _Held(factors)  # what each round leaves the next at its iterate
    mu = _starting_weight(oriented, held)
    iterations = 0
    notes = []
    stall_rounds = 0
    noted = False  # a round of the current stall run ended on a _centre note
    margin_prev = -np.inf
    handed = None  # the slack factors at t = -eps_strict where the objective phase starts

    def certified(x):
        """The slack factors at t = -eps_strict, None unless every slack
        factors there (the stacked margin exceeds eps_strict)."""
        return _slacks(oriented, np.append(x[:-1], -eps_strict))

    def stop(x):
        """Certified, and accepted by ``ready`` when one is given."""
        return certified(x) is not None and (ready is None or ready(layout.unpack(x[:-1])))

    if problem.objective is not None:
        stop = None  # the hand-off to the objective phase waits for a round end

    while iterations < max_iter:
        x, steps, note, stopped = _centre(
            oriented, x, mu, None, min(_ROUND_STEPS, max_iter - iterations), held, stop
        )
        iterations += steps
        if note:
            notes.append(note)
        if stopped:
            break
        t = x[-1]
        margin_now = _stacked_margin(oriented, x)
        if problem.objective is not None and margin_now > eps_strict:
            handed = certified(x)
            if handed is not None:
                break
        if t < _T_FLOOR:
            notes.append("shift unbounded below; any interior point certifies feasibility")
            break
        # a round that could not step or did not raise the margin stalls;
        # two in a row end the solve, undecided if one could not step
        if note or margin_now - margin_prev <= _PROGRESS_TOL * (1.0 + abs(t)):
            stall_rounds += 1
            noted = noted or note is not None
            if stall_rounds >= 2:
                break
        else:
            stall_rounds, noted = 0, False
        margin_prev = margin_now
        mu *= _MU_FACTOR

    gap = None if problem.objective is None else np.inf
    accepted = problem.objective is None  # within accepts the returned objective value
    shift_iterations = iterations
    if handed is not None:
        name, within = problem.objective
        obj = layout.offsets[name]
        dim_total = sum(grp.const.shape[0] * grp.dim for grp in oriented.groups)
        x[-1] = -eps_strict
        rounds, sharpened = [x], False
        held = _Held(handed)  # the factors at the new shift
        while iterations < max_iter:
            x, steps, note, _ = _centre(
                oriented, x, mu, obj, min(_ROUND_STEPS, max_iter - iterations), held
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
        accepted = within(x[obj], lower)
        if not accepted:
            notes.append(f"objective gap bound {gap:.3e} not within tolerance")

    assignment = layout.unpack(x[:-1])
    constraint_margins = _verified_margins(problem, assignment)
    margin = min(constraint_margins)
    if margin >= eps_strict and accepted:
        status = "feasible"
    elif stall_rounds >= 2 and not noted:
        status = "infeasible-at-tolerance"
    else:
        status = "undecided"
        if iterations >= max_iter:
            notes.append("the Newton step budget ran out")
        elif not notes:  # a certified iterate whose re-verified margin fell short
            notes.append(f"verified margin {margin:.3e} below EPS_STRICT")
    return LmiSolution(
        assignment=assignment,
        margin=margin,
        iterations=iterations,
        status=status,
        t_achieved=float(x[-1]),
        constraint_margins=constraint_margins,
        notes=tuple(notes),
        gap=gap,
        objective_iterations=iterations - shift_iterations,
    )
