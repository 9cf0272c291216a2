"""H-infinity controller synthesis for jump plants via coupled LMIs.

``build_hinf_lmis(plant, g)`` poses, for each fault mode i,

* an observer-side block inequality in (X_i, L_i): the coupled bounded-real
  block of ``analysis.bounded_real_block`` in X, with the coupling sum over
  all modes, plus the injection terms of L_i,
* the cross-coupling condition [[Y_i, I], [I, X_i]] > 0, and
* a state-feedback-side block inequality in (Y_i, F_i) whose rate coupling
  enters through a Schur-complement row/column of scaled Y blocks and whose
  term B1 B1^T / g^2 is one more row/column [[., B1], [B1^T, -g^2 I]], so
  every inequality is linear in gamma = g^2; with g None, gamma is a
  variable, which ``min_attenuation`` minimises.

A feasible solution is converted into per-mode controller matrices

    C_i = F_i Y_i^{-1}
    B_i = (Y_i^{-1} - X_i)^{-1} L_i
    A_i = (Y_i^{-1} - X_i)^{-1} M_i Y_i^{-1}

where M_i is read off the storage certificate below.  The resulting
controller has the plant's state dimension, carries no noise channels yet,
and generally needs the realizability augmentation before it corresponds
to a quantum device.

``certify_design(plant, result, controller, g)`` certifies a design from
the storage its synthesis solve already holds (Scherer, Gahinet & Chilali,
IEEE TAC 42(7), 1997; de Souza & Fragoso, IEEE TAC 38(7), 1993).  With
W_i = Y_i^{-1} - X_i take, for mode i,

    P_i = [[X_i, W_i], [W_i, -W_i]],   Pi_i = [[Y_i, I], [Y_i, 0]].

Then P_i Pi_i = [[I, X_i], [0, W_i]], so Pi_i^T P_i Pi_i = [[Y_i, I],
[I, X_i]], the cross-coupling block: it is positive definite, hence so are
Y_i, Pi_i (invertible) and P_i.  Congruence by diag(Pi_i, I) therefore
turns the closed-loop bounded-real inequality of ``analysis`` at the
storage P_i into an equivalent one.  For a controller (A_K, B_K, C_K) of
state dimension n set F~ = C_K Y_i, L~ = W_i B_K and M~ = W_i A_K Y_i; with
the closed-loop blocks of ``qmodel.assemble_closed_loop``,

    Pi_i^T P_i A_cl Pi_i = [[A Y + B2 F~,                      A        ],
                            [X A Y + L~ C2 Y + X B2 F~ + M~,   X A + L~ C2]]
    Pi_i^T P_j Pi_i      = [[Y_i Y_j^{-1} Y_i, Y_i Y_j^{-1}], [Y_j^{-1} Y_i, X_j]]
    C_cl Pi_i            = [C1 Y + D1 F~, C1]
    Pi_i^T P_i B_cl      = [B1; X B1 + L~ D2]

(X, Y = X_i, Y_i; the second line holds for j = i too).  These hold for any
such controller, so the verdict certifies the controller given, not the one
the solve would rebuild.  The controller's noise channels enter only B2~,
which the bounded-real block does not read, so an augmented controller
gets its raw controller's verdict.

The controller rebuilt at level g takes F~ = F_i and L~ = L_i, and M_i is
the M~ that zeroes the off-diagonal block of the Schur complement of the
-g^2 I corner.  M~ enters that block only as itself, so M_i = -h_21 -
g^{-2} (X B1 + L D2) B1^T, with h_21 the (2, 1) block of the congruenced
state block at M~ = 0.  The two diagonal blocks of that Schur complement
are the Schur complements of the state-feedback and the observer synthesis
LMIs at level g.  So every feasible point of the synthesis LMIs at g gives
a controller whose closed loop P_i certifies at g, and a point that holds
them at a lower level leaves that certificate the difference as room.

The verdict is rounding-aware only through its threshold: every margin,
-lambda_max of each congruenced bounded-real block and lambda_min of each
cross-coupling block, evaluated in double precision from the closed forms
above (never as T^T BRL(P) T, whose entries can be far larger than the
block), must be at least ``lmi.EPS_STRICT``, the margin every LMI solve
demands of its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, lmi
from .qmodel import (
    Controller,
    ControllerMode,
    JumpPlant,
    make_commutation_matrix,
)

__all__ = [
    "SynthesisError",
    "LmiInfeasibleError",
    "SynthesisResult",
    "DesignCertificate",
    "build_hinf_lmis",
    "synthesize",
    "min_attenuation",
    "certify_design",
]

COND_LIMIT = 1e10  # inversion guard for the reconstruction step


class SynthesisError(RuntimeError):
    """No controller was produced; ``solution`` is the LMI solution when the
    solve itself ended without a controller (an ``infeasible-at-tolerance``
    or ``undecided`` solve), else None."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class LmiInfeasibleError(SynthesisError):
    """The synthesis LMIs have no strictly feasible point at this level."""

    def __init__(self, g, solution):
        super().__init__(
            f"synthesis LMIs not strictly feasible at g={g} ({solution.summary()})",
            solution,
        )
        self.g = g


def _require_feasible(g, solution, searched=None):
    """Map the solve's outcome to an exception: ``LmiInfeasibleError`` at
    level g for ``infeasible-at-tolerance`` and ``SynthesisError`` naming
    the solve's notes for ``undecided``.  That message names what the solve
    searched: ``searched`` when given (a level search's bracket), else the
    level g."""
    if solution.status == "infeasible-at-tolerance":
        raise LmiInfeasibleError(g, solution)
    if solution.status == "undecided":
        raise SynthesisError(f"no verdict {searched or f'at g={g}'}: "
                             f"{'; '.join(dict.fromkeys(solution.notes))} "
                             f"({solution.summary()})", solution)


def _names(prefix, n_modes):
    return [f"{prefix}{i + 1}" for i in range(n_modes)]


GAMMA = "gamma"  # name of the squared-level variable of a level search


def build_hinf_lmis(plant: JumpPlant, g) -> lmi.LmiProblem:
    """Synthesis LMIs of the plant at level g; with g None, gamma = g^2 is
    the variable GAMMA.  Mode i has the variables X{i+1}, Y{i+1}, L{i+1}, F{i+1}."""
    if g is not None:
        analysis._check_level(g)
    b1, b2, c1, d1, c2, d2 = plant.b1, plant.b2, plant.c1, plant.d1, plant.c2, plant.d2
    pi = plant.rates.pi
    n_modes, n = plant.n_modes, plant.n
    n_w, n_u, n_z, n_y = plant.n_w, plant.n_u, plant.n_z, plant.n_y

    problem = lmi.LmiProblem()
    x_names, y_names = _names("X", n_modes), _names("Y", n_modes)
    l_names, f_names = _names("L", n_modes), _names("F", n_modes)
    for i in range(n_modes):
        problem.add_variable(x_names[i], n, symmetric=True)
        problem.add_variable(y_names[i], n, symmetric=True)
        problem.add_variable(l_names[i], n, n_y)
        problem.add_variable(f_names[i], n_u, n)
    if g is None:
        problem.add_variable(GAMMA, 1, symmetric=True)

    def minus_level(expr, r):
        # the -g^2 I block on the disturbance channels, constant or linear in gamma
        if g is not None:
            expr.add_constant(-(g * g) * np.eye(n_w), block=(r, r))
            return
        for e in np.eye(n_w):
            expr.add_term(GAMMA, -e[:, None], e[None, :], block=(r, r))

    eye_n = np.eye(n)
    for i, a in enumerate(plant.a_modes):
        # observer side: the coupled bounded-real block in X plus the injection L_i
        expr = analysis.bounded_real_block(a, b1, c1, pi[i], x_names, i)
        minus_level(expr, 1)
        expr.add_term(l_names[i], eye_n, c2)
        expr.add_term(l_names[i], c2.T, eye_n, transpose=True)
        expr.add_term(l_names[i], eye_n, d2, block=(0, 1))
        problem.add_constraint(expr, "neg")

        # cross-coupling positivity [[Y_i, I], [I, X_i]] > 0
        expr = lmi.AffineMatrixExpr([n, n])
        expr.add_constant(eye_n, block=(0, 1))
        expr.add_term(y_names[i], eye_n, eye_n)
        expr.add_term(x_names[i], eye_n, eye_n, block=(1, 1))
        problem.add_constraint(expr, "pos")

        # state-feedback-side inequality in (Y_i, F_i) with rate coupling
        others = [j for j in range(n_modes) if j != i]
        expr = lmi.AffineMatrixExpr([n, n_z, n_w] + [n] * len(others))
        expr.add_constant(b1, block=(0, 2))
        minus_level(expr, 2)
        expr.add_constant(-np.eye(n_z), block=(1, 1))
        expr.add_term(y_names[i], a, eye_n)
        expr.add_term(y_names[i], eye_n, a.T)
        expr.add_term(f_names[i], b2, eye_n)
        expr.add_term(f_names[i], eye_n, b2.T, transpose=True)
        expr.add_term(y_names[i], pi[i, i] * eye_n, eye_n)
        expr.add_term(y_names[i], c1, eye_n, block=(1, 0))
        expr.add_term(f_names[i], d1, eye_n, block=(1, 0))
        for k, j in enumerate(others):
            expr.add_term(y_names[i], np.sqrt(pi[i, j]) * eye_n, eye_n, block=(0, 3 + k))
            expr.add_term(y_names[j], -eye_n, eye_n, block=(3 + k, 3 + k))
        problem.add_constraint(expr, "neg")

    return problem


def _inv_sym_guarded(m, label):
    """Inverse of the symmetric part of m and its condition number
    max|lambda| / min|lambda|, from one eigendecomposition."""
    w, q = np.linalg.eigh(0.5 * (m + m.T))
    small = np.min(np.abs(w))
    cond = np.max(np.abs(w)) / small if small else np.inf
    if cond > COND_LIMIT:
        raise SynthesisError(
            f"{label} is singular or badly conditioned "
            f"(eigenvalues {w}); the LMI solution violates the coupling condition"
        )
    return q @ np.diag(1.0 / w) @ q.T, float(cond)


def _storage(plant: JumpPlant, assignment):
    """X_i, Y_i and Y_i^{-1} of every mode: the storage P_i of the module
    docstring."""
    xs = [assignment[f"X{i + 1}"] for i in range(plant.n_modes)]
    ys = [assignment[f"Y{i + 1}"] for i in range(plant.n_modes)]
    return xs, ys, [_inv_sym_guarded(y, f"Y_{i + 1}")[0] for i, y in enumerate(ys)]


def _coupling_inverses(plant: JumpPlant, assignment):
    """The storage of an assignment and, per mode, the inverse of
    Y_i^{-1} - X_i (negative definite when the coupling LMI holds strictly)
    with its condition number: every inversion the controller rebuild
    takes.  Raises ``SynthesisError`` when one of them is singular or badly
    conditioned (``COND_LIMIT``)."""
    storage = _storage(plant, assignment)
    xs, _, y_invs = storage
    return storage, [_inv_sym_guarded(y_inv - x, f"(Y_{i + 1}^-1 - X_{i + 1})")
                     for i, (x, y_inv) in enumerate(zip(xs, y_invs))]


def _congruenced_blocks(plant: JumpPlant, storage, i, f, l, m):
    """Mode i's closed-loop bounded-real block at the storage P_i,
    congruenced by diag(Pi_i, I), for F~ = f, L~ = l and M~ = m (module
    docstring): the state block h with its rate terms, the disturbance
    column [B1; X B1 + L~ D2] and the coupling block [[Y, I], [I, X]]."""
    xs, ys, y_invs = storage
    x, y, a = xs[i], ys[i], plant.a_modes[i]
    b1, b2, c1, d1, c2, d2 = plant.b1, plant.b2, plant.c1, plant.d1, plant.c2, plant.d2
    n = plant.n
    top, low = slice(None, n), slice(n, None)  # the 2 x 2 block rows and columns
    xa = x @ a
    c_pi = np.hstack([c1 @ y + d1 @ f, c1])  # C_cl Pi_i
    s = np.empty((2 * n, 2 * n))
    s[top, top], s[top, low] = a @ y + b2 @ f, a
    s[low, top], s[low, low] = xa @ y + l @ c2 @ y + x @ b2 @ f + m, xa + l @ c2
    cross = np.empty((2 * n, 2 * n))  # Pi_i^T P_i Pi_i
    cross[top, top], cross[low, low] = y, x
    cross[top, low] = cross[low, top] = np.eye(n)
    h = s + s.T + c_pi.T @ c_pi
    for j, rate in enumerate(plant.rates.pi[i]):
        if j == i:
            h += rate * cross
        elif rate != 0.0:  # skip exact zeros only, as the LMI engine does
            yjy = y_invs[j] @ y
            h[top, top] += rate * (y @ yjy)
            h[top, low] += rate * yjy.T
            h[low, top] += rate * yjy
            h[low, low] += rate * xs[j]
    return h, np.vstack([b1, x @ b1 + l @ d2]), cross


@dataclass(frozen=True)
class SynthesisResult:
    """Controller reconstructed from a feasible synthesis LMI solve at level g.

    ``solution`` is that solve: its assignment holds X_i, Y_i, L_i and F_i
    (as ``"X<i>"`` and so on).  ``coupling_condition_numbers`` are the
    condition numbers of Y_i^{-1} - X_i, one per mode, which the
    reconstruction inverts.
    """

    g: float
    controller: Controller
    solution: lmi.LmiSolution
    coupling_condition_numbers: tuple


def _result(plant: JumpPlant, g: float, solution) -> SynthesisResult:
    """Reconstruct the controller of a feasible LMI solution at level g:
    mode i keeps F~ = F_i and L~ = L_i, and its M~ is the M_i that zeroes
    the off-diagonal block of the Schur complement (module docstring)."""
    storage, inverses = _coupling_inverses(plant, solution.assignment)
    n, modes = plant.n, []
    for i, (y_inv, (w_inv, _)) in enumerate(zip(storage[2], inverses)):
        l, f = solution.assignment[f"L{i + 1}"], solution.assignment[f"F{i + 1}"]
        h, g_col, _ = _congruenced_blocks(plant, storage, i, f, l, 0.0)
        m = -h[n:, :n] - g_col[n:] @ g_col[:n].T / (g * g)
        modes.append(ControllerMode(w_inv @ m @ y_inv, w_inv @ l, f @ y_inv,
                                    np.zeros((plant.n_u, 0)), np.zeros((n, 0))))
    controller = Controller(tuple(modes), make_commutation_matrix(n))
    return SynthesisResult(float(g), controller, solution,
                           tuple(cond for _, cond in inverses))


def _rebuildable(plant: JumpPlant, assignment) -> bool:
    """Whether every inversion of ``_coupling_inverses`` succeeds at the
    assignment: the ``ready`` test of a fixed-level solve."""
    try:
        _coupling_inverses(plant, assignment)
    except SynthesisError:
        return False
    return True


def synthesize(plant: JumpPlant, g: float) -> SynthesisResult:
    """Build and solve the LMIs at level g, then reconstruct the controller.

    The solve stops at its first certified iterate at which every Y_i and
    Y_i^{-1} - X_i inverts within ``COND_LIMIT`` (``_rebuildable``): any
    feasible point gives a controller that its own storage certifies at g
    (module docstring), and the rebuild needs exactly these inversions.
    Raises ``LmiInfeasibleError`` when the solve ends
    ``infeasible-at-tolerance`` and ``SynthesisError`` when it ends
    ``undecided`` (its notes say why: the ``lmi.MAX_ITER`` budget ran out,
    or its rounds could not step).  The returned controller carries no
    noise channels; augment it with the realizability layer before treating
    it as a quantum device.
    """
    solution = lmi.solve_feasibility(build_hinf_lmis(plant, g),
                                     ready=lambda assignment: _rebuildable(plant, assignment))
    _require_feasible(g, solution)
    return _result(plant, g, solution)


def min_attenuation(plant: JumpPlant, g_lo: float, g_hi: float, tol_g: float = 1e-3):
    """Smallest feasible attenuation level in [g_lo, g_hi] from one LMI solve.

    gamma = g^2 is an LMI variable with g_lo^2 < gamma < g_hi^2, minimised
    until the lower bound gamma - result.solution.gap puts sqrt(gamma) within
    h = tol_g/2 of the least level certifiable at ``lmi.EPS_STRICT``.  Returns
    (g_star, result) with g_star = min(sqrt(gamma) + h, g_hi), within tol_g
    of that level; the LMI solution holds at g_star too, and the controller
    reconstructed there leaves its closed-loop certificate h of room: by the
    module docstring's derivation the storage P_i certifies that controller
    at g_star whenever the synthesis LMIs hold at g_star, and the point
    holds them at sqrt(gamma) = g_star - h already.  The
    gap bound is exact only at centred barrier iterates, so where the solver
    cannot centre, g_star can lie further above the least level.  When the
    solution is too ill-conditioned to rebuild a controller from, the
    controller comes from a fixed-level solve at g_star instead.

    The engine judges the tolerance: the solve is ``feasible`` only when
    ``within`` accepts its level.  Raises ``LmiInfeasibleError`` when the
    solve ends ``infeasible-at-tolerance`` (nothing below g_hi is feasible)
    and ``SynthesisError`` when it ends ``undecided`` (its notes name the
    spent ``lmi.MAX_ITER`` budget or a level not within tolerance), or when
    neither the minimiser's point nor the fixed-level solve at g_star gives a
    controller: that case is undecided, never infeasible, since the
    minimiser's verified point shows g_star feasible.  Raises ``ValueError``
    on a bracket with g_hi^2 - g_lo^2 <= 2 ``lmi.EPS_STRICT``: its rows
    g_lo^2 < gamma < g_hi^2 cap every margin at (g_hi^2 - g_lo^2)/2, so no
    point of it could certify, whatever the plant.
    """
    if not (0 < g_lo < g_hi < np.inf):
        raise ValueError(f"need 0 < g_lo < g_hi < inf, got g_lo={g_lo}, g_hi={g_hi}")
    analysis._check_level(g_hi, "g_hi")
    if not (np.isfinite(tol_g) and tol_g > 0):
        raise ValueError(f"tol_g must be finite and positive, got {tol_g}")
    if g_hi * g_hi - g_lo * g_lo <= 2 * lmi.EPS_STRICT:
        raise ValueError(
            f"bracket [{g_lo}, {g_hi}] is too thin to certify any level: its rows cap "
            f"every margin at (g_hi^2 - g_lo^2)/2, so g_hi^2 - g_lo^2 must exceed "
            f"2 EPS_STRICT = {2 * lmi.EPS_STRICT:g} (g_hi above "
            f"{np.sqrt(g_lo * g_lo + 2 * lmi.EPS_STRICT):.9g})"
        )
    problem = build_hinf_lmis(plant, None)
    for bound, sense in ((g_lo, "pos"), (g_hi, "neg")):
        expr = lmi.AffineMatrixExpr(1, [[-bound * bound]])
        expr.add_term(GAMMA)
        problem.add_constraint(expr, sense)
    half = 0.5 * tol_g

    def within(gamma, lower):
        return np.sqrt(gamma) - np.sqrt(max(lower, g_lo * g_lo)) <= half

    problem.minimize(GAMMA, within)
    solution = lmi.solve_feasibility(problem)
    _require_feasible(g_hi, solution, f"in the bracket [{g_lo}, {g_hi}]")
    g_star = min(float(np.sqrt(solution.assignment[GAMMA][0, 0])) + half, g_hi)
    try:
        return g_star, _result(plant, g_star, solution)
    except SynthesisError as rebuild:
        try:
            return g_star, synthesize(plant, g_star)
        except SynthesisError as fallback:
            # the level search holds a verified point at g_star, so the
            # fixed-level solve cannot show the level infeasible
            raise SynthesisError(
                f"undecided at g={g_star:.6g}: the level search's point "
                f"({solution.summary()}) gives no controller ({rebuild}), and the "
                f"fixed-level solve at that level gave none either ({fallback})",
                fallback.solution,
            ) from fallback


@dataclass(frozen=True)
class DesignCertificate:
    """Closed-form certificate of a synthesized design at level g.

    ``storage_margins`` are -lambda_max of each mode's congruenced
    bounded-real block, ``coupling_margins`` lambda_min of each mode's
    [[Y_i, I], [I, X_i]]; ``certified`` is whether every margin, and so
    ``margin``, is at least ``lmi.EPS_STRICT``.
    """

    g: float
    storage_margins: tuple
    coupling_margins: tuple
    certified: bool

    @property
    def margin(self) -> float:
        """The least storage or coupling margin."""
        return min(self.storage_margins + self.coupling_margins)

    def summary(self) -> str:
        return (f"storage margin {min(self.storage_margins):.3e}, "
                f"coupling margin {min(self.coupling_margins):.3e}")


def certify_design(
    plant: JumpPlant, result: SynthesisResult, controller: Controller, g: float
) -> DesignCertificate:
    """Certify the loop of plant and controller at level g with the storage
    P_i that ``result``'s X_i and Y_i define (see the module docstring),
    by one eigensolve per block and no LMI solve.

    ``controller`` is raw or augmented, of the plant's state dimension.
    Raises ``ValueError`` on a level that is not positive with g^2 finite,
    or a controller whose shape does not fit the plant.
    """
    analysis._check_level(g)
    n = plant.n
    if controller.n_modes != plant.n_modes or controller.n_k != n:
        raise ValueError(
            f"the storage certificate needs a controller of {plant.n_modes} modes and "
            f"state dimension {n}, got {controller.n_modes} and {controller.n_k}"
        )
    storage = _storage(plant, result.solution.assignment)
    xs, ys, y_invs = storage
    corner = -(g * g) * np.eye(plant.n_w)
    storage_margins, coupling_margins = [], []
    for i, mode in enumerate(controller.modes):
        y, w = ys[i], y_invs[i] - xs[i]
        h, g_col, cross = _congruenced_blocks(plant, storage, i, mode.c @ y, w @ mode.b,
                                              w @ mode.a @ y)
        block = np.block([[h, g_col], [g_col.T, corner]])
        storage_margins.append(-float(lmi.symmetric_eigenvalues(block)[-1]))
        coupling_margins.append(float(lmi.symmetric_eigenvalues(cross)[0]))
    certified = min(storage_margins + coupling_margins) >= lmi.EPS_STRICT
    return DesignCertificate(float(g), tuple(storage_margins), tuple(coupling_margins), certified)
