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

with the standard completion term M_i (see ``_reconstruct_mode``).  The
resulting controller has the plant's state dimension, carries no noise
channels yet, and generally needs the realizability augmentation before it
corresponds to a quantum device.
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
    "build_hinf_lmis",
    "synthesize",
    "min_attenuation",
]

COND_LIMIT = 1e10  # inversion guard for the reconstruction step


class SynthesisError(RuntimeError):
    """No controller was produced; ``solution`` is the LMI solution when the
    solve itself ended without a feasible verdict, else None."""

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


class LmiInfeasibleError(SynthesisError):
    """The synthesis LMIs have no strictly feasible point at this level."""

    def __init__(self, g, solution):
        super().__init__(
            f"synthesis LMIs not strictly feasible at g={g} "
            f"(status {solution.status}, margin {solution.margin:.3e})",
            solution,
        )
        self.g = g


def _require_feasible(g, solution):
    """Raise ``LmiInfeasibleError`` when the solver settled infeasible at level g
    and ``SynthesisError`` when its Newton step budget ran out undecided."""
    if solution.status == "infeasible-at-tolerance":
        raise LmiInfeasibleError(g, solution)
    if not solution.feasible:
        raise SynthesisError(
            f"no verdict at g={g}: the Newton step budget ran out after "
            f"{solution.iterations} steps (status {solution.status}, "
            f"margin {solution.margin:.3e})",
            solution,
        )


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
        if abs(pi[i, i]) > 1e-15:
            expr.add_term(y_names[i], pi[i, i] * eye_n, eye_n)
        expr.add_term(y_names[i], c1, eye_n, block=(1, 0))
        expr.add_term(f_names[i], d1, eye_n, block=(1, 0))
        for k, j in enumerate(others):
            if pi[i, j] > 1e-15:
                expr.add_term(y_names[i], np.sqrt(pi[i, j]) * eye_n, eye_n, block=(0, 3 + k))
            expr.add_term(y_names[j], -eye_n, eye_n, block=(3 + k, 3 + k))
        problem.add_constraint(expr, "neg")

    return problem


def _inv_sym_guarded(m, label):
    w, q = np.linalg.eigh(0.5 * (m + m.T))
    small = np.min(np.abs(w))
    if small == 0.0 or np.max(np.abs(w)) / small > COND_LIMIT:
        raise SynthesisError(
            f"{label} is singular or badly conditioned "
            f"(eigenvalues {w}); the LMI solution violates the coupling condition"
        )
    return q @ np.diag(1.0 / w) @ q.T


def _reconstruct_mode(a, b1, b2, c1, d1, c2, d2, pi_row, y, y_invs, g, x, l, f, i):
    """Controller matrices of mode i from one feasible LMI block.

    M_i = -A^T - X A Y - X B2 F - L C2 Y - C1^T (C1 Y + D1 F)
          - g^{-2} (X B1 + L D2) B1^T - sum_j pi_ij Y_j^{-1} Y
    """
    y_inv = y_invs[i]
    w = y_inv - x  # negative definite when the coupling LMI holds strictly
    w_inv = _inv_sym_guarded(w, f"(Y_{i + 1}^-1 - X_{i + 1})")
    ck = f @ y_inv
    bk = w_inv @ l
    m = (
        -a.T
        - x @ a @ y
        - x @ b2 @ f
        - l @ c2 @ y
        - c1.T @ (c1 @ y + d1 @ f)
        - (x @ b1 + l @ d2) @ b1.T / (g * g)
    )
    for j, rate in enumerate(pi_row):
        if abs(rate) > 1e-15:
            m = m - rate * y_invs[j] @ y
    ak = w_inv @ m @ y_inv
    cond_w = float(np.linalg.cond(w))
    return ak, bk, ck, cond_w


@dataclass(frozen=True)
class SynthModeData:
    x: np.ndarray
    y: np.ndarray
    l: np.ndarray
    f: np.ndarray
    cond_coupling: float


@dataclass(frozen=True)
class SynthesisResult:
    """Feasible attenuation level, LMI blocks, and the derived controller."""

    g: float
    modes: tuple
    controller: Controller
    solution: lmi.LmiSolution


def _result(plant: JumpPlant, g: float, solution) -> SynthesisResult:
    """Reconstruct the controller of a feasible LMI solution at level g."""
    blocks = [[solution.assignment[f"{v}{i + 1}"] for v in "XYLF"] for i in range(plant.n_modes)]
    y_invs = [_inv_sym_guarded(y, f"Y_{i + 1}") for i, (_, y, _, _) in enumerate(blocks)]
    modes, diag = [], []
    for i, (x, y, l, f) in enumerate(blocks):
        ak, bk, ck, cond_w = _reconstruct_mode(
            plant.a_modes[i], plant.b1, plant.b2, plant.c1, plant.d1,
            plant.c2, plant.d2, plant.rates.pi[i], y, y_invs, g, x, l, f, i,
        )
        modes.append(ControllerMode(ak, bk, ck, np.zeros((plant.n_u, 0)), np.zeros((plant.n, 0))))
        diag.append(SynthModeData(x, y, l, f, cond_w))
    controller = Controller(tuple(modes), make_commutation_matrix(plant.n))
    return SynthesisResult(float(g), tuple(diag), controller, solution)


def synthesize(
    plant: JumpPlant,
    g: float,
    eps_strict: float = 1e-6,
    tol: float = 1e-9,
    max_iter: int = 400,
) -> SynthesisResult:
    """Build and solve the LMIs at level g, then reconstruct the controller.

    Raises ``LmiInfeasibleError`` when the solver settles without a strictly
    feasible point and ``SynthesisError`` when max_iter Newton steps end
    before a verdict.  The returned controller carries no noise channels;
    augment it with the realizability layer before treating it as a quantum
    device.
    """
    solution = lmi.solve_feasibility(
        build_hinf_lmis(plant, g), eps_strict=eps_strict, tol=tol, max_iter=max_iter
    )
    _require_feasible(g, solution)
    return _result(plant, g, solution)


def min_attenuation(
    plant: JumpPlant,
    g_lo: float,
    g_hi: float,
    tol_g: float = 1e-3,
    eps_strict: float = 1e-6,
    tol: float = 1e-9,
    max_iter: int = 400,
):
    """Smallest feasible attenuation level in [g_lo, g_hi] from one LMI solve.

    gamma = g^2 is an LMI variable with g_lo^2 < gamma < g_hi^2, minimised
    until the lower bound gamma - result.solution.gap puts sqrt(gamma) within
    h = tol_g/2 of the least level certifiable at eps_strict.  Returns
    (g_star, result) with g_star = min(sqrt(gamma) + h, g_hi), within tol_g
    of that level; the LMI solution holds at g_star too, and the controller
    reconstructed there leaves its closed-loop certificate h of room.  The
    gap bound is exact only at centred barrier iterates, so where the solver
    cannot centre, g_star can lie further above the least level.  When the
    solution is too ill-conditioned to rebuild a controller from, the
    controller comes from a fixed-level solve at g_star instead.
    ``eps_strict``, ``tol`` and ``max_iter`` are passed to the solver.

    Raises ``LmiInfeasibleError`` when nothing below g_hi is feasible and
    ``SynthesisError`` when max_iter Newton steps end before a feasible
    level, or before the level is within tolerance.
    """
    if not (0 < g_lo < g_hi < np.inf):
        raise ValueError(f"need 0 < g_lo < g_hi < inf, got g_lo={g_lo}, g_hi={g_hi}")
    analysis._check_level(g_hi, "g_hi")
    if not (np.isfinite(tol_g) and tol_g > 0):
        raise ValueError(f"tol_g must be finite and positive, got {tol_g}")
    problem = build_hinf_lmis(plant, None)
    for bound, sense in ((g_lo, "pos"), (g_hi, "neg")):
        expr = lmi.AffineMatrixExpr(1, [[-bound * bound]])
        expr.add_term(GAMMA)
        problem.add_constraint(expr, sense)
    half = 0.5 * tol_g

    def within(gamma, lower):
        return np.sqrt(gamma) - np.sqrt(max(lower, g_lo * g_lo)) <= half

    problem.minimize(GAMMA, within)
    solution = lmi.solve_feasibility(problem, eps_strict=eps_strict, tol=tol, max_iter=max_iter)
    _require_feasible(g_hi, solution)
    gamma = float(solution.assignment[GAMMA][0, 0])
    if not within(gamma, gamma - solution.gap):
        raise SynthesisError(
            f"level g={np.sqrt(gamma):.6g} not within tol_g={tol_g} of the least level "
            f"after {solution.iterations} Newton steps (gap bound {solution.gap:.3e} on g^2)"
        )
    g_star = min(float(np.sqrt(gamma)) + half, g_hi)
    try:
        return g_star, _result(plant, g_star, solution)
    except SynthesisError:
        return g_star, synthesize(plant, g_star, eps_strict=eps_strict, tol=tol,
                                  max_iter=max_iter)
