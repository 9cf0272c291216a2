"""Bounded-real and H-infinity verification machinery.

For a single stable mode the classical equivalences hold between the strict
bounded-real matrix inequality, the existence of a stabilizing solution of
the game-type Riccati equation, and the H-infinity norm bound; jump systems
add a coupled family of per-mode inequalities tied together by the
transition rates.  This module provides:

* ``bounded_real_margin``: largest eigenvalue of the bounded-real matrix at
  a candidate storage matrix (negative means certificate),
* ``solve_riccati``: algebraic stabilizing solution via the stable
  invariant subspace of the Hamiltonian matrix,
* ``hinf_norm``: bisection on Riccati solvability, cross-checkable against
  ``frequency_sweep_norm`` (an independent oracle),
* ``bounded_real_block``: mode i of the coupled bounded-real LMI without its
  level corner, shared by the certificate search and the synthesis LMIs,
* ``coupled_mode_check``: LMI search for coupled per-mode certificates of
  a ``ClosedLoop``,
* ``mode_abscissas``: per-mode spectral abscissas of a closed loop,
* ``verify_closed_loop``: full closed-loop certification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import lmi
from .qmodel import ClosedLoop, Controller, JumpPlant, _maxabs, assemble_closed_loop
from .realizability import check_controller_realizability

__all__ = [
    "RiccatiSolution",
    "RiccatiNoSolutionError",
    "CoupledModeResult",
    "ClosedLoopReport",
    "bounded_real_margin",
    "solve_riccati",
    "hinf_norm",
    "frequency_sweep_norm",
    "bounded_real_block",
    "coupled_mode_check",
    "mode_abscissas",
    "verify_closed_loop",
]

AXIS_TOL = 1e-8  # imaginary-axis tolerance for Hamiltonian eigenvalues


class RiccatiNoSolutionError(RuntimeError):
    """No stabilizing solution exists at the requested attenuation level."""


@dataclass(frozen=True)
class RiccatiSolution:
    p: np.ndarray
    closed_loop_abscissa: float
    residual: float
    g: float

    @property
    def stabilizing(self) -> bool:
        return self.closed_loop_abscissa < 0.0


@dataclass(frozen=True)
class CoupledModeResult:
    """Coupled storage matrices P_i certifying a strict bounded-real property.

    ``p_modes`` and ``noise_offset`` are None when the LMI solve did not
    certify; the margin is ``solution.margin``.
    """

    solution: lmi.LmiSolution
    p_modes: tuple | None
    noise_offset: float | None  # trace-term constant of the dissipation bookkeeping

    @property
    def feasible(self) -> bool:
        return self.solution.feasible


def _sym(m):
    return 0.5 * (m + m.T)


def _middle_inverse(d, g):
    """Inverse of g^2 I - D^T D, rejecting g <= sigma_max(D)."""
    d = np.asarray(d, dtype=float)
    r_hat = g * g * np.eye(d.shape[1]) - d.T @ d
    eigs = np.linalg.eigvalsh(_sym(r_hat))
    if eigs[0] <= 0.0:
        raise ValueError(
            f"attenuation level g={g} does not exceed the feedthrough gain "
            f"sigma_max(D)={np.linalg.norm(d, 2):.6g}"
        )
    return np.linalg.inv(r_hat)


def bounded_real_margin(a, b, c, d, p, g) -> float:
    """Largest eigenvalue of the bounded-real matrix at storage matrix P.

    Evaluates A^T P + P A + C^T C + (C^T D + P B)(g^2 I - D^T D)^{-1}
    (D^T C + B^T P); a negative value certifies the attenuation level g at
    this P for the constant-storage case.
    """
    a, b, c, d, p = (np.asarray(m, dtype=float) for m in (a, b, c, d, p))
    eigs_p = lmi.symmetric_eigenvalues(p)
    if eigs_p[0] <= 0.0:
        raise ValueError("storage matrix P must be positive definite")
    m = _riccati_residual(a, b, c, d, _middle_inverse(d, g), p)
    return float(lmi.symmetric_eigenvalues(_sym(m))[-1])


def _riccati_residual(a, b, c, d, r_inv, p):
    cross = c.T @ d + p @ b
    return a.T @ p + p @ a + c.T @ c + cross @ r_inv @ (d.T @ c + b.T @ p)


def solve_riccati(a, b, c, d, g) -> RiccatiSolution:
    """Stabilizing PSD solution of the game-type algebraic Riccati equation.

        A^T P + P A + C^T C
        + (C^T D + P B)(g^2 I - D^T D)^{-1}(D^T C + B^T P) = 0

    computed from the stable invariant subspace of the associated
    Hamiltonian matrix (ordered real Schur form).  Raises
    ``RiccatiNoSolutionError`` when the Hamiltonian has eigenvalues within
    1e-8 of the imaginary axis, which signals g at or below the H-infinity
    norm.
    """
    a, b, c, d = (np.asarray(m, dtype=float) for m in (a, b, c, d))
    r_inv = _middle_inverse(d, g)
    a_hat = a + b @ r_inv @ d.T @ c
    q_hat = _sym(c.T @ c + c.T @ d @ r_inv @ d.T @ c)
    g_mat = _sym(b @ r_inv @ b.T)
    n = a.shape[0]
    ham = np.block([[a_hat, g_mat], [-q_hat, -a_hat.T]])
    eigs = np.linalg.eigvals(ham)
    axis_tol = AXIS_TOL * (1.0 + _maxabs(ham))
    if np.min(np.abs(eigs.real)) < axis_tol:
        raise RiccatiNoSolutionError(
            f"Hamiltonian eigenvalue within {axis_tol:.1e} of the imaginary axis; "
            f"no stabilizing solution at g={g}"
        )
    t_schur, z_schur, sdim = sla.schur(ham, output="real", sort="lhp")
    if sdim != n:
        raise RiccatiNoSolutionError(
            f"stable subspace has dimension {sdim}, expected {n}"
        )
    v1 = z_schur[:n, :n]
    v2 = z_schur[n:, :n]
    try:
        p = np.linalg.solve(v1.T, v2.T).T
    except np.linalg.LinAlgError as exc:
        raise RiccatiNoSolutionError("stable subspace is not a graph subspace") from exc
    p = _sym(p)
    p_eigs = np.linalg.eigvalsh(p)
    scale = 1.0 + _maxabs(p)
    if p_eigs[0] < -1e-9 * scale:
        raise RiccatiNoSolutionError("stable-subspace solution is not positive semidefinite")
    closed = a + b @ r_inv @ (d.T @ c + b.T @ p)
    abscissa = float(np.max(np.linalg.eigvals(closed).real))
    if abscissa >= 0.0:
        raise RiccatiNoSolutionError("candidate solution is not stabilizing")
    residual = _maxabs(_riccati_residual(a, b, c, d, r_inv, p))
    if residual > 1e-8 * scale:
        raise RiccatiNoSolutionError(
            f"Riccati residual {residual:.3e} above tolerance; solve is unreliable"
        )
    return RiccatiSolution(p, abscissa, residual, float(g))


def hinf_norm(a, b, c, d, tol: float = 1e-9) -> float:
    """H-infinity norm of a stable system by bisection on Riccati solvability."""
    a = np.asarray(a, dtype=float)
    if np.max(np.linalg.eigvals(a).real) >= 0.0:
        raise ValueError("drift matrix must be Hurwitz")
    d = np.asarray(d, dtype=float)
    sigma_d = float(np.linalg.norm(d, 2)) if d.size else 0.0

    def solvable(g):
        try:
            solve_riccati(a, b, c, d, g)
            return True
        except (RiccatiNoSolutionError, ValueError):
            return False

    lo = sigma_d
    hi = max(1.0, 2.0 * sigma_d)
    doublings = 0
    while not solvable(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            raise RuntimeError("no finite attenuation level found; system may be unstable")
    while (hi - lo) > tol * max(hi, 1e-12):
        mid = 0.5 * (lo + hi)
        if mid <= sigma_d:
            lo = mid
            continue
        if solvable(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _sigma_max_response(a, b, c, d, omega):
    n = a.shape[0]
    tf = c @ np.linalg.solve(1j * omega * np.eye(n) - a, b) + d
    return float(np.linalg.svd(tf, compute_uv=False)[0])


def frequency_sweep_norm(a, b, c, d, n_points: int = 1000) -> float:
    """H-infinity norm estimate from a dense frequency sweep.

    Evaluates sigma_max(C (i w I - A)^{-1} B + D) on a log-spaced grid that
    always includes w = 0, then sharpens the best point with a golden-section
    search on the bracketing interval.  Used as an oracle independent of the
    Riccati machinery.
    """
    a, b, c, d = (np.asarray(m, dtype=float) for m in (a, b, c, d))
    radius = max(1.0, float(np.max(np.abs(np.linalg.eigvals(a)))))
    grid = np.concatenate(
        [[0.0], np.logspace(np.log10(radius * 1e-4), np.log10(radius * 1e4), n_points)]
    )
    values = np.array([_sigma_max_response(a, b, c, d, w) for w in grid])
    k = int(np.argmax(values))
    best = float(values[k])
    lo = grid[k - 1] if k > 0 else 0.0
    hi = grid[k + 1] if k + 1 < len(grid) else grid[k] * 2.0
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1 = _sigma_max_response(a, b, c, d, x1)
    f2 = _sigma_max_response(a, b, c, d, x2)
    for _ in range(200):
        if hi - lo < 1e-12 * (1.0 + hi):
            break
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = _sigma_max_response(a, b, c, d, x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = _sigma_max_response(a, b, c, d, x1)
        best = max(best, f1, f2)
    return best


def _check_level(g, name="g"):
    """Reject an attenuation level that is not a finite positive number, or
    whose square (the LMIs' -g^2 I corner) is not finite."""
    if not (np.isfinite(g) and g > 0):
        raise ValueError(f"attenuation level must be positive and finite, got {name}={g}")
    if not np.isfinite(float(g) * float(g)):
        raise ValueError(f"attenuation level {name}={g} is too large: its square is not finite")


def bounded_real_block(a, b, c, pi_row, p_names, i) -> lmi.AffineMatrixExpr:
    """Mode i of the coupled bounded-real LMI, without its level corner:

        [[A^T P_i + P_i A + sum_j pi_ij P_j + C^T C,  P_i B],
         [B^T P_i,                                    0    ]]

    over the symmetric variables ``p_names`` (one per mode).  The caller
    adds the (1, 1) corner -g^2 I and any further terms.
    """
    n, n_w = a.shape[0], b.shape[1]
    eye_n = np.eye(n)
    expr = lmi.AffineMatrixExpr([n, n_w])
    expr.add_constant(c.T @ c)
    expr.add_term(p_names[i], a.T, eye_n)
    expr.add_term(p_names[i], eye_n, a)
    for j, rate in enumerate(pi_row):
        if abs(rate) > 1e-15:
            expr.add_term(p_names[j], rate * eye_n, eye_n)
    expr.add_term(p_names[i], eye_n, b, block=(0, 1))
    return expr


def coupled_mode_check(loop: ClosedLoop, g) -> CoupledModeResult:
    """Search coupled storage matrices P_1..P_N > 0 of a closed loop with,
    for every mode i,

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j
        + g^{-2} P_i B1_i B1_i^T P_i + C_i^T C_i < 0,

    posed as the LMI ``bounded_real_block`` with corner -g^2 I (a Schur
    complement) and solved with the barrier engine.  The noise offset is
    max_i tr(B1_i^T P_i B1_i) + tr(B2_i^T P_i B2_i).
    """
    _check_level(g)
    problem = lmi.LmiProblem()
    names = [f"P{i + 1}" for i in range(loop.n_modes)]
    for name in names:
        problem.add_variable(name, loop.n, symmetric=True)

    for i, m in enumerate(loop.modes):
        pos = lmi.AffineMatrixExpr(loop.n)
        pos.add_term(names[i])
        problem.add_constraint(pos, "pos")

        expr = bounded_real_block(m.a, m.b1, m.c, loop.rates.pi[i], names, i)
        expr.add_constant(-(g * g) * np.eye(loop.n_w), block=(1, 1))
        problem.add_constraint(expr, "neg")

    solution = lmi.solve_feasibility(problem, max_iter=400)
    if not solution.feasible:
        return CoupledModeResult(solution, None, None)
    p_modes = tuple(solution.assignment[name] for name in names)
    noise_offset = max(
        float(np.trace(m.b1.T @ p @ m.b1)) + float(np.trace(m.b2.T @ p @ m.b2))
        for m, p in zip(loop.modes, p_modes)
    )
    return CoupledModeResult(solution, p_modes, noise_offset)


def mode_abscissas(loop) -> tuple:
    """Spectral abscissa max Re eig(A_i) of every mode of a closed loop."""
    return tuple(float(np.max(np.linalg.eigvals(m.a).real)) for m in loop.modes)


@dataclass(frozen=True)
class ClosedLoopReport:
    """Outcome of certifying a plant-controller loop at attenuation g."""

    g: float
    hurwitz: tuple           # per-mode bool
    abscissas: tuple         # per-mode spectral abscissa
    coupled: CoupledModeResult | None  # None when a mode is unstable
    realizability_residual: float

    @property
    def attenuation_ok(self) -> bool:
        return all(self.hurwitz) and self.coupled is not None and self.coupled.feasible


def verify_closed_loop(plant: JumpPlant, ctrl: Controller, g: float) -> ClosedLoopReport:
    """Assemble the loop, check per-mode stability and the coupled LMI.

    ``coupled_mode_check`` runs on the assembled loop only when every mode
    is Hurwitz; otherwise the report's ``coupled`` is None.  Raises
    ``ValueError`` unless g is positive and g^2 finite, whether or not every
    mode is stable.
    """
    _check_level(g)
    loop = assemble_closed_loop(plant, ctrl)
    abscissas = mode_abscissas(loop)
    hurwitz = tuple(x < 0.0 for x in abscissas)
    coupled = None
    if all(hurwitz):
        coupled = coupled_mode_check(loop, g)
    pr = check_controller_realizability(ctrl)
    return ClosedLoopReport(
        g=float(g),
        hurwitz=hurwitz,
        abscissas=abscissas,
        coupled=coupled,
        realizability_residual=pr.worst(),
    )
