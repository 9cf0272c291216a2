"""Closed-loop H-infinity certification of Markov jump quantum systems.

A closed loop meets attenuation level g when coupled storage matrices
P_1..P_N > 0 satisfy the per-mode bounded-real inequalities, which the
transition rates tie together.  Such P_i prove mean-square stability and the
attenuation bound at once, so a single mode with an unstable drift does not
by itself fail a jump loop; every verdict rests on that LMI and its verified
primal point.  This module provides:

* ``bounded_real_block``: mode i of the coupled bounded-real LMI without its
  level corner, shared by the certificate search and the synthesis LMIs,
* ``coupled_mode_check``: LMI search for coupled per-mode certificates of
  a ``ClosedLoop``, returned as a ``ClosedLoopReport`` that holds the LMI
  solution itself (the P_i are ``solution.assignment["P<i>"]``),
* ``mode_abscissas``: per-mode spectral abscissas of a closed loop (report
  data, not part of the verdict),
* ``verify_closed_loop``: ``coupled_mode_check`` of the loop a plant and a
  controller assemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lmi
from .qmodel import ClosedLoop, Controller, JumpPlant, assemble_closed_loop

__all__ = [
    "ClosedLoopReport",
    "bounded_real_block",
    "coupled_mode_check",
    "mode_abscissas",
    "verify_closed_loop",
]


@dataclass(frozen=True)
class ClosedLoopReport:
    """Outcome of certifying a closed loop at attenuation level g.

    ``solution`` is the coupled LMI solve: its status is the verdict, its
    assignment holds the storage matrices P_i, its margin the verified
    margin.  ``noise_offset`` is None unless the solve certified.
    """

    g: float
    abscissas: tuple  # per-mode spectral abscissa
    solution: lmi.LmiSolution
    noise_offset: float | None  # trace-term constant of the dissipation bookkeeping

    @property
    def attenuation_ok(self) -> bool:
        return self.solution.feasible


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
    with np.errstate(over="ignore", invalid="ignore"):  # the LMI engine names non-finite data
        expr.add_constant(c.T @ c)
    expr.add_term(p_names[i], a.T, eye_n)
    expr.add_term(p_names[i], eye_n, a)
    for j, rate in enumerate(pi_row):
        if abs(rate) > 1e-15:
            expr.add_term(p_names[j], rate * eye_n, eye_n)
    expr.add_term(p_names[i], eye_n, b, block=(0, 1))
    return expr


def coupled_mode_check(loop: ClosedLoop, g) -> ClosedLoopReport:
    """Search coupled storage matrices P_1..P_N > 0 of a closed loop with,
    for every mode i,

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j
        + g^{-2} P_i B1_i B1_i^T P_i + C_i^T C_i < 0,

    posed as the LMI ``bounded_real_block`` with corner -g^2 I (a Schur
    complement) and solved with the barrier engine.  Any strictly feasible
    P_i is a complete certificate, so the solve stops at the first Newton
    iterate whose margin exceeds ``lmi.EPS_STRICT`` (``settle=False``) rather
    than growing the margin further; the verdict rests on that iterate,
    re-verified from the expressions.  The returned P_i, margin and noise
    offset are those of the first certified iterate, not of a settled
    interior.  The noise offset is max_i tr(B1_i^T P_i B1_i)
    + tr(B2_i^T P_i B2_i).  The per-mode spectral abscissas are reported
    beside the verdict, not part of it.  Raises ``ValueError`` unless g is
    positive and g^2 finite.
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

    solution = lmi.solve_feasibility(problem, settle=False)
    noise_offset = None
    if solution.feasible:
        noise_offset = max(
            float(np.trace(m.b1.T @ p @ m.b1)) + float(np.trace(m.b2.T @ p @ m.b2))
            for m, p in zip(loop.modes, (solution.assignment[name] for name in names))
        )
    return ClosedLoopReport(float(g), mode_abscissas(loop), solution, noise_offset)


def mode_abscissas(loop) -> tuple:
    """Spectral abscissa max Re eig(A_i) of every mode of a closed loop."""
    return tuple(float(np.max(np.linalg.eigvals(m.a).real)) for m in loop.modes)


def verify_closed_loop(plant: JumpPlant, ctrl: Controller, g: float) -> ClosedLoopReport:
    """``coupled_mode_check`` of the loop that plant and controller assemble.

    Physical realizability is a separate condition, not part of this
    verdict; ``realizability`` checks it.
    """
    return coupled_mode_check(assemble_closed_loop(plant, ctrl), g)
