"""Closed-loop H-infinity certification of Markov jump quantum systems.

A closed loop meets attenuation level g when coupled storage matrices
P_1..P_N > 0 satisfy the per-mode bounded-real inequalities, which the
transition rates tie together.  Such P_i prove mean-square stability and the
attenuation bound at once, so a single mode with an unstable drift does not
by itself fail a jump loop, and a Hurwitz drift in every mode does not by
itself pass one: no per-mode spectral test is made or reported.  Every
verdict rests on that LMI and a primal point re-verified from its
expressions.  Two routes search the point: the coupled Lyapunov storage in
closed form, which certifies when the level is not tight, and the barrier
solve, which decides every other loop and is the only source of an
``infeasible`` verdict (Costa, Fragoso & Todorov, Continuous-Time Markov
Jump Linear Systems, Springer 2013).

The Lyapunov route is kept for speed, not for its verdicts.  Of 50 loops
(the 45 fixed-level designs of ``scripts/audit.py``, the tabulated
controller at g = 1, 0.5, 0.2 and 0.17, and the reference level search's
design), the 28 that take the route also certify by the barrier alone, in
1-30 Newton steps (one each for the single-mode designs).  Without the
route, ``demo-paper --quick`` was slower in 8 of 10 alternating pairs (a
median 9 % per pair) and the scaled-design operation of perfbench faster in
7 of 10 (6 %): each path wins on one workload, so both stay.

This module provides:

* ``bounded_real_block``: mode i of the coupled bounded-real LMI without its
  level corner, shared by the certificate search and the synthesis LMIs,
* ``coupled_problem``: the coupled bounded-real LMI of a ``ClosedLoop`` at a
  level, posed once for both routes,
* ``coupled_mode_check``: coupled per-mode certificates of a ``ClosedLoop``,
  from the Lyapunov storage or else the barrier solve, returned as a
  ``ClosedLoopReport`` that holds the solution itself (the P_i are
  ``solution.assignment["P<i>"]``) and names the route,
* ``verify_closed_loop``: ``coupled_mode_check`` of the loop a plant and a
  controller assemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lmi
from .qmodel import ClosedLoop, Controller, JumpPlant, assemble_closed_loop, lyapunov_operator

__all__ = [
    "ClosedLoopReport",
    "bounded_real_block",
    "coupled_mode_check",
    "coupled_problem",
    "verify_closed_loop",
]


@dataclass(frozen=True)
class ClosedLoopReport:
    """Outcome of certifying a closed loop at attenuation level g.

    ``solution`` is the certifying solve: its status is the verdict, its
    assignment holds the storage matrices P_i, its margin the verified
    margin.  ``route`` names where the point came from: "lyapunov" (the
    coupled Lyapunov storage, 0 Newton steps, t = -margin) or "barrier"
    (the barrier solve, whose t is its final shift).  ``noise_offset`` is
    None unless the loop certified.
    """

    g: float
    solution: lmi.LmiSolution
    noise_offset: float | None  # trace-term constant of the dissipation bookkeeping

    @property
    def attenuation_ok(self) -> bool:
        return self.solution.feasible

    @property
    def route(self) -> str:
        """"lyapunov" when the coupled Lyapunov storage certified the loop,
        else "barrier" (the barrier solve decided the verdict)."""
        return "lyapunov" if LYAPUNOV_NOTE in self.solution.notes else "barrier"


# The note of a certificate the coupled Lyapunov storage gave, with no Newton step
LYAPUNOV_NOTE = "coupled Lyapunov storage"


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
        expr.add_term(p_names[j], rate * eye_n, eye_n)
    expr.add_term(p_names[i], eye_n, b, block=(0, 1))
    return expr


def coupled_problem(loop: ClosedLoop, g) -> lmi.LmiProblem:
    """The coupled bounded-real LMI of a closed loop at level g: over the
    symmetric P1..PN, P_i > 0 and ``bounded_real_block`` of mode i with corner
    -g^2 I, mode by mode.  Raises ``ValueError`` unless g is positive and g^2
    finite."""
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
    return problem


# The weights eps of the Lyapunov storage P_C + eps P_I, four per decade.
# The margin of a bounded-real block whose (1, 1) block is -eps I is at most
# eps, so weights below EPS_STRICT could not certify.
_LYAPUNOV_WEIGHTS = np.logspace(-6, 6, 49)


def _coupled_lyapunov(loop: ClosedLoop) -> np.ndarray:
    """(P_C, P_I), stacked (2, N, n, n): the solutions of the coupled Lyapunov
    equations A_i^T P_i + P_i A_i + sum_j pi_ij P_j = -Q_i with Q_i = C_i^T C_i
    and Q_i = I.

    The operator, ``lyapunov_operator`` of each A_i^T coupled by the rates,
    acts on the upper triangles of the symmetric P_i, so one LU factorisation
    of an N n(n+1)/2 square system solves both right-hand sides.  Raises
    ``np.linalg.LinAlgError`` when the operator is singular.
    """
    n, n_modes = loop.n, loop.n_modes
    rows, cols = np.triu_indices(n)
    upper = lyapunov_operator(np.stack([m.a.T for m in loop.modes]), rows, cols)
    size = rows.size
    operator = np.zeros((n_modes, size, n_modes, size))
    diagonal = np.arange(size)
    operator[:, diagonal, :, diagonal] = loop.rates.pi  # sum_j pi_ij P_j
    operator[np.arange(n_modes), :, np.arange(n_modes), :] += upper
    rhs = np.empty((n_modes, size, 2))
    rhs[:, :, 0] = [-(m.c.T @ m.c)[rows, cols] for m in loop.modes]
    rhs[:, :, 1] = -np.eye(n)[rows, cols]
    solution = np.linalg.solve(operator.reshape(n_modes * size, -1), rhs.reshape(-1, 2))
    storage = np.empty((2, n_modes, n, n))
    storage[..., rows, cols] = solution.T.reshape(2, n_modes, size)
    storage[..., cols, rows] = storage[..., rows, cols]
    return storage


def _lyapunov_storage(loop: ClosedLoop, g, problem: lmi.LmiProblem) -> lmi.LmiSolution | None:
    """The coupled Lyapunov storage of a loop as a verified certificate of
    ``problem`` (``coupled_problem(loop, g)``), or None when it does not
    certify.

    At P(eps) = P_C + eps P_I (``_coupled_lyapunov``) the (1, 1) block of
    mode i is exactly -eps I, so the block [[-eps I, P_i B_i], [B_i^T P_i,
    -g^2 I]] pairs each singular value s of P_i B_i into the eigenvalues
    (-(eps + g^2) +- sqrt((eps - g^2)^2 + 4 s^2)) / 2.  One batched
    eigensolve of B_i^T P_i(eps)^2 B_i over ``_LYAPUNOV_WEIGHTS`` gives every
    block's margin; it is positive exactly when g^2 eps exceeds
    lambda_max(B_i^T P_i(eps)^2 B_i).  The weight with the largest margin
    over the modes is re-verified from the expressions, as the barrier's
    final iterate is.  A singular or non-finite solve, or a margin below
    ``lmi.EPS_STRICT`` (predicted or verified), returns None.
    """
    with np.errstate(all="ignore"):  # a singular or unstable loop only loses this route
        try:
            p_c, p_i = _coupled_lyapunov(loop)
            if not (np.all(np.isfinite(p_c)) and np.all(np.isfinite(p_i))):
                return None
            b1 = np.stack([m.b1 for m in loop.modes])
            pb = p_c @ b1 + _LYAPUNOV_WEIGHTS[:, None, None, None] * (p_i @ b1)
            top = np.linalg.eigvalsh(pb.swapaxes(-1, -2) @ pb)[..., -1].max(axis=1)
        except np.linalg.LinAlgError:
            return None
        eps, gg = _LYAPUNOV_WEIGHTS, g * g
        margins = 0.5 * (eps + gg - np.sqrt((eps - gg) ** 2 + 4.0 * top))
        best = int(np.argmax(margins))
        if not margins[best] >= lmi.EPS_STRICT:
            return None
        assignment = {f"P{i + 1}": p_c[i] + eps[best] * p_i[i] for i in range(loop.n_modes)}
        verified = lmi._verified_margins(problem, assignment)
    margin = min(verified)
    if not margin >= lmi.EPS_STRICT:
        return None
    return lmi.LmiSolution(assignment=assignment, margin=margin, iterations=0, status="feasible",
                           t_achieved=-margin, constraint_margins=verified,
                           notes=(LYAPUNOV_NOTE,))


def coupled_mode_check(loop: ClosedLoop, g) -> ClosedLoopReport:
    """Certify a closed loop at level g by coupled storage matrices
    P_1..P_N > 0 with, for every mode i,

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j
        + g^{-2} P_i B1_i B1_i^T P_i + C_i^T C_i < 0,

    posed once as ``coupled_problem`` (the LMI ``bounded_real_block`` with
    corner -g^2 I, a Schur complement).  Two routes search the P_i, and any
    P_i verified from the expressions with margin at least ``lmi.EPS_STRICT``
    is a complete certificate:

    * the coupled Lyapunov storage first, in closed form (no Newton step;
      ``_lyapunov_storage``), which certifies when the level is not tight;
    * otherwise the barrier engine, ``lmi.solve_feasibility``: it stops at
      the first Newton iterate whose margin exceeds ``lmi.EPS_STRICT``
      rather than growing the margin further.

    A ``feasible`` verdict needs a verified point on either route; an
    ``infeasible`` or ``undecided`` one comes from the barrier alone.  The
    returned P_i, margin and noise offset are those of the certifying
    point, not of a centred interior.  A Lyapunov certificate is an ``LmiSolution`` with 0
    iterations, the note "coupled Lyapunov storage" and t = -margin.  The
    noise offset is max_i tr(B1_i^T P_i B1_i) + tr(B2_i^T P_i B2_i).  The
    certificate is the whole stability verdict: no per-mode Hurwitz test
    enters or accompanies it, as one is neither necessary nor sufficient for
    mean-square stability.  Raises ``ValueError`` unless g is positive and
    g^2 finite.
    """
    problem = coupled_problem(loop, g)
    solution = _lyapunov_storage(loop, g, problem)
    if solution is None:
        solution = lmi.solve_feasibility(problem)
    noise_offset = None
    if solution.feasible:
        noise_offset = max(
            float(np.trace(m.b1.T @ p @ m.b1)) + float(np.trace(m.b2.T @ p @ m.b2))
            for m, p in zip(loop.modes, (solution.assignment[v.name] for v in problem.variables))
        )
    return ClosedLoopReport(float(g), solution, noise_offset)


def verify_closed_loop(plant: JumpPlant, ctrl: Controller, g: float) -> ClosedLoopReport:
    """``coupled_mode_check`` of the loop that plant and controller assemble.

    Physical realizability is a separate condition, not part of this
    verdict; ``realizability`` checks it.
    """
    return coupled_mode_check(assemble_closed_loop(plant, ctrl), g)
