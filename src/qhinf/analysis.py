"""Closed-loop H-infinity certification of Markov jump quantum systems.

A closed loop meets attenuation level g when coupled storage matrices
P_1..P_N > 0 satisfy the per-mode bounded-real inequalities, which the
transition rates tie together.  Such P_i prove mean-square stability and the
attenuation bound at once, so a single mode with an unstable drift does not
by itself fail a jump loop, and a Hurwitz drift in every mode does not by
itself pass one: no per-mode spectral test is made or reported.  Every
verdict rests on that LMI and a primal point re-verified from its
expressions.  Two searches find the point, cheapest first.  The first is a
ladder of storages in closed form: its iterate 0 is the coupled Lyapunov
storage, which certifies when the level is not tight, and each further
iterate is one Newton (Kleinman) step on the coupled Riccati equations of
the bounded real lemma, one coupled Lyapunov solve.  Every iterate is
verified, and the first that certifies ends the ladder.  The second is the
barrier solve, which decides every loop the ladder does not certify and is
the only source of an ``infeasible`` verdict (Costa, Fragoso & Todorov,
Continuous-Time Markov Jump Linear Systems, Springer 2013; Kleinman, IEEE
TAC 13(1), 1968).

The ladder is kept for speed, not for its verdicts.  Of the 45 fixed-level
designs of ``scripts/audit.py``, 26 certify at its iterate 0 (route
"lyapunov"), 10 after one or two Kleinman steps ("riccati") and 8 by the
barrier (one is rejected), and every one of the 36 ladder certificates also
certifies by the barrier alone.  The tabulated controller certifies at
iterate 0 at g = 1 and 0.5, after one Kleinman step at 0.2 and by the
barrier at 0.17.  A Kleinman step costs one LU factorisation where the
barrier takes tens of Newton steps: certifying the 8-state, 6-mode grid
design of ``scripts/bench.py`` took 5.1 s by the barrier and takes 0.05 s.

This module provides:

* ``bounded_real_block``: mode i of the coupled bounded-real LMI without its
  level corner, shared by the certificate search and the synthesis LMIs,
* ``coupled_problem``: the coupled bounded-real LMI of a ``ClosedLoop`` at a
  level, posed once for every route,
* ``coupled_mode_check``: coupled per-mode certificates of a ``ClosedLoop``,
  from the storage ladder or else the barrier solve, returned as a
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
    margin.  ``route`` names where the point came from: "lyapunov" (iterate
    0 of the storage ladder, the coupled Lyapunov storage) or "riccati" (a
    later iterate, after Kleinman steps on the coupled Riccati equations),
    both with 0 barrier Newton steps and t = -margin, or "barrier" (the
    barrier solve, whose t is its final shift).
    ``noise_offset`` is None unless the loop certified; it is the bound
    max_i tr(B1_i^T P_i B1_i) + tr(B2_i^T P_i B2_i) of whichever storage
    certified, so it depends on the route, not only on the loop: the
    tabulated controller at g = 0.2 reads 0.02278 from its Riccati storage
    and 0.6327 from the barrier's P_i.
    """

    g: float
    solution: lmi.LmiSolution
    noise_offset: float | None  # trace-term constant of the dissipation bookkeeping
    route: str  # "lyapunov", "riccati" or "barrier"

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


def _coupled_lyapunov(drifts, rates, rhs) -> np.ndarray:
    """Solutions P of the coupled Lyapunov equations
    a_i^T P_i + P_i a_i + sum_j pi_ij P_j = -Q_i, stacked (k, N, n, n), for
    the drifts a_i (``drifts``, (N, n, n)), the rates pi (``rates``, (N, N))
    and k right-hand sides Q_i (``rhs``, (k, N, n, n); only their upper
    triangles are read).

    The operator, ``lyapunov_operator`` of each a_i^T coupled by the rates,
    acts on the upper triangles of the symmetric P_i, so one LU factorisation
    of an N n(n+1)/2 square system solves every right-hand side.  Raises
    ``np.linalg.LinAlgError`` when the operator is singular.
    """
    n_modes, n = drifts.shape[:2]
    rows, cols = np.triu_indices(n)
    upper = lyapunov_operator(drifts.swapaxes(-1, -2), rows, cols)
    size = rows.size
    operator = np.zeros((n_modes, size, n_modes, size))
    diagonal = np.arange(size)
    operator[:, diagonal, :, diagonal] = rates  # sum_j pi_ij P_j
    operator[np.arange(n_modes), :, np.arange(n_modes), :] += upper
    k = len(rhs)
    solution = np.linalg.solve(operator.reshape(n_modes * size, -1),
                               -rhs[..., rows, cols].reshape(k, -1).T)
    storage = np.empty((k, n_modes, n, n))
    storage[..., rows, cols] = solution.T.reshape(k, n_modes, size)
    storage[..., cols, rows] = storage[..., rows, cols]
    return storage


def _closed_form_storage(loop: ClosedLoop, g, problem: lmi.LmiProblem):
    """The first certifying iterate of the closed-form storage ladder of a
    loop, as (certificate of ``problem``, route), or None when none does;
    ``problem`` is ``coupled_problem(loop, g)``.

    Iterate 0 is the coupled Lyapunov storage P(eps) = P_C + eps P_I
    (``_coupled_lyapunov``), whose (1, 1) block of mode i is exactly -eps I,
    so the block [[-eps I, P_i B_i], [B_i^T P_i, -g^2 I]] pairs each singular
    value s of P_i B_i into the eigenvalues
    (-(eps + g^2) +- sqrt((eps - g^2)^2 + 4 s^2)) / 2.  One batched
    eigensolve of B_i^T P_i(eps)^2 B_i over ``_LYAPUNOV_WEIGHTS`` gives every
    block's margin, and the weight eps* with the largest one over the modes
    is kept.  Iterate k is the k-th Newton (Kleinman) step from iterate 0 on
    the coupled Riccati equations

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j + C_i^T C_i + eps* I
        + g^-2 P_i B1_i B1_i^T P_i = 0,

    one ``_coupled_lyapunov`` solve with the drifts A_i + g^-2 B1_i B1_i^T P_i
    and the right-hand sides C_i^T C_i + eps* I - g^-2 P_i B1_i B1_i^T P_i at
    the last iterate (Kleinman, IEEE TAC 13(1), 1968).  Every iterate is
    verified from the expressions (``lmi._verified_margins``), as the
    barrier's final iterate is, and the first whose margin reaches
    ``lmi.EPS_STRICT`` is returned: route "lyapunov" at iterate 0, else
    "riccati".  The ladder gives up at a singular or non-finite solve, at a
    step that does not raise the verified margin, and after ``lmi.MAX_ITER``
    steps.
    """
    gg = g * g
    with np.errstate(all="ignore"):  # a singular or unstable loop only loses the closed forms
        try:
            a = np.stack([m.a for m in loop.modes])
            b1 = np.stack([m.b1 for m in loop.modes])
            ctc = np.stack([m.c.T @ m.c for m in loop.modes])
            rhs = np.stack([ctc, [np.eye(loop.n)] * loop.n_modes])
            p_c, p_i = _coupled_lyapunov(a, loop.rates.pi, rhs)
            if not (np.all(np.isfinite(p_c)) and np.all(np.isfinite(p_i))):
                return None
            pb = p_c @ b1 + _LYAPUNOV_WEIGHTS[:, None, None, None] * (p_i @ b1)
            top = np.linalg.eigvalsh(pb.swapaxes(-1, -2) @ pb)[..., -1].max(axis=1)
            w = _LYAPUNOV_WEIGHTS
            eps = w[np.argmax(0.5 * (w + gg - np.sqrt((w - gg) ** 2 + 4.0 * top)))]
            p, q, margin = p_c + eps * p_i, ctc + eps * np.eye(loop.n), -np.inf
            for steps in range(lmi.MAX_ITER + 1):
                if steps:
                    gain = b1 @ (p @ b1).swapaxes(-1, -2) / gg  # g^-2 B1 B1^T P
                    p = _coupled_lyapunov(a + gain, loop.rates.pi, (q - p @ gain)[None])[0]
                    if not np.all(np.isfinite(p)):
                        return None
                assignment = {f"P{i + 1}": p[i] for i in range(loop.n_modes)}
                verified = lmi._verified_margins(problem, assignment)
                previous, margin = margin, min(verified)
                if not margin > previous:
                    return None
                if margin >= lmi.EPS_STRICT:
                    break
            else:
                return None
        except np.linalg.LinAlgError:
            return None
    note = (f"coupled Riccati storage after {steps} Kleinman step{'s' if steps > 1 else ''}"
            if steps else "coupled Lyapunov storage")
    solution = lmi.LmiSolution(assignment=assignment, margin=margin, iterations=0,
                               status="feasible", t_achieved=-margin,
                               constraint_margins=verified, notes=(note,))
    return solution, "riccati" if steps else "lyapunov"


def coupled_mode_check(loop: ClosedLoop, g) -> ClosedLoopReport:
    """Certify a closed loop at level g by coupled storage matrices
    P_1..P_N > 0 with, for every mode i,

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j
        + g^{-2} P_i B1_i B1_i^T P_i + C_i^T C_i < 0,

    posed once as ``coupled_problem`` (the LMI ``bounded_real_block`` with
    corner -g^2 I, a Schur complement).  Two searches find the P_i, and any
    P_i verified from the expressions with margin at least
    ``lmi.EPS_STRICT`` is a complete certificate:

    * first the storage ladder (``_closed_form_storage``): iterate 0 is the
      coupled Lyapunov storage in closed form, which certifies when the
      level is not tight (route "lyapunov"); each further iterate is one
      Newton (Kleinman) step on the coupled Riccati equations, the
      inequality above with C_i^T C_i + eps I in place of C_i^T C_i and
      equality, where eps is the Lyapunov storage's best weight, and costs
      one coupled Lyapunov solve (route "riccati").  Every iterate is
      verified; the ladder stops at the first that certifies, or gives up
      at one that is singular, not finite, or no better than the last;
    * otherwise the barrier engine, ``lmi.solve_feasibility`` (route
      "barrier"): it stops at the first Newton iterate whose margin exceeds
      ``lmi.EPS_STRICT`` rather than growing the margin further.

    A ``feasible`` verdict needs a verified point on some route; an
    ``infeasible`` or ``undecided`` one comes from the barrier alone.  The
    returned P_i, margin and noise offset are those of the certifying
    point, not of a centred interior.  A closed-form certificate is an
    ``LmiSolution`` with 0 iterations and t = -margin, noted "coupled
    Lyapunov storage" or "coupled Riccati storage after k Kleinman
    step(s)".  The noise offset is max_i tr(B1_i^T P_i B1_i) +
    tr(B2_i^T P_i B2_i) of those certifying P_i; any storage that
    certifies bounds the noise term, so it is one valid constant, not the
    least, and another route gives another (``ClosedLoopReport``).  The
    certificate is the whole stability verdict:
    no per-mode Hurwitz test enters or accompanies it, as one is neither
    necessary nor sufficient for mean-square stability.  Raises
    ``ValueError`` unless g is positive and g^2 finite.
    """
    problem = coupled_problem(loop, g)
    solution, route = (_closed_form_storage(loop, g, problem)
                       or (lmi.solve_feasibility(problem), "barrier"))
    noise_offset = None
    if solution.feasible:
        noise_offset = max(
            float(np.trace(m.b1.T @ p @ m.b1)) + float(np.trace(m.b2.T @ p @ m.b2))
            for m, p in zip(loop.modes, (solution.assignment[v.name] for v in problem.variables))
        )
    return ClosedLoopReport(float(g), solution, noise_offset, route)


def verify_closed_loop(plant: JumpPlant, ctrl: Controller, g: float) -> ClosedLoopReport:
    """``coupled_mode_check`` of the loop that plant and controller assemble.

    Physical realizability is a separate condition, not part of this
    verdict; ``realizability`` checks it.
    """
    return coupled_mode_check(assemble_closed_loop(plant, ctrl), g)
