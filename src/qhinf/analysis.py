"""Closed-loop H-infinity certification of Markov jump quantum systems.

A closed loop meets attenuation level g when coupled storage matrices
P_1..P_N > 0 satisfy the per-mode bounded-real inequalities, which the
transition rates tie together.  Such P_i prove mean-square stability and the
attenuation bound at once, so a single mode with an unstable drift does not
by itself fail a jump loop, and a Hurwitz drift in every mode does not by
itself pass one: no per-mode spectral test is made or reported.  Every
verdict rests on that LMI and a primal point re-verified from its
expressions.  Three routes search the point, cheapest first: the coupled
Lyapunov storage in closed form, which certifies when the level is not
tight; Newton (Kleinman) steps from that storage on the coupled Riccati
equations of the bounded real lemma, each one coupled Lyapunov solve; and
the barrier solve, which decides every other loop and is the only source of
an ``infeasible`` verdict (Costa, Fragoso & Todorov, Continuous-Time Markov
Jump Linear Systems, Springer 2013; Kleinman, IEEE TAC 13(1), 1968).

The two closed-form routes are kept for speed, not for their verdicts.  Of
the 45 fixed-level designs of ``scripts/audit.py``, 26 certify by the
Lyapunov storage, 10 by one or two Kleinman steps and 8 by the barrier (one
is rejected), and every one of the 36 closed-form certificates also
certifies by the barrier alone.  The tabulated controller certifies by the
Lyapunov storage at g = 1 and 0.5, by one Kleinman step at 0.2 and by the
barrier at 0.17.  A Kleinman step costs one LU factorisation where the
barrier takes tens of Newton steps: certifying the 8-state, 6-mode grid
design of ``scripts/bench.py`` took 5.1 s by the barrier and takes 0.05 s.

This module provides:

* ``bounded_real_block``: mode i of the coupled bounded-real LMI without its
  level corner, shared by the certificate search and the synthesis LMIs,
* ``coupled_problem``: the coupled bounded-real LMI of a ``ClosedLoop`` at a
  level, posed once for every route,
* ``coupled_mode_check``: coupled per-mode certificates of a ``ClosedLoop``,
  from the Lyapunov storage, the Riccati storage or else the barrier solve,
  returned as a ``ClosedLoopReport`` that holds the solution itself (the P_i
  are ``solution.assignment["P<i>"]``) and names the route,
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
    coupled Lyapunov storage) or "riccati" (Kleinman steps on the coupled
    Riccati equations), both with 0 barrier Newton steps and t = -margin,
    or "barrier" (the barrier solve, whose t is its final shift).
    ``noise_offset`` is None unless the loop certified; it is the bound
    max_i tr(B1_i^T P_i B1_i) + tr(B2_i^T P_i B2_i) of whichever storage
    certified, so it depends on the route, not only on the loop: the
    tabulated controller at g = 0.2 reads 0.02278 from its Riccati storage
    and 0.6327 from the barrier's P_i.
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
        "riccati" when a Newton step on the coupled Riccati equations did,
        else "barrier" (the barrier solve decided the verdict)."""
        notes = self.solution.notes
        if LYAPUNOV_NOTE in notes:
            return "lyapunov"
        return "riccati" if any(note.startswith(RICCATI_NOTE) for note in notes) else "barrier"


# The notes of a certificate found with no barrier Newton step: the coupled
# Lyapunov storage, or the coupled Riccati storage (followed by its steps)
LYAPUNOV_NOTE = "coupled Lyapunov storage"
RICCATI_NOTE = "coupled Riccati storage"


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


def _riccati_storage(loop: ClosedLoop, g, eps, p):
    """Newton (Kleinman) steps on the coupled Riccati equations

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j + C_i^T C_i + eps I
        + g^-2 P_i B1_i B1_i^T P_i = 0

    from p (N, n, n), the coupled Lyapunov storage P_C + eps P_I, which is
    the iteration's own iterate 0.  Each step is one ``_coupled_lyapunov``
    solve with the drifts A_i + g^-2 B1_i B1_i^T P_i and the right-hand
    sides C_i^T C_i + eps I - g^-2 P_i B1_i B1_i^T P_i at the last iterate
    (Kleinman, IEEE TAC 13(1), 1968).  Each iterate's margin on
    ``coupled_problem(loop, g)``, min_i of lambda_min(P_i) and -lambda_max
    of mode i's bounded-real block, is predicted by one batched eigensolve
    of the N matrices blockdiag(bounded-real block, -P_i).  Returns
    (storage, steps) at the first iterate whose predicted margin reaches
    ``lmi.EPS_STRICT``, or None when an iterate is not finite, when a step
    does not raise the predicted margin, or after ``lmi.MAX_ITER`` steps.
    Raises ``np.linalg.LinAlgError`` when a step's operator is singular.
    """
    n, n_w, gg = loop.n, loop.n_w, g * g
    a = np.stack([m.a for m in loop.modes])
    b1 = np.stack([m.b1 for m in loop.modes])
    ctc = np.stack([m.c.T @ m.c for m in loop.modes])
    blocks = np.zeros((loop.n_modes, 2 * n + n_w, 2 * n + n_w))
    blocks[:, n:n + n_w, n:n + n_w] = -gg * np.eye(n_w)

    def predicted_margin(p):
        ap = a.swapaxes(-1, -2) @ p
        coupling = np.einsum("ij,jkl->ikl", loop.rates.pi, p)  # sum_j pi_ij P_j
        blocks[:, :n, :n] = ap + ap.swapaxes(-1, -2) + coupling + ctc
        blocks[:, :n, n:n + n_w] = pb = p @ b1
        blocks[:, n:n + n_w, :n] = pb.swapaxes(-1, -2)
        blocks[:, n + n_w:, n + n_w:] = -p
        return -float(np.linalg.eigvalsh(blocks)[:, -1].max())

    q = ctc + eps * np.eye(n)
    margin = predicted_margin(p)
    for steps in range(1, lmi.MAX_ITER + 1):
        gain = b1 @ (p @ b1).swapaxes(-1, -2) / gg  # g^-2 B1 B1^T P
        p = _coupled_lyapunov(a + gain, loop.rates.pi, (q - p @ gain)[None])[0]
        if not np.all(np.isfinite(p)):
            return None
        previous, margin = margin, predicted_margin(p)
        if not margin > previous:
            return None
        if margin >= lmi.EPS_STRICT:
            return p, steps
    return None


def _lyapunov_storage(loop: ClosedLoop, g, problem: lmi.LmiProblem) -> lmi.LmiSolution | None:
    """The coupled Lyapunov or Riccati storage of a loop as a verified
    certificate of ``problem`` (``coupled_problem(loop, g)``), or None when
    neither certifies.

    At P(eps) = P_C + eps P_I (``_coupled_lyapunov``) the (1, 1) block of
    mode i is exactly -eps I, so the block [[-eps I, P_i B_i], [B_i^T P_i,
    -g^2 I]] pairs each singular value s of P_i B_i into the eigenvalues
    (-(eps + g^2) +- sqrt((eps - g^2)^2 + 4 s^2)) / 2.  One batched
    eigensolve of B_i^T P_i(eps)^2 B_i over ``_LYAPUNOV_WEIGHTS`` gives every
    block's margin; it is positive exactly when g^2 eps exceeds
    lambda_max(B_i^T P_i(eps)^2 B_i).  When the weight eps* with the largest
    margin over the modes falls short of ``lmi.EPS_STRICT``, Newton steps on
    the coupled Riccati equations with C_i^T C_i + eps* I start from
    P(eps*) (``_riccati_storage``).  The storage found is re-verified from
    the expressions, as the barrier's final iterate is.  A singular or
    non-finite solve, or a margin below ``lmi.EPS_STRICT`` (predicted or
    verified), returns None.
    """
    with np.errstate(all="ignore"):  # a singular or unstable loop only loses this route
        try:
            a = np.stack([m.a for m in loop.modes])
            rhs = np.stack([[m.c.T @ m.c for m in loop.modes], [np.eye(loop.n)] * loop.n_modes])
            p_c, p_i = _coupled_lyapunov(a, loop.rates.pi, rhs)
            if not (np.all(np.isfinite(p_c)) and np.all(np.isfinite(p_i))):
                return None
            b1 = np.stack([m.b1 for m in loop.modes])
            pb = p_c @ b1 + _LYAPUNOV_WEIGHTS[:, None, None, None] * (p_i @ b1)
            top = np.linalg.eigvalsh(pb.swapaxes(-1, -2) @ pb)[..., -1].max(axis=1)
            eps, gg = _LYAPUNOV_WEIGHTS, g * g
            margins = 0.5 * (eps + gg - np.sqrt((eps - gg) ** 2 + 4.0 * top))
            best = int(np.argmax(margins))
            storage, note = p_c + eps[best] * p_i, LYAPUNOV_NOTE
            if not margins[best] >= lmi.EPS_STRICT:
                found = _riccati_storage(loop, g, eps[best], storage)
                if found is None:
                    return None
                storage, steps = found
                note = f"{RICCATI_NOTE} after {steps} Kleinman step{'s' if steps > 1 else ''}"
        except np.linalg.LinAlgError:
            return None
        assignment = {f"P{i + 1}": storage[i] for i in range(loop.n_modes)}
        verified = lmi._verified_margins(problem, assignment)
    margin = min(verified)
    if not margin >= lmi.EPS_STRICT:
        return None
    return lmi.LmiSolution(assignment=assignment, margin=margin, iterations=0, status="feasible",
                           t_achieved=-margin, constraint_margins=verified, notes=(note,))


def coupled_mode_check(loop: ClosedLoop, g) -> ClosedLoopReport:
    """Certify a closed loop at level g by coupled storage matrices
    P_1..P_N > 0 with, for every mode i,

        A_i^T P_i + P_i A_i + sum_j pi_ij P_j
        + g^{-2} P_i B1_i B1_i^T P_i + C_i^T C_i < 0,

    posed once as ``coupled_problem`` (the LMI ``bounded_real_block`` with
    corner -g^2 I, a Schur complement).  Three routes search the P_i, and
    any P_i verified from the expressions with margin at least
    ``lmi.EPS_STRICT`` is a complete certificate:

    * the coupled Lyapunov storage first, in closed form, which certifies
      when the level is not tight;
    * then Newton (Kleinman) steps from it on the coupled Riccati equations,
      the inequality above with C_i^T C_i + eps I in place of C_i^T C_i and
      equality, where eps is the Lyapunov storage's best weight
      (``_lyapunov_storage``): each step is one coupled Lyapunov solve, and
      the steps stop at the first iterate predicted to certify, or give up
      at one that is singular, not finite, or no better than the last;
    * otherwise the barrier engine, ``lmi.solve_feasibility``: it stops at
      the first Newton iterate whose margin exceeds ``lmi.EPS_STRICT``
      rather than growing the margin further.

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
