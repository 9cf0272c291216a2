"""Seeded jump plants for the scaled-design workload.

``random_plant(seed, n, modes, k)`` draws a plant with stable-shifted random
drifts from ``SeedSequence([seed, n, modes, k])``.  Fresh draws differ a lot
in how hard they are for the solver, and the solver's verdicts on them vary,
so per-seed medians would measure the draw rather than the code.  The
workload therefore solves one fixed draw per grid point (family seed 0,
k = 0) in coordinates that change with every operation:
``rotated_plant(plant, seed, k)`` applies the orthogonal change of state
coordinates drawn from ``SeedSequence([seed, n, modes, k])``.  A change of
coordinates leaves feasibility, the attenuation level and the closed-loop
certificate unchanged, so every operation is the same design problem and
must reach the same verdict.  Plants are never filtered or redrawn; a plant
the solver calls infeasible would be a verdict that lowers the certified
fraction, not an error, and stays in the workload.
"""

from __future__ import annotations

import numpy as np

from qhinf.qmodel import JumpPlant, TransitionRateMatrix, make_commutation_matrix

STABILITY_SHIFT = 0.5  # every drift matrix has spectral abscissa -0.5
RATE_RANGE = (0.005, 0.02)  # off-diagonal fault rates
FAMILY_SEED = 0


def random_plant(seed: int, n: int, modes: int, k: int) -> JumpPlant:
    """Plant with stable-shifted random drifts, D1 = D2 = -I and canonical Theta.

    Every channel (disturbance, control, error output, measurement) has n
    quadratures; entries of B1, B2, C1 and C2 are N(0, 1/n).
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, modes, k]))
    a_modes = []
    for _ in range(modes):
        a = rng.normal(size=(n, n)) / np.sqrt(n)
        a -= (np.max(np.linalg.eigvals(a).real) + STABILITY_SHIFT) * np.eye(n)
        a_modes.append(a)
    pi = rng.uniform(*RATE_RANGE, size=(modes, modes))
    np.fill_diagonal(pi, 0.0)
    np.fill_diagonal(pi, -pi.sum(axis=1))
    scale = 1.0 / np.sqrt(n)
    b1, b2 = (scale * rng.normal(size=(n, n)) for _ in range(2))
    c1, c2 = (scale * rng.normal(size=(n, n)) for _ in range(2))
    return JumpPlant(
        a_modes=tuple(a_modes),
        b1=b1, b2=b2, c1=c1, d1=-np.eye(n), c2=c2, d2=-np.eye(n),
        theta=make_commutation_matrix(n),
        rates=TransitionRateMatrix(pi),
    )


def rotated_plant(base: JumpPlant, seed: int, k: int) -> JumpPlant:
    """``base`` in the seeded random orthogonal state coordinates number k."""
    n, modes = base.n, base.n_modes
    rng = np.random.default_rng(np.random.SeedSequence([seed, n, modes, k]))
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    return JumpPlant(
        a_modes=tuple(q @ a @ q.T for a in base.a_modes),
        b1=q @ base.b1, b2=q @ base.b2, c1=base.c1 @ q.T, d1=base.d1,
        c2=base.c2 @ q.T, d2=base.d2,
        theta=base.theta,
        rates=base.rates,
    )
