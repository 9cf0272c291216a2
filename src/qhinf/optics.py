"""Quantum-optics front end: OPO plants and controller realizations.

The plant is a three-mirror optical parametric oscillator whose pump
amplitude jumps between a few levels, giving a diagonal drift
diag(-k/2 - chi, -k/2 + chi) per pump level with shared mirror couplings.

A synthesized controller maps onto hardware as a static squeezer (constant
diagonal quadrature gain of unit determinant) feeding a dynamical squeezer
with three mirrors; ``realize_controller_optics`` inverts a diagonal
controller mode into those component parameters and
``controller_from_optics`` rebuilds the mode from them.  The mode's noise
follows the realizability layout: D = [I 0], and E = [E_out, E_extra] holds
the second mirror's channels (which also carry the output) and then the
third mirror's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmodel import ControllerMode, JumpPlant, as_rate_matrix, make_commutation_matrix
from .realizability import noise_channels

__all__ = [
    "OpticalRealization",
    "opo_plant",
    "static_squeezer_gain",
    "controller_from_optics",
    "realize_controller_optics",
    "controller_fit_report",
]


@dataclass(frozen=True)
class OpticalRealization:
    """Component parameters of one controller mode.

    ``kappa`` is the total decay of the dynamical squeezer and must equal
    kappa1 + kappa2 + kappa3; ``chi`` its pump coefficient.  The static
    squeezer is described by (kappa_prime, chi_prime) with
    |chi_prime| < kappa_prime / 2.
    """

    kappa: float
    kappa1: float
    kappa2: float
    kappa3: float
    chi: float
    kappa_prime: float
    chi_prime: float

    def __post_init__(self):
        parts = self.kappa1 + self.kappa2 + self.kappa3
        if abs(self.kappa - parts) > 1e-9:
            raise ValueError(
                f"total decay {self.kappa} does not match mirror sum {parts}"
            )
        for name in ("kappa1", "kappa2", "kappa3"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        _check_kappa_prime(self.kappa_prime)
        if abs(self.chi_prime) >= self.kappa_prime / 2.0:
            raise ValueError("static squeezer pump must satisfy |chi'| < kappa'/2")


def _check_kappa_prime(kappa_prime):
    if not (np.isfinite(kappa_prime) and kappa_prime > 0):
        raise ValueError(f"static squeezer kappa_prime must be finite and positive, got {kappa_prime}")


def opo_plant(kappa1: float, kappa2: float, chi_modes, rates) -> JumpPlant:
    """Two-mirror OPO with jumping pump coefficient as a JumpPlant.

    Mode i has drift diag(-k/2 - chi_i, -k/2 + chi_i) with k = kappa1 +
    kappa2; the first mirror carries the disturbance and measured output,
    the second the control input and the error output.  Each pump level
    must stay in the amplifier range |chi| < k/2.
    """
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("mirror decay rates must be positive")
    kappa = kappa1 + kappa2
    a_modes = []
    for chi in chi_modes:
        if abs(chi) >= kappa / 2.0:
            raise ValueError(
                f"pump coefficient {chi} outside the amplifier range |chi| < {kappa / 2.0}"
            )
        a_modes.append(np.diag([-kappa / 2.0 - chi, -kappa / 2.0 + chi]))
    eye = np.eye(2)
    return JumpPlant(
        a_modes=tuple(a_modes),
        b1=np.sqrt(kappa1) * eye,
        b2=np.sqrt(kappa2) * eye,
        c1=np.sqrt(kappa2) * eye,
        d1=-eye,
        c2=np.sqrt(kappa1) * eye,
        d2=-eye,
        theta=make_commutation_matrix(2),
        rates=as_rate_matrix(rates),
    )


def static_squeezer_gain(kappa_prime: float, chi_prime: float) -> np.ndarray:
    """Broadband input-output gain of a squeezer, diag((k-x)/(k+x), (k+x)/(k-x)).

    Here k = kappa_prime / 2 and x = chi_prime.  The two quadrature gains
    multiply to one for every valid pump, and swap when the pump sign flips.
    """
    _check_kappa_prime(kappa_prime)
    k = kappa_prime / 2.0
    if abs(chi_prime) >= k:
        raise ValueError("static squeezer pump must satisfy |chi'| < kappa'/2")
    return np.diag([(k - chi_prime) / (k + chi_prime), (k + chi_prime) / (k - chi_prime)])


def controller_from_optics(real: OpticalRealization) -> ControllerMode:
    """Controller mode realised by a static squeezer and a 3-mirror OPO.

    The measured plant output passes through the static squeezer into the
    first mirror; the remaining mirrors carry fresh vacuum noise, the second
    of which also forms the controller output with unit feedthrough on the
    first noise channel: D = [I 0] and E = [sqrt(kappa2) I, sqrt(kappa3) I].
    The measurement line carries positive squeezer gains (no pi phase
    shifter).
    """
    eye = np.eye(2)
    a = np.diag([-real.kappa / 2.0 - real.chi, -real.kappa / 2.0 + real.chi])
    gain = static_squeezer_gain(real.kappa_prime, real.chi_prime)
    b = np.sqrt(real.kappa1) * gain
    c = -np.sqrt(real.kappa2) * eye
    e = np.hstack([np.sqrt(real.kappa2) * eye, np.sqrt(real.kappa3) * eye])
    return ControllerMode(a, b, c, np.eye(2, 4), e)


def _diag_entries(m, label, tol=1e-9):
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2):
        raise ValueError(f"{label} must be 2x2")
    scale = 1.0 + float(np.max(np.abs(m)))
    if abs(m[0, 1]) > tol * scale or abs(m[1, 0]) > tol * scale:
        raise ValueError(f"{label} must be diagonal for the optical inversion")
    return float(m[0, 0]), float(m[1, 1])


def _scalar_multiple(m, label, tol=1e-9):
    d1, d2 = _diag_entries(m, label, tol)
    if abs(d1 - d2) > tol * (1.0 + abs(d1)):
        raise ValueError(f"{label} must be a scalar multiple of the identity")
    return d1


def realize_controller_optics(mode: ControllerMode,
                              kappa_prime: float = 10.0) -> OpticalRealization:
    """Invert a diagonal controller mode into optical parameters.

    The drift fixes the total decay and the pump through kappa = -trace(A)
    and chi = (A_22 - A_11)/2; the noise blocks E = [E_out, E_extra] fix
    kappa2 and kappa3 and the first mirror absorbs the rest of the decay
    budget.  The static squeezer pump is fitted to the gain ratio
    B_22 / B_11; the gain product constraint B_11 B_22 = kappa1 is checked
    by ``controller_fit_report`` rather than silently absorbed.  Raises
    ``ValueError`` for a mode whose feedthrough D is not [I 0], and names a
    phase-conjugating repair channel (E_extra diagonal with entries of
    opposite sign, as the augmentation gives a design whose defect no
    mirror repairs) before any mismatch within a noise block.
    """
    e_out, e_extra = noise_channels(mode)
    a11, a22 = _diag_entries(mode.a, "controller drift")
    b11, b22 = _diag_entries(mode.b, "measurement input matrix")
    if b11 * b22 <= 0:
        raise ValueError("measurement input gains must share a sign")
    kappa = -(a11 + a22)
    chi = (a22 - a11) / 2.0
    x1, x2 = _diag_entries(e_extra, "second noise block")
    if x1 * x2 < 0:
        # checked before E_out: a design that needs such a channel can also
        # have E_out entries that differ at rounding level, which is not
        # what keeps it from being built
        over = abs(x1 * x2) > kappa
        raise ValueError(
            f"the repair channel E_extra = diag({x1:.4g}, {x2:.4g}) is phase-conjugating "
            f"(quadrature gains of opposite sign), which no mirror provides"
            + (f"; its kappa3 = {abs(x1 * x2):.4g} also exceeds the decay budget "
               f"kappa = -tr A = {kappa:.4g}" if over else "")
        )
    kappa2 = _scalar_multiple(e_out, "first noise block") ** 2
    kappa3 = _scalar_multiple(e_extra, "second noise block") ** 2
    kappa1 = kappa - kappa2 - kappa3
    if kappa1 <= 0:
        raise ValueError(
            f"noise channels exhaust the decay budget (kappa1 = {kappa1:.4g} <= 0)"
        )
    ratio = abs(b22 / b11)
    r = np.sqrt(ratio)
    k = kappa_prime / 2.0
    chi_prime = k * (r - 1.0) / (r + 1.0)
    return OpticalRealization(
        kappa=kappa,
        kappa1=kappa1,
        kappa2=kappa2,
        kappa3=kappa3,
        chi=chi,
        kappa_prime=kappa_prime,
        chi_prime=chi_prime,
    )


def controller_fit_report(mode: ControllerMode, kappa_prime: float = 10.0):
    """Inversion of ``mode`` plus consistency gaps of the measurement-gain product.

    Returns (realization, report) where the report records the gain product
    B_11 B_22 against the decay-budget kappa1 and whether the gap stays
    within 2e-3, the precision of four-decimal tabulated matrices.
    """
    real = realize_controller_optics(mode, kappa_prime)
    b11, b22 = _diag_entries(mode.b, "measurement input matrix")
    product = b11 * b22
    gap = abs(product - real.kappa1)
    report = {
        "b_product": product,
        "kappa1_budget": real.kappa1,
        "product_gap": gap,
        "consistent": bool(gap <= 2e-3),
        "b_ratio": abs(b22 / b11),
        "chi_prime": real.chi_prime,
    }
    return real, report
