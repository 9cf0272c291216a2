"""Core state-space model for Markovian jump linear quantum systems.

All public matrices are real and act on quadrature variables ordered as
(x_1, p_1, x_2, p_2, ...) with x = a + a^dag and p = -i (a - a^dag).  A
single mode then carries the commutation block J = [[0, 1], [-1, 0]] and
canonical vacuum noise has the Hermitian Ito matrix I + i J, of which the
realizability layer uses the real skew part J.  Every matrix the program
stores is real valued.

All containers are frozen dataclasses holding read-only arrays, so they can
be shared freely across concurrent workers.

A symmetric matrix is written on its upper triangle, the coordinates
``np.triu_indices(n)``, wherever the program solves for one or propagates
one: ``fold_triangle`` and ``lyapunov_operator`` are the one statement of
those coordinates, which the coupled Lyapunov storage and the moment
propagation share; the LMI engine's parameter layout takes the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "J2",
    "block_j",
    "make_commutation_matrix",
    "TransitionRateMatrix",
    "as_rate_matrix",
    "JumpPlant",
    "ControllerMode",
    "Controller",
    "ClosedLoopMode",
    "ClosedLoop",
    "assemble_closed_loop",
    "fold_triangle",
    "lyapunov_operator",
]

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
J2.setflags(write=False)


def _freeze(a) -> np.ndarray:
    """Copy to a read-only float array."""
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


def _maxabs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def block_j(m: int) -> np.ndarray:
    """Block-diagonal of m/2 copies of J2 (m even, m >= 0)."""
    if m < 0 or m % 2:
        raise ValueError(f"block_j needs an even nonnegative dimension, got {m}")
    out = np.zeros((m, m))
    out[1::2, ::2] = -0.0  # the zeros np.kron(np.eye(m // 2), J2) forms as 0 * -1
    flat = out.reshape(-1)
    flat[1 :: 2 * m + 2] = 1.0   # (k, k + 1), k even
    flat[m :: 2 * m + 2] = -1.0  # (k + 1, k)
    return out


def make_commutation_matrix(n: int) -> np.ndarray:
    """The canonical commutation matrix diag(J, ..., J) of dimension n, read-only.

    Raises ``ValueError`` unless n is even and positive.
    """
    if n <= 0 or n % 2:
        raise ValueError(f"commutation matrix dimension must be even and positive, got {n}")
    return _freeze(block_j(n))


def _check_theta(name: str, theta, n: int) -> np.ndarray:
    """``theta`` as a read-only array; raises ``ValueError`` naming ``name``
    unless it is the canonical diag(J, ..., J) of dimension n."""
    theta = _freeze(theta)
    if n <= 0 or n % 2 or not np.array_equal(theta, block_j(n)):
        raise ValueError(f"{name} must be the canonical commutation matrix diag(J, ..., J) "
                         f"of dimension {n}")
    return theta


def fold_triangle(coef, rows, cols) -> np.ndarray:
    """Coefficients on the upper-triangle coordinates (rows, cols) =
    ``np.triu_indices(n)`` of a symmetric matrix, from ``coef`` (..., n, n),
    whose last two axes give the coefficient of every one of its n^2
    entries: entries (r, c) and (c, r) are one coordinate, so their
    coefficients add."""
    upper = coef[..., rows, cols]
    off = rows != cols
    upper[..., off] += coef[..., cols[off], rows[off]]
    return upper


def lyapunov_operator(a, rows, cols) -> np.ndarray:
    """The matrix of Z -> a Z + Z a^T on the upper-triangle coordinates
    (rows, cols) = ``np.triu_indices(n)`` of a symmetric Z, one per matrix of
    the stack ``a`` (..., n, n): entry [..., i, j] is the coefficient of
    Z[rows[j], cols[j]] in entry (rows[i], cols[i]) of the image."""
    eye = np.eye(a.shape[-1])
    # entry (r, c) of a Z + Z a^T reads Z[k, l] with coefficient
    # a[r, k] [c = l] + [r = k] a[c, l]
    coef = a[..., rows, :, None] * eye[cols, None, :] + eye[rows, :, None] * a[..., cols, None, :]
    return fold_triangle(coef, rows, cols)


@dataclass(frozen=True)
class TransitionRateMatrix:
    """Generator of the continuous-time Markov fault chain."""

    pi: np.ndarray

    def __post_init__(self):
        pi = _freeze(self.pi)
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
            raise ValueError(f"invalid transition-rate matrix: not square, shape {pi.shape}")
        non_finite = [(int(i), int(j)) for i, j in np.argwhere(~np.isfinite(pi))]
        if non_finite:
            raise ValueError(f"invalid transition-rate matrix: non-finite rates at entries "
                             f"{non_finite}")
        negative = [(int(i), int(j)) for i, j in np.argwhere(pi - np.diag(np.diag(pi)) < 0)]
        rows = [int(i) for i in np.flatnonzero(np.abs(pi.sum(axis=1)) > 1e-12)]
        faults = []
        if negative:
            faults.append(f"negative off-diagonal rates at entries {negative}")
        if rows:
            faults.append(f"row sums off zero by more than 1e-12 in rows {rows}")
        if faults:
            raise ValueError(f"invalid transition-rate matrix: {'; '.join(faults)}")

    @property
    def n_modes(self) -> int:
        return self.pi.shape[0]


def as_rate_matrix(rates) -> TransitionRateMatrix:
    """Use a TransitionRateMatrix as it is, or build one from a square array."""
    if isinstance(rates, TransitionRateMatrix):
        return rates
    return TransitionRateMatrix(rates)


def _check_shape(name: str, arr: np.ndarray, shape: tuple):
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")


@dataclass(frozen=True)
class JumpPlant:
    """Jump-linear plant: per-mode drift A_i with shared input/output blocks.

    dx = A_i x dt + B1 dw + B2 du,  dz = C1 x dt + D1 du,
    dy = C2 x dt + D2 dw.
    """

    a_modes: tuple
    b1: np.ndarray
    b2: np.ndarray
    c1: np.ndarray
    d1: np.ndarray
    c2: np.ndarray
    d2: np.ndarray
    theta: np.ndarray
    rates: TransitionRateMatrix

    def __post_init__(self):
        object.__setattr__(self, "a_modes", tuple(_freeze(a) for a in self.a_modes))
        for name in ("b1", "b2", "c1", "d1", "c2", "d2"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        if not self.a_modes:
            raise ValueError("need at least one mode")
        n = self.a_modes[0].shape[0]
        for k, a in enumerate(self.a_modes):
            _check_shape(f"A_{k + 1}", a, (n, n))
        object.__setattr__(self, "theta", _check_theta("plant theta", self.theta, n))
        _check_shape("B1", self.b1, (n, self.n_w))
        _check_shape("B2", self.b2, (n, self.n_u))
        _check_shape("C1", self.c1, (self.n_z, n))
        _check_shape("D1", self.d1, (self.n_z, self.n_u))
        _check_shape("C2", self.c2, (self.n_y, n))
        _check_shape("D2", self.d2, (self.n_y, self.n_w))
        if len(self.a_modes) != self.rates.n_modes:
            raise ValueError(
                f"{len(self.a_modes)} drift modes but rate matrix has {self.rates.n_modes}"
            )

    @property
    def n(self) -> int:
        return self.a_modes[0].shape[0]

    @property
    def n_w(self) -> int:
        return self.b1.shape[1]

    @property
    def n_u(self) -> int:
        return self.b2.shape[1]

    @property
    def n_z(self) -> int:
        return self.c1.shape[0]

    @property
    def n_y(self) -> int:
        return self.c2.shape[0]

    @property
    def n_modes(self) -> int:
        return len(self.a_modes)


@dataclass(frozen=True)
class ControllerMode:
    """One mode of the dynamic controller.

    d xi = A xi dt + B dy + E d nu,  du = C xi dt + D d nu.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d", "e"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        n_k = self.a.shape[0]
        _check_shape("controller A", self.a, (n_k, n_k))
        if self.b.shape[0] != n_k or self.c.shape[1] != n_k or self.e.shape[0] != n_k:
            raise ValueError("controller mode blocks disagree on the state dimension")
        if self.d.shape != (self.c.shape[0], self.e.shape[1]):
            raise ValueError("controller feedthrough D must be n_u x n_nu")


@dataclass(frozen=True)
class Controller:
    """Mode-switched controller with its own commutation matrix."""

    modes: tuple
    theta_k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("need at least one controller mode")
        first = self.modes[0]
        for k, m in enumerate(self.modes):
            for name in ("a", "b", "c", "d", "e"):
                if getattr(m, name).shape != getattr(first, name).shape:
                    raise ValueError(f"controller mode {k + 1} disagrees on {name} shape")
        object.__setattr__(self, "theta_k", _check_theta("controller theta_k", self.theta_k,
                                                         self.n_k))
        if self.n_nu % 2:
            raise ValueError("controller noise dimension must be even")

    @property
    def n_k(self) -> int:
        return self.modes[0].a.shape[0]

    @property
    def n_y(self) -> int:
        return self.modes[0].b.shape[1]

    @property
    def n_u(self) -> int:
        return self.modes[0].c.shape[0]

    @property
    def n_nu(self) -> int:
        return self.modes[0].e.shape[1]

    @property
    def n_modes(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class ClosedLoopMode:
    a: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for name in ("a", "b1", "b2", "c"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
        n = self.a.shape[0]
        _check_shape("closed-loop mode A", self.a, (n, n))
        _check_shape("closed-loop mode B1", self.b1, (n, self.b1.shape[-1]))
        _check_shape("closed-loop mode B2", self.b2, (n, self.b2.shape[-1]))
        _check_shape("closed-loop mode C", self.c, (self.c.shape[0], n))


@dataclass(frozen=True)
class ClosedLoop:
    """Plant-controller interconnection, one block system per mode."""

    modes: tuple
    rates: TransitionRateMatrix

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(self.modes) != self.rates.n_modes:
            raise ValueError("closed-loop mode count disagrees with the rate matrix")
        for k, m in enumerate(self.modes[1:], start=2):
            for name in ("a", "b1", "b2", "c"):
                _check_shape(f"closed-loop mode {k} {name.upper()}", getattr(m, name),
                             getattr(self.modes[0], name).shape)

    @property
    def n(self) -> int:
        return self.modes[0].a.shape[0]

    @property
    def n_w(self) -> int:
        return self.modes[0].b1.shape[1]

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def assemble_closed_loop(plant: JumpPlant, ctrl: Controller) -> ClosedLoop:
    """Interconnect plant and controller mode by mode.

    For mode i the closed-loop blocks are

        A~ = [[A_i, B2 C_i], [B_i C2, A_i^K]]
        B1~ = [B1; B_i D2],  B2~ = [B2 D_i; E_i],  C~ = [C1, D1 C_i],

    with the plant state stacked above the controller state.  The output's
    noise feedthrough D1 D_i is not kept: no energy the program computes
    reads it.
    """
    if plant.n_modes != ctrl.n_modes:
        raise ValueError(
            f"plant has {plant.n_modes} modes but controller has {ctrl.n_modes}"
        )
    if ctrl.n_y != plant.n_y:
        raise ValueError("controller input dimension must match plant output y")
    if ctrl.n_u != plant.n_u:
        raise ValueError("controller output dimension must match plant input u")
    modes = []
    for am, km in zip(plant.a_modes, ctrl.modes):
        a = np.block([[am, plant.b2 @ km.c], [km.b @ plant.c2, km.a]])
        b1 = np.vstack([plant.b1, km.b @ plant.d2])
        b2 = np.vstack([plant.b2 @ km.d, km.e])
        c = np.hstack([plant.c1, plant.d1 @ km.c])
        modes.append(ClosedLoopMode(a, b1, b2, c))
    return ClosedLoop(tuple(modes), plant.rates)
