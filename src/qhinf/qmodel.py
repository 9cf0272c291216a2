"""Core state-space model for Markovian jump linear quantum systems.

All public matrices are real and act on quadrature variables ordered as
(x_1, p_1, x_2, p_2, ...) with x = a + a^dag and p = -i (a - a^dag).  A
single mode then carries the commutation block J = [[0, 1], [-1, 0]] and
canonical vacuum noise has the Hermitian Ito matrix I + i J, of which the
realizability layer uses the real skew part J.  Every matrix the program
stores is real valued.

All containers are frozen dataclasses holding read-only arrays, so they can
be shared freely across concurrent workers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "J2",
    "block_j",
    "CommutationMatrix",
    "make_commutation_matrix",
    "TransitionRateMatrix",
    "GeneratorReport",
    "validate_generator",
    "as_rate_matrix",
    "JumpPlant",
    "ControllerMode",
    "Controller",
    "ClosedLoopMode",
    "ClosedLoop",
    "assemble_closed_loop",
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


@dataclass(frozen=True)
class CommutationMatrix:
    """Commutation matrix Theta of a vector of self-adjoint variables.

    ``canonical`` (null_dim 0) is a block diagonal of J2 blocks; ``degenerate``
    carries a leading ``null_dim x null_dim`` zero block followed by J2
    blocks.  ``theta`` is built from this pattern once (n, kind, null_dim)
    are validated.
    """

    n: int
    kind: str
    null_dim: int
    theta: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        n, null_dim = self.n, self.null_dim
        if n <= 0 or n % 2:
            raise ValueError(f"commutation matrix dimension must be even and positive, got {n}")
        if self.kind not in ("canonical", "degenerate"):
            raise ValueError(f"unknown commutation matrix kind {self.kind!r}")
        if self.kind == "canonical" and null_dim != 0:
            raise ValueError("canonical kind does not take a null block size")
        if self.kind == "degenerate" and (not 0 < null_dim <= n or (n - null_dim) % 2):
            raise ValueError(
                f"invalid null block size {null_dim} for dimension {n}: "
                "need 0 < null_dim <= n and n - null_dim even"
            )
        theta = np.zeros((n, n))
        theta[null_dim:, null_dim:] = block_j(n - null_dim)
        object.__setattr__(self, "theta", _freeze(theta))

    @property
    def is_canonical(self) -> bool:
        return self.kind == "canonical"


def make_commutation_matrix(
    n: int, kind: str = "canonical", null_dim: int | None = None
) -> CommutationMatrix:
    """Build a canonical or degenerate-canonical commutation matrix.

    Parameters
    ----------
    n:
        System dimension; must be even and positive.
    kind:
        ``"canonical"`` or ``"degenerate"``.
    null_dim:
        Size of the leading zero block for the degenerate kind; must satisfy
        0 < null_dim <= n with n - null_dim even.  ``None`` means no null
        block and is rejected for the degenerate kind.
    """
    if null_dim is None:
        if kind == "degenerate":
            raise ValueError("degenerate kind requires the null block size")
        null_dim = 0
    return CommutationMatrix(n, kind, null_dim)


@dataclass(frozen=True)
class GeneratorReport:
    """Result of checking a candidate transition-rate matrix."""

    ok: bool
    violations: tuple = ()


def validate_generator(rates) -> GeneratorReport:
    """Check generator structure: nonnegative off-diagonals, zero row sums.

    Accepts a raw square array or a TransitionRateMatrix.  Row sums are
    allowed to deviate from zero by at most 1e-12.
    """
    pi = rates.pi if isinstance(rates, TransitionRateMatrix) else np.asarray(rates, dtype=float)
    if pi.ndim != 2 or pi.shape[0] != pi.shape[1]:
        return GeneratorReport(False, (("not_square", -1, -1, 0.0),))
    violations = []
    n = pi.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j and pi[i, j] < 0:
                violations.append(("negative_offdiag", i, j, float(pi[i, j])))
        row_sum = float(np.sum(pi[i]))
        if abs(row_sum) > 1e-12:
            violations.append(("row_sum", i, -1, row_sum))
    return GeneratorReport(not violations, tuple(violations))


@dataclass(frozen=True)
class TransitionRateMatrix:
    """Generator of the continuous-time Markov fault chain."""

    pi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "pi", _freeze(self.pi))
        report = validate_generator(self.pi)
        if not report.ok:
            raise ValueError(f"invalid transition-rate matrix: {report.violations}")

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
    theta: CommutationMatrix
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
        if self.theta.n != n:
            raise ValueError("commutation matrix dimension inconsistent with A")
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
    theta_k: CommutationMatrix

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("need at least one controller mode")
        first = self.modes[0]
        for k, m in enumerate(self.modes):
            for name in ("a", "b", "c", "d", "e"):
                if getattr(m, name).shape != getattr(first, name).shape:
                    raise ValueError(f"controller mode {k + 1} disagrees on {name} shape")
        if self.theta_k.n != self.n_k:
            raise ValueError("controller commutation matrix dimension mismatch")
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
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b1", "b2", "c", "d"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


@dataclass(frozen=True)
class ClosedLoop:
    """Plant-controller interconnection, one block system per mode."""

    modes: tuple
    rates: TransitionRateMatrix

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(self.modes) != self.rates.n_modes:
            raise ValueError("closed-loop mode count disagrees with the rate matrix")

    @property
    def n(self) -> int:
        return self.modes[0].a.shape[0]

    @property
    def n_w(self) -> int:
        return self.modes[0].b1.shape[1]

    @property
    def n_nu(self) -> int:
        return self.modes[0].b2.shape[1]

    @property
    def n_modes(self) -> int:
        return len(self.modes)


def assemble_closed_loop(plant: JumpPlant, ctrl: Controller) -> ClosedLoop:
    """Interconnect plant and controller mode by mode.

    For mode i the closed-loop blocks are

        A~ = [[A_i, B2 C_i], [B_i C2, A_i^K]]
        B1~ = [B1; B_i D2],  B2~ = [B2 D_i; E_i],
        C~ = [C1, D1 C_i],   D~ = D1 D_i,

    with the plant state stacked above the controller state.
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
        d = plant.d1 @ km.d
        modes.append(ClosedLoopMode(a, b1, b2, c, d))
    return ClosedLoop(tuple(modes), plant.rates)
