"""Physical realizability checks and noise augmentation for jump systems.

A set of real quadrature matrices corresponds to an open quantum system iff
it preserves the canonical commutation relations and routes the declared
output through matching input channels.  Both conditions are algebraic:

* commutation preservation:  A Theta + Theta A^T + B T B^T = 0, where T is
  the skew part of the input Ito matrix (checked per mode for jump systems,
  since only the drift switches),
* output compatibility:  the input columns carrying the output feedthrough
  must equal Theta C^T diag(J, ..., J).

A controller mode states its noise layout through its feedthrough: with n_u
outputs and n_nu noise channels, D = [I 0] (``np.eye(n_u, n_nu)``) routes
the output through the first n_u noise channels, E = [E_out, E_extra].
Controllers produced by the synthesis layer have no noise channels and
violate both conditions; the augmentation below adds fresh vacuum-noise
channels in that layout that repair them exactly: E_out is forced by the
output condition, and the real Schur form of the remaining skew defect
splits it into planes, each of which gives one pair of repair channels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import linalg

from .qmodel import Controller, ControllerMode, _maxabs, block_j

__all__ = [
    "RealizabilityError",
    "RealizabilityReport",
    "cr_residual",
    "output_condition_residual",
    "check_controller_realizability",
    "factor_skew_canonical",
    "noise_channels",
    "augment_controller",
    "augment_jump_controller",
]

DEFAULT_TOL = 1e-9


class RealizabilityError(RuntimeError):
    """The noise augmentation could not repair the commutation defect."""


def cr_residual(a, b, theta, t_im) -> np.ndarray:
    """Commutation-preservation defect A Theta + Theta A^T + B T_im B^T.

    The result is skew-symmetric by construction and vanishes exactly when
    the system preserves the commutation relations.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    th = np.asarray(theta, dtype=float)
    t_im = np.asarray(t_im, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or th.shape != (n, n):
        raise ValueError("drift and commutation matrix must be square of equal size")
    if b.shape[0] != n or t_im.shape != (b.shape[1], b.shape[1]):
        raise ValueError("input matrix and noise skew part have inconsistent shapes")
    return a @ th + th @ a.T + b @ t_im @ b.T


def output_condition_residual(b, c, theta) -> np.ndarray:
    """Output-channel defect B [I; 0] - Theta C^T diag(J, ..., J).

    The first n_y input columns of ``b`` are taken to carry the output
    feedthrough; ``c`` is the corresponding output matrix.
    """
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    th = np.asarray(theta, dtype=float)
    n_y = c.shape[0]
    if n_y % 2:
        raise ValueError("output dimension must be even")
    if b.shape[1] < n_y:
        raise ValueError("input matrix has fewer columns than the output dimension")
    if b.shape[0] != th.shape[0] or c.shape[1] != th.shape[0]:
        raise ValueError("state dimensions disagree")
    return b[:, :n_y] - th @ c.T @ block_j(n_y)


@dataclass(frozen=True)
class RealizabilityReport:
    """Per-mode residual magnitudes and the verdict at a stated tolerance."""

    cr_residuals: tuple
    output_residuals: tuple
    tol: float

    @property
    def realizable(self) -> bool:
        return all(r <= self.tol for r in self.cr_residuals) and all(
            r <= self.tol for r in self.output_residuals
        )

    def worst(self) -> float:
        return max(self.cr_residuals + self.output_residuals)


def check_controller_realizability(ctrl: Controller, tol: float = DEFAULT_TOL):
    """Realizability report for a mode-switched controller.

    The combined input matrix of mode i is [B_i, E_i] over (measurement,
    noise) channels with the canonical vacuum Ito matrix on every channel.
    The output defect of mode i evaluates the output condition on the noise
    channels the layout D = [I 0] selects, E_i [I 0]^T, and adds
    max|D_i - [I 0]|, so a mode whose feedthrough routes its output any
    other way fails.  A mode with fewer than n_u noise channels leaves the
    missing output columns zero.  Raises ``ValueError`` unless ``tol`` is
    finite and nonnegative.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    t_im = block_j(ctrl.n_y + ctrl.n_nu)
    layout = np.eye(ctrl.n_u, ctrl.n_nu)
    cr, out = [], []
    for mode in ctrl.modes:
        b_full = np.hstack([mode.b, mode.e])
        cr.append(_maxabs(cr_residual(mode.a, b_full, ctrl.theta_k, t_im)))
        routed = output_condition_residual(mode.e @ layout.T, mode.c, ctrl.theta_k)
        out.append(_maxabs(routed) + _maxabs(mode.d - layout))
    return RealizabilityReport(tuple(cr), tuple(out), tol)


def noise_channels(mode: ControllerMode):
    """(E_out, E_extra): the noise columns of ``mode`` that carry its output
    and the rest.

    Raises ``ValueError`` unless the feedthrough is D = [I 0] with at least
    n_u noise channels, the layout ``augment_controller`` produces.
    """
    n_u, n_nu = mode.d.shape
    if n_nu < n_u or not np.array_equal(mode.d, np.eye(n_u, n_nu)):
        raise ValueError(
            f"controller feedthrough D must be [I 0] with I of size {n_u}, "
            f"got the {n_u} x {n_nu} matrix {mode.d.tolist()}"
        )
    return mode.e[:, :n_u], mode.e[:, n_u:]


def factor_skew_canonical(w) -> np.ndarray:
    """Factor a real skew-symmetric W as E J_blk E^T = -W.

    The real Schur form W = Z T Z^T of a skew-symmetric matrix is block
    diagonal with 2x2 blocks c J (and zeros), so W decomposes into orthogonal
    planes (z_k, z_k+1) on which it acts as c J.  Each plane contributes the
    columns sqrt(|c|) (z_k, -sign(c) z_k+1) to E.  Planes with |c| <= 1e-12
    are dropped, so the factor has the minimal number of columns.

    A W made of 2x2 blocks c J on the diagonal (the common case for
    decoupled quadratures) is its own Schur form, so its columns stay
    coordinate-aligned: W = c J yields exactly sqrt(|c|) I for c < 0 and
    sqrt(c) diag(1, -1) for c > 0.  Raises ``RealizabilityError`` when the
    factor misses -W by more than 1e-10 relative to max|W|.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[0]
    if w.shape != (n, n):
        raise ValueError("need a square matrix")
    scale = 1.0 + _maxabs(w)
    if _maxabs(w + w.T) > 1e-10 * scale:
        raise ValueError("matrix is not skew-symmetric")
    w = 0.5 * (w - w.T)
    t, z = linalg.schur(w, output="real")
    k = np.flatnonzero(np.diag(t, -1))  # first index of each 2x2 block c J
    k = k[np.abs(t[k, k + 1]) > 1e-12]
    root = np.sqrt(np.abs(t[k, k + 1]))
    pairs = [root * z[:, k], -np.copysign(root, t[k, k + 1]) * z[:, k + 1]]
    e = np.stack(pairs, axis=2).reshape(n, 2 * k.size)  # columns paired per plane
    residual = _maxabs(e @ block_j(e.shape[1]) @ e.T + w)
    if residual > 1e-10 * scale:
        raise RealizabilityError(
            f"skew factorisation misses the residual by {residual:.3e} "
            f"(tolerance {1e-10 * scale:.3e})"
        )
    return e


def augment_controller(mode: ControllerMode, theta_k) -> ControllerMode:
    """``mode`` with noise channels that repair its realizability.

    Given controller drift A (n_k x n_k), measurement input B (n_k x n_y)
    and output matrix C (n_u x n_k) with canonical ``theta_k``, the mode's
    own D and E are replaced:

    1. the first noise block is forced by the output condition,
       E_out = Theta_K C^T diag(J), and the feedthrough is D = [I, 0];
    2. the remaining commutation defect
       W = A Theta + Theta A^T + B J B^T + E_out J E_out^T
       is repaired by E_extra with E_extra J E_extra^T = -W.

    The result has E = [E_out, E_extra] and passes the realizability check
    to 1e-9 on exact arithmetic; ``RealizabilityError`` is raised when
    rounding (large controller gains) leaves a commutation defect above that
    absolute tolerance.
    """
    n_u = mode.c.shape[0]
    if n_u % 2:
        raise ValueError("controller output dimension must be even")
    e_out = theta_k @ mode.c.T @ block_j(n_u)
    n_y = mode.b.shape[1]
    w = cr_residual(mode.a, np.hstack([mode.b, e_out]), theta_k, block_j(n_y + n_u))
    e = np.hstack([e_out, factor_skew_canonical(w)])
    n_nu = e.shape[1]
    final = _maxabs(cr_residual(mode.a, np.hstack([mode.b, e]), theta_k, block_j(n_y + n_nu)))
    if final > DEFAULT_TOL:
        raise RealizabilityError(
            f"augmentation left a commutation defect {final:.3e} "
            f"above the tolerance {DEFAULT_TOL:g}"
        )
    return ControllerMode(mode.a, mode.b, mode.c, np.eye(n_u, n_nu), e)


def augment_jump_controller(ctrl: Controller) -> Controller:
    """Augment every mode of a controller with realizability noise.

    Modes may need a different number of repair channels; their D and E are
    zero-padded on the right so all modes share one noise dimension.  Each
    count is even (n_u output channels plus repair channels in pairs), so
    the shared one is too.
    """
    modes = [augment_controller(m, ctrl.theta_k) for m in ctrl.modes]
    n_nu = max(m.e.shape[1] for m in modes)

    def pad(x):
        return np.pad(x, ((0, 0), (0, n_nu - x.shape[1])))

    return Controller(tuple(replace(m, d=pad(m.d), e=pad(m.e)) for m in modes), ctrl.theta_k)
