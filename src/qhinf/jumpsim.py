"""Fault-path sampling and closed-loop moment propagation.

The fault process is a continuous-time Markov chain; along each sampled
path the closed-loop mean and symmetrised second moment obey linear ODEs

    d<eta>/dt = A~ <eta> + B1~ beta(t)
    dQ/dt     = A~ Q + Q A~^T + <eta> beta^T B1~^T + B1~ beta <eta>^T
                + B1~ B1~^T + B2~ B2~^T

and the output energy integral accumulates Tr(C~^T C~ Q).  Each probe
signal beta = d u_1 is the output of a waveform oscillator u' = W u, so
with the oscillator stacked onto the state these equations are autonomous
and linear between jumps (Costa, Fragoso & Todorov, *Continuous-Time Markov
Jump Linear Systems*, 2013); ``propagate_moments`` advances them with one
matrix exponential per fault segment, exactly, with no step size.  The
second moment is symmetric, so it is carried on its upper triangle, the
coordinates of ``qmodel.lyapunov_operator``, and is symmetric by
construction when it is read out.  The whole trajectory is allocated once,
one column per sample, and a segment's samples are filled in place by
doubling, in a logarithmic number of matrix products rather than one Python
step per grid point.  Every later pass over the samples runs with the sample
index innermost: the finiteness test on the state, then the covariance
screen, a column Cholesky factorisation, on an (n, n, T) stack of the second
moments.  Moments that overflow raise ``ArithmeticError`` at the first
non-finite sample.

``estimate_attenuation`` probes the closed-loop gain with a finite family
of disturbances, each run over the whole horizon t_end.  It is a
falsification probe: it can reveal a gain above the certified level but can
never prove a bound.  Its default path needs only the mean response, which
it integrates exactly on each fault segment with one batched block
exponential (Van Loan, IEEE TAC 1978) for the whole disturbance family,
scaled and doubled by the closed-loop drift of that segment; the full moment
runs serve as its cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .qmodel import ClosedLoop, as_rate_matrix, fold_triangle, lyapunov_operator

__all__ = [
    "MarkovPath",
    "path_seed",
    "sample_markov_path",
    "MomentTrajectory",
    "propagate_moments",
    "MAX_GRID_STEPS",
    "Disturbance",
    "default_disturbance_family",
    "AttenuationEstimate",
    "estimate_attenuation",
]


@dataclass(frozen=True)
class MarkovPath:
    """One realisation of the fault chain on [0, t_end].

    Modes are integer labels from 1; the mode sequence is one longer than
    the jump times and consecutive modes always differ.
    """

    t_end: float
    jump_times: tuple
    modes: tuple

    def __post_init__(self):
        if not (np.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError(f"horizon must be finite and positive, got {self.t_end}")
        if len(self.modes) != len(self.jump_times) + 1:
            raise ValueError("mode sequence must be one longer than the jump times")
        times = np.asarray(self.jump_times, dtype=float)
        if times.size and (np.any(np.diff(times) <= 0) or times[0] <= 0 or times[-1] >= self.t_end):
            raise ValueError("jump times must be strictly increasing inside (0, t_end)")
        bad = [m for m in self.modes if not isinstance(m, (int, np.integer)) or m < 1]
        if bad:
            raise ValueError(f"mode labels must be integers >= 1, got {bad}")
        for a, b in zip(self.modes, self.modes[1:]):
            if a == b:
                raise ValueError("consecutive modes must differ")

    def segments(self):
        """Yield (t0, t1, mode_index) with 0-based mode indices."""
        bounds = [0.0, *self.jump_times, self.t_end]
        for k, mode in enumerate(self.modes):
            yield bounds[k], bounds[k + 1], mode - 1


def path_seed(seed: int, p: int) -> int:
    """Seed of path p drawn from a master seed, independent of evaluation order."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


def sample_markov_path(rates, t_end: float, seed: int = 0) -> MarkovPath:
    """Sample one fault path from mode 1: exponential holding times, rate-ratio jumps.

    In mode j the holding time is exponential with rate -pi_jj and the next
    mode k != j is drawn with probability pi_jk / (-pi_jj).  The draw is a
    pure function of the seed.
    """
    pi = as_rate_matrix(rates).pi
    if not (np.isfinite(t_end) and t_end > 0):
        raise ValueError(f"horizon must be finite and positive, got {t_end}")
    n_modes = pi.shape[0]
    rng = np.random.default_rng(seed)
    mode = 1
    t = 0.0
    jump_times: list[float] = []
    modes = [mode]
    while True:
        exit_rate = -pi[mode - 1, mode - 1]
        if exit_rate <= 0.0:
            break  # absorbing mode
        t += rng.exponential(1.0 / exit_rate)
        if t >= t_end:
            break
        probs = np.clip(pi[mode - 1], 0.0, None)
        probs[mode - 1] = 0.0
        probs = probs / probs.sum()
        mode = int(rng.choice(n_modes, p=probs)) + 1
        jump_times.append(t)
        modes.append(mode)
    return MarkovPath(float(t_end), tuple(jump_times), tuple(modes))


@dataclass(frozen=True)
class MomentTrajectory:
    """Mean, second moment and energy integrals on a time grid."""

    times: np.ndarray
    mean: np.ndarray            # (T, n)
    second_moment: np.ndarray   # (T, n, n)
    z_energy: np.ndarray        # cumulative output energy
    w_energy: np.ndarray        # cumulative disturbance energy

    @property
    def output_energy(self) -> float:
        return float(self.z_energy[-1])

    @property
    def input_energy(self) -> float:
        return float(self.w_energy[-1])


_DOMINANCE_TOL = 1e-8

# Cap on t_end / dt in ``propagate_moments``: every sample is stored, so a
# finer grid would exhaust memory before it ran.
MAX_GRID_STEPS = 10**6


def _dominance_tolerance(q):
    """1e-8 max(1, max |Q_t|) for each sample of the (n, n, T) stack ``q``
    (a scalar for one n x n matrix): the least covariance eigenvalue that
    the validate check accepts, scaled so that rounding at large moments is
    not mistaken for a lost dominance."""
    scale = np.maximum(np.max(q, axis=(0, 1)), -np.min(q, axis=(0, 1)))
    return _DOMINANCE_TOL * np.maximum(1.0, scale)


def _screen_dominance(q, mean):
    """Raise ``ArithmeticError`` when a covariance q_t - m_t m_t^T of the
    (n, n, T) stack ``q`` and the (n, T) means has its least eigenvalue below
    -tol_t = -1e-8 max(1, max |q_t|), or when a sample is not finite.

    A column Cholesky factorisation of q_t - m_t m_t^T + tol_t I, vectorised
    over the samples, screens the whole stack: each column's pivot must be
    positive and finite before its Schur complement is taken.  Only when a
    pivot fails does eigvalsh decide, so the screen accepts nothing that the
    eigenvalue test would reject, up to rounding.
    """
    n = len(q)
    diag = np.arange(n)
    a = mean[:, None] * mean[None]
    np.subtract(q, a, out=a)
    a[diag, diag] += _dominance_tolerance(q)
    for j in range(n):
        pivot = a[j, j]
        if not 0.0 < pivot.min() <= pivot.max() < np.inf:  # NaN fails too
            break
        a[j + 1:, j] /= pivot
        a[j + 1:, j + 1:] -= a[j + 1:, j, None] * a[j, None, j + 1:]
    else:
        return
    cov = q - mean[:, None] * mean[None]
    if not np.all(np.isfinite(cov)):
        raise ArithmeticError("second moment is not finite")
    least = np.linalg.eigvalsh(np.moveaxis(cov, 2, 0))[:, 0]
    lost = least < -_dominance_tolerance(q)
    if np.any(lost):
        raise ArithmeticError("second moment lost dominance over the mean "
                              f"(least covariance eigenvalue {least[lost].min():.3e})")


def propagate_moments(
    closed_loop: ClosedLoop,
    path: MarkovPath,
    beta,
    mean0,
    q0,
    dt: float,
    validate: bool = True,
) -> MomentTrajectory:
    """Propagate the closed-loop moments exactly along one fault path.

    ``beta`` is a ``Disturbance`` or None for zero input; both noise inputs
    are in canonical vacuum, with identity covariance.  The state z = (eta, u)
    stacks the closed-loop state with its disturbance's waveform oscillator,
    so that z' = M z and Z = E[z z^T] obeys Z' = M Z + Z M^T + N.  Together
    with the energy integrals this is one autonomous linear ODE per mode,
    whose exponential Phi over one grid step of a segment is taken once; the
    grid splits each segment into ceil(span / dt) equal steps and only sets
    where the trajectory is sampled.  The state is s = (z, the upper
    triangle of Z, output energy, input energy, 1), k + k(k+1)/2 + 3 rows
    for k = n + 2; its generator is block diagonal between z and the rest,
    with ``qmodel.lyapunov_operator`` of M as its triangle block.  Both
    blocks still advance in one product per pass: on these grids a second
    product per pass costs more than the zero blocks it would skip.  The
    samples s_j = Phi^j s_0 of a segment are filled by doubling: with
    s_1 .. s_f known and Phi^f at hand, one product with Phi^f gives
    s_{f+1} .. s_{2f}, and Phi^f is then squared, so a segment of N steps
    costs ceil(log2 N) matrix products.  The segment step counts are known
    from the path, so the whole trajectory is allocated once, one column per
    sample, and each product writes its columns in place.  ``ValueError`` is
    raised before any allocation when t_end / dt exceeds ``MAX_GRID_STEPS``
    or the path visits a mode label above the loop's mode count.

    The returned fields have the sample index first; the mean and the
    energies are views of that storage, and the second moment a view of an
    (n, n, T) stack filled from the triangle, so it is exactly symmetric.
    The initial moments must be finite, and q0 symmetric to
    1e-12 (1 + max |q0|), as only its upper triangle is read.  Overflow
    warnings are silenced during the propagation, and ``ArithmeticError``
    names the first sample time at which the moments are not finite, with
    or without ``validate``.  With ``validate`` the covariances
    Q - <eta><eta>^T must also stay positive semidefinite, to
    1e-8 max(1, max |Q|) of each sample on their least eigenvalue: initial
    moments that fail raise ``ValueError``, a sample that fails raises
    ``ArithmeticError``.  A column Cholesky factorisation vectorised over
    the samples screens them and eigvalsh decides only when that screen
    fails.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"step size must be finite and positive, got {dt}")
    if path.t_end / dt > MAX_GRID_STEPS:
        raise ValueError(f"step size {dt:g} samples the horizon {path.t_end:g} at "
                         f"{path.t_end / dt:.3g} points, above the cap of {MAX_GRID_STEPS}")
    if max(path.modes) > closed_loop.n_modes:
        raise ValueError(f"path visits mode {max(path.modes)}, but the closed loop has "
                         f"{closed_loop.n_modes} modes")
    n = closed_loop.n
    mean = np.array(mean0, dtype=float).reshape(n)
    q = np.array(q0, dtype=float)
    if q.shape != (n, n):
        raise ValueError("second moment must be n x n")
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(q))):
        raise ValueError("initial moments must be finite")
    if np.max(np.abs(q - q.T)) > 1e-12 * (1.0 + np.max(np.abs(q))):
        raise ValueError("initial second moment must be symmetric")
    if np.linalg.eigvalsh(0.5 * (q + q.T))[0] < -1e-10:
        raise ValueError("initial second moment must be positive semidefinite")
    if validate:
        least = np.linalg.eigvalsh(q - np.outer(mean, mean))[0]
        if least < -_dominance_tolerance(q):
            raise ValueError("initial second moment must dominate the outer product of the "
                             f"initial mean (least covariance eigenvalue {least:.3e})")
    if beta is None:
        beta = Disturbance("none", np.zeros(closed_loop.n_w), "step")
    if not isinstance(beta, Disturbance):
        raise ValueError(f"disturbance must be a Disturbance or None, got {type(beta).__name__}")
    direction = beta.direction
    (osc,), (u,) = _oscillators([beta])

    # s = (z, the upper triangle of Z, output energy, input energy, 1), one
    # column per sample
    k = n + 2
    rows, cols = np.triu_indices(k)
    kt = rows.size
    gen = np.zeros((k + kt + 3, k + kt + 3))
    gen[k + kt + 1, k + np.flatnonzero(rows == cols)[n]] = direction @ direction  # |d|^2 u_1^2
    m = np.zeros((k, k))
    m[n:, n:] = osc
    noise = np.zeros((k, k))
    c_gram = np.zeros((k, k))

    segments = list(path.segments())
    steps = [max(1, int(np.ceil((t1 - t0) / dt))) for t0, t1, _ in segments]
    total = 1 + sum(steps)
    times = np.empty(total)
    states = np.empty((k + kt + 3, total))
    times[0] = 0.0
    z = np.concatenate([mean, u])
    zz = np.outer(z, z)
    zz[:n, :n] = q
    states[:, 0] = np.concatenate([z, zz[rows, cols], [0.0, 0.0, 1.0]])
    first = 1  # column of the segment's first sample
    with np.errstate(over="ignore", invalid="ignore"):
        for (t0, t1, mode_idx), count in zip(segments, steps):
            mode = closed_loop.modes[mode_idx]
            m[:n, :n] = mode.a
            m[:n, n] = mode.b1 @ direction
            noise[:n, :n] = mode.b1 @ mode.b1.T + mode.b2 @ mode.b2.T
            c_gram[:n, :n] = mode.c.T @ mode.c
            gen[:k, :k] = m
            gen[k:k + kt, k:k + kt] = lyapunov_operator(m, rows, cols)
            gen[k:k + kt, -1] = noise[rows, cols]
            gen[k + kt, k:k + kt] = fold_triangle(c_gram, rows, cols)
            phi = sla.expm(gen * ((t1 - t0) / count))
            np.matmul(phi, states[:, first - 1], out=states[:, first])
            # columns first .. first + filled - 1 hold Phi^1 s .. Phi^filled s,
            # and phi is Phi^filled
            filled = 1
            while filled < count:
                take = min(filled, count - filled)
                np.matmul(phi, states[:, first:first + take],
                          out=states[:, first + filled:first + filled + take])
                filled += take
                if filled < count:
                    phi = phi @ phi
            times[first:first + count] = np.linspace(t0, t1, count + 1)[1:]
            first += count

    if not np.all(np.isfinite(states)):
        bad = ~np.all(np.isfinite(states), axis=0)
        raise ArithmeticError(f"moments are not finite from t = {times[np.argmax(bad)]:.6g}")
    mean = states[:n]
    # Z[:n, :n] as (n, n, T): its upper triangle is the coordinates with c < n
    inner = cols < n
    q = np.empty((n, n, total))
    q[rows[inner], cols[inner]] = q[cols[inner], rows[inner]] = states[k:k + kt][inner]
    if validate:
        _screen_dominance(q, mean)
    return MomentTrajectory(times, mean.T, np.moveaxis(q, 2, 0), states[k + kt],
                            states[k + kt + 1])


@dataclass(frozen=True)
class Disturbance:
    """One probe signal: a waveform along a fixed unit direction."""

    label: str
    direction: np.ndarray
    kind: str           # "sin" or "step"
    omega: float = 0.0

    def __post_init__(self):
        if self.kind not in ("sin", "step"):
            raise ValueError(f"disturbance kind must be 'sin' or 'step', got {self.kind!r}")
        if self.kind == "sin" and not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"sinusoid frequency must be finite and positive, got {self.omega!r}")


# Frequency grid of the default disturbance family: N_FREQ sinusoids
# log-spaced over [W_LO, W_HI] rad/s.
N_FREQ = 20
W_LO, W_HI = 1e-2, 1e2


def default_disturbance_family(n_w: int):
    """N_FREQ sinusoids on a log-spaced grid over [W_LO, W_HI] plus one step
    input.

    Sinusoid directions cycle through the disturbance channels; the step is
    spread evenly over all channels.
    """
    family = []
    for k, omega in enumerate(np.logspace(np.log10(W_LO), np.log10(W_HI), N_FREQ)):
        direction = np.zeros(n_w)
        direction[k % n_w] = 1.0
        family.append(Disturbance(f"sin:{omega:.4g}", direction, "sin", float(omega)))
    step_dir = np.ones(n_w) / np.sqrt(n_w)
    family.append(Disturbance("step", step_dir, "step"))
    return family


@dataclass(frozen=True)
class AttenuationEstimate:
    """Empirical gain probe against the squared attenuation level.

    The certificate bounds the expected energy ratio over fault paths, not
    the ratio of each path, so ``passed`` compares the largest per-probe
    mean over paths, ``mean_ratio``, with g^2; ``max_ratio`` is the largest
    single-path ratio, reported beside it.
    """

    g: float
    labels: tuple
    ratios: np.ndarray  # (n_paths, n_disturbances)

    @property
    def max_ratio(self) -> float:
        return float(np.max(self.ratios))

    @property
    def mean_ratio(self) -> float:
        return float(np.max(np.mean(self.ratios, axis=0)))

    @property
    def passed(self) -> bool:
        return self.mean_ratio < self.g * self.g


def _segment_maps(m, q, h, n):
    """Transitions e^{M h} and output Gramians int_0^h e^{M^T s} Q e^{M s} ds.

    ``m`` stacks one drift per probe, all over the segment's duration ``h``
    and all sharing the closed-loop block A_i = m[:, :n, :n].  Van Loan's
    block exponential is taken at h / 2^s with ||A_i||_1 h / 2^s <= 1 and
    then doubled s times, W <- W + Phi^T W Phi and Phi <- Phi^2: a single
    block exponential over a holding time of tens of seconds overflows in
    its e^{-M^T h} block.  The waveform blocks are rotations, which cannot
    overflow, so their frequencies do not add doublings.
    """
    n_x = m.shape[-1]
    reach = float(np.linalg.norm(m[0, :n, :n], 1) * h)
    s = int(np.ceil(np.log2(reach))) if reach > 1.0 else 0
    block = np.zeros((len(m), 2 * n_x, 2 * n_x))
    block[:, :n_x, :n_x] = -np.swapaxes(m, 1, 2)
    block[:, :n_x, n_x:] = q
    block[:, n_x:, n_x:] = m
    exp = sla.expm(block * (h / 2.0**s))
    phi = exp[:, n_x:, n_x:]
    gram = np.swapaxes(phi, 1, 2) @ exp[:, :n_x, n_x:]
    for _ in range(s):
        gram = gram + np.swapaxes(phi, 1, 2) @ gram @ phi
        phi = phi @ phi
    return phi, gram


def _oscillators(disturbances):
    """Waveform oscillators u' = W u, u(0) = u0, whose u_1 is each probe's waveform.

    sin(w t) has W = [[0, w], [-w, 0]] and u0 = (0, 1); a step has W = 0 and
    u0 = (1, 0).  Returns the stacked W and u0.
    """
    is_sin = np.array([d.kind == "sin" for d in disturbances])
    omegas = np.where(is_sin, [d.omega for d in disturbances], 0.0)
    gens = np.zeros((len(disturbances), 2, 2))
    gens[:, 0, 1] = omegas
    gens[:, 1, 0] = -omegas
    u0 = np.zeros((len(disturbances), 2))
    u0[:, 0] = ~is_sin
    u0[:, 1] = is_sin
    return gens, u0


def _mean_ratios(closed_loop, path, disturbances):
    """Deterministic-response energy ratios of one path, one per disturbance.

    With zero initial mean, the baseline run with zero input has identically
    zero mean, so the baseline-subtracted output energy equals the energy of
    the deterministic mean response; the quantum noise floor cancels exactly
    in the subtraction.  The mean eta is stacked with the waveform state u
    of ``_oscillators``, so that eta' = A_i eta + B1_i d u_1 is autonomous
    and every fault segment is integrated exactly by ``_segment_maps``.
    Every probe runs over the whole path, [0, t_end].  The input energies
    depend only on the family and t_end, so a probe with zero input energy
    is refused before any segment is integrated.
    """
    n = closed_loop.n
    n_x = n + 2
    t_end = path.t_end
    dirs = np.stack([d.direction for d in disturbances])
    gens, u0 = _oscillators(disturbances)
    omegas = gens[:, 0, 1]
    is_sin = np.array([d.kind == "sin" for d in disturbances])
    safe = np.where(is_sin, omegas, 1.0)
    wave_energy = np.where(
        is_sin, t_end / 2.0 - np.sin(2.0 * safe * t_end) / (4.0 * safe), t_end
    )
    ew = np.sum(dirs * dirs, axis=1) * wave_energy
    if np.any(ew <= 1e-12):
        raise ValueError("disturbance family contains a probe with zero input energy")
    m = np.zeros((len(disturbances), n_x, n_x))
    m[:, n:, n:] = gens
    xi = np.zeros((len(disturbances), n_x))
    xi[:, n:] = u0
    q = np.zeros((n_x, n_x))
    ez = np.zeros(len(disturbances))
    for t0, t1, mode_idx in path.segments():
        mode = closed_loop.modes[mode_idx]
        m[:, :n, :n] = mode.a
        m[:, :n, n] = dirs @ mode.b1.T
        q[:n, :n] = mode.c.T @ mode.c
        phi, gram = _segment_maps(m, q, t1 - t0, n)
        ez += np.einsum("ki,kij,kj->k", xi, gram, xi)
        xi = np.einsum("kij,kj->ki", phi, xi)
    return ez / ew


def _full_ratio(closed_loop, path, dist):
    """Literal baseline-subtracted ratio from two full moment runs over the
    whole path, one step per fault segment."""
    n = closed_loop.n
    with_input = propagate_moments(
        closed_loop, path, dist, np.zeros(n), np.eye(n), path.t_end, validate=False
    )
    baseline = propagate_moments(
        closed_loop, path, None, np.zeros(n), np.eye(n), path.t_end, validate=False
    )
    if with_input.input_energy <= 1e-12:
        raise ValueError("disturbance has zero input energy over the probe window")
    return (with_input.output_energy - baseline.output_energy) / with_input.input_energy


def estimate_attenuation(
    closed_loop: ClosedLoop,
    g: float,
    t_end: float = 160.0,
    n_paths: int = 50,
    seed: int = 0,
) -> AttenuationEstimate:
    """Probe the closed-loop energy gain along seeded fault paths.

    For every path and every disturbance of ``default_disturbance_family``
    the reported ratio is the baseline-subtracted output energy over the
    input energy, where the baseline is the same simulation with zero
    disturbance.  The subtraction is evaluated in closed form through the
    deterministic mean response, integrated exactly segment by segment;
    ``_full_ratio``, which runs the two exact moment propagations literally,
    is its cross-check.  Every probe runs over the whole horizon ``t_end``:
    the certified bound is a dissipation inequality from a zero initial
    state over every horizon, so no probe needs a horizon of its own.

    Per-path randomness is derived from the master seed by path index, so
    results do not depend on evaluation order.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    disturbances = default_disturbance_family(closed_loop.n_w)

    ratios = np.zeros((n_paths, len(disturbances)))
    for p in range(n_paths):
        path = sample_markov_path(closed_loop.rates, t_end, seed=path_seed(seed, p))
        ratios[p] = _mean_ratios(closed_loop, path, disturbances)
    return AttenuationEstimate(
        g=float(g),
        labels=tuple(d.label for d in disturbances),
        ratios=ratios,
    )
