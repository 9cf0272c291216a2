import numpy as np
import pytest
import scipy.linalg as sla

from qhinf import demo, jumpsim
from qhinf.jumpsim import (
    Disturbance,
    MarkovPath,
    default_disturbance_family,
    estimate_attenuation,
    propagate_moments,
    sample_markov_path,
)
from qhinf.qmodel import ClosedLoop, ClosedLoopMode, TransitionRateMatrix


def _single_mode_loop(a, b1, b2, c):
    mode = ClosedLoopMode(a, b1, b2, c)
    return ClosedLoop((mode,), TransitionRateMatrix(np.zeros((1, 1))))


SCALAR_LOOP = _single_mode_loop(
    np.array([[-1.0]]), np.array([[1.0]]), np.zeros((1, 0)), np.array([[1.0]])
)


def test_zero_rates_no_jumps():
    assert sample_markov_path(np.zeros((2, 2)), 50.0, seed=1) == MarkovPath(50.0, (), (1,))


def test_absorbing_mode_ends_every_path():
    # mode 2 has no exit rate: a path from mode 1 jumps once (at rate 0.5,
    # almost surely within 100 s) and stays in mode 2
    rates = np.array([[-0.5, 0.5], [0.0, 0.0]])
    for seed in range(20):
        path = sample_markov_path(rates, 100.0, seed=seed)
        assert path.modes == (1, 2)
        assert len(path.jump_times) == 1


def test_path_determinism():
    rates = np.array(demo.OPO_RATES)
    p1 = sample_markov_path(rates, 500.0, seed=42)
    p2 = sample_markov_path(rates, 500.0, seed=42)
    assert p1 == p2


def test_path_invariants():
    rates = np.array(demo.OPO_RATES)
    for seed in range(30):
        path = sample_markov_path(rates, 300.0, seed=seed)
        times = np.array(path.jump_times)
        assert np.all(np.diff(times) > 0) if times.size > 1 else True
        assert all(1 <= m <= 3 for m in path.modes)
        assert all(a != b for a, b in zip(path.modes, path.modes[1:]))


def test_holding_time_statistic():
    # exit rate of the first mode is 0.02, so the mean holding time is 50;
    # censored observations enter the exponential rate estimate at full weight
    rates = np.array(demo.OPO_RATES)
    total, observed = 0.0, 0
    for seed in range(10000):
        path = sample_markov_path(rates, 400.0, seed=seed)
        if path.jump_times:
            total += path.jump_times[0]
            observed += 1
        else:
            total += 400.0
    estimate = total / observed
    assert 50.0 * 0.95 <= estimate <= 50.0 * 1.05


def test_two_state_jump_count():
    rates = np.array([[-1.0, 1.0], [1.0, -1.0]])
    counts = [
        len(sample_markov_path(rates, 100.0, seed=seed).jump_times)
        for seed in range(400)
    ]
    assert abs(np.mean(counts) - 100.0) <= 5.0


def test_invalid_generator_rejected():
    with pytest.raises(ValueError, match="transition-rate"):
        sample_markov_path(np.array([[-1.0, 2.0], [-0.5, 0.5]]), 10.0)


def test_markov_path_validation():
    with pytest.raises(ValueError, match="consecutive"):
        MarkovPath(10.0, (1.0,), (1, 1))
    with pytest.raises(ValueError, match="increasing"):
        MarkovPath(10.0, (5.0, 2.0), (1, 2, 1))
    with pytest.raises(ValueError, match="one longer"):
        MarkovPath(10.0, (1.0,), (1,))


@pytest.mark.parametrize("modes", [(0,), (2, 0), (-1,), (1.0,), ("1",)])
def test_markov_path_rejects_bad_mode_labels(modes):
    # label 0 used to reach the propagation as index -1, the last mode
    with pytest.raises(ValueError, match="mode labels must be integers >= 1"):
        MarkovPath(10.0, (5.0,) * (len(modes) - 1), modes)


def test_markov_path_accepts_numpy_integer_labels():
    assert MarkovPath(10.0, (5.0,), (np.int64(2), 1)).modes == (2, 1)


def test_propagate_moments_rejects_a_mode_the_loop_lacks():
    # a label above the mode count used to raise a bare IndexError
    path = MarkovPath(2.0, (1.0,), (1, 3))
    with pytest.raises(ValueError, match="path visits mode 3, but the closed loop has 2 modes"):
        propagate_moments(TWO_MODE_LOOP, path, None, np.zeros(2), np.eye(2), 0.1)


def test_sampler_rejects_non_finite_rates():
    # the draw used to fail inside numpy with "Probabilities contain NaN"
    with pytest.raises(ValueError, match="non-finite rates"):
        sample_markov_path([[np.nan, 0.0], [0.0, 0.0]], 10.0)


@pytest.mark.parametrize("t_end", [0.0, np.nan, np.inf])
def test_horizon_must_be_finite_and_positive(t_end):
    # a non-finite horizon used to make the sampler loop forever
    with pytest.raises(ValueError, match="finite and positive"):
        MarkovPath(t_end, (), (1,))
    with pytest.raises(ValueError, match="finite and positive"):
        sample_markov_path(np.array(demo.OPO_RATES), t_end)
    with pytest.raises(ValueError, match="finite and positive"):
        estimate_attenuation(SCALAR_LOOP, 1.0, t_end=t_end, n_paths=1)


TWO_LOOP = _single_mode_loop(
    np.array([[-1.0, 0.4], [-0.3, -0.8]]),
    np.array([[1.0], [0.5]]),
    np.array([[0.2], [0.1]]),
    np.array([[1.0, 0.0]]),
)


def test_steady_state_matches_lyapunov():
    path = sample_markov_path(np.zeros((1, 1)), 60.0, seed=0)
    traj = propagate_moments(TWO_LOOP, path, None, np.zeros(2), np.eye(2), dt=0.01)
    mode = TWO_LOOP.modes[0]
    q_ss = sla.solve_continuous_lyapunov(mode.a, -(mode.b1 @ mode.b1.T + mode.b2 @ mode.b2.T))
    assert np.max(np.abs(traj.second_moment[-1] - q_ss)) <= 1e-6


def test_mean_matches_matrix_exponential():
    loop = _single_mode_loop(
        TWO_LOOP.modes[0].a, np.zeros((2, 1)), np.zeros((2, 0)), np.array([[1.0, 0.0]])
    )
    m0 = np.array([1.0, -2.0])
    path = sample_markov_path(np.zeros((1, 1)), 5.0, seed=0)
    traj = propagate_moments(loop, path, None, m0, np.outer(m0, m0), dt=0.01)
    assert np.max(np.abs(traj.mean[-1] - sla.expm(TWO_LOOP.modes[0].a * 5.0) @ m0)) <= 1e-8


def test_second_moment_stays_symmetric():
    path = sample_markov_path(np.zeros((1, 1)), 10.0, seed=0)
    dist = Disturbance("sin", np.array([1.0]), "sin", 0.9)
    traj = propagate_moments(TWO_LOOP, path, dist, np.array([0.5, 0.1]), np.eye(2), dt=0.02)
    for q in traj.second_moment:
        assert np.max(np.abs(q - q.T)) <= 1e-12 * (1.0 + np.max(np.abs(q)))


TWO_MODE_LOOP = ClosedLoop(
    (
        ClosedLoopMode(np.array([[-1.0, 0.4], [-0.3, -0.8]]), np.array([[1.0], [0.5]]),
                       np.array([[0.2], [0.1]]), np.array([[1.0, 0.0]])),
        ClosedLoopMode(np.array([[-0.6, 0.1], [0.2, -1.5]]), np.array([[0.3], [1.0]]),
                       np.array([[0.2], [0.1]]), np.array([[0.2, 1.5]])),
    ),
    TransitionRateMatrix(np.array([[-0.5, 0.5], [0.5, -0.5]])),
)
FORCED_PATH = sample_markov_path(TWO_MODE_LOOP.rates, 8.0, seed=1)
FORCED_SIN = Disturbance("sin:0.7", np.array([1.0]), "sin", 0.7)
FORCED_MEAN0 = np.array([0.3, -0.2])


def _forced_terminal(dt):
    traj = propagate_moments(TWO_MODE_LOOP, FORCED_PATH, FORCED_SIN, FORCED_MEAN0, np.eye(2),
                             dt=dt, validate=False)
    return traj.mean[-1], traj.second_moment[-1], traj.output_energy, traj.input_energy


def _relative_gap(run, ref):
    return max(np.max(np.abs(np.subtract(x, y))) / np.max(np.abs(y)) for x, y in zip(run, ref))


def test_moments_independent_of_step():
    # the propagation is exact, so the sampling grid cannot move the result
    assert len(FORCED_PATH.jump_times) >= 2
    ref = _forced_terminal(0.00125)
    for dt in (0.02, FORCED_PATH.t_end):  # the horizon gives one step per segment
        assert _relative_gap(_forced_terminal(dt), ref) <= 1e-10


def test_moments_match_solve_ivp():
    # integrates the moment equations as stated, with beta(t) = d sin(w t)
    from scipy.integrate import solve_ivp

    n = TWO_MODE_LOOP.n
    y = np.concatenate([FORCED_MEAN0, np.eye(n).ravel(), [0.0, 0.0]])
    for t0, t1, idx in FORCED_PATH.segments():
        mode = TWO_MODE_LOOP.modes[idx]

        def rhs(t, y):
            mean, q = y[:n], y[n:n + n * n].reshape(n, n)
            beta = FORCED_SIN.direction * np.sin(FORCED_SIN.omega * t)
            drive = np.outer(mode.b1 @ beta, mean)
            dq = (mode.a @ q + q @ mode.a.T + drive + drive.T
                  + mode.b1 @ mode.b1.T + mode.b2 @ mode.b2.T)
            return np.concatenate([mode.a @ mean + mode.b1 @ beta, dq.ravel(),
                                   [np.sum(mode.c.T @ mode.c * q), beta @ beta]])

        with np.errstate(under="ignore"):  # solve_ivp's step floor from t = 0
            y = solve_ivp(rhs, (t0, t1), y, method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
    ref = (y[:n], y[n:n + n * n].reshape(n, n), y[-2], y[-1])
    for dt in (0.02, 0.00125, FORCED_PATH.t_end):
        assert _relative_gap(_forced_terminal(dt), ref) <= 1e-9


def test_propagate_rejects_bad_inputs():
    path = sample_markov_path(np.zeros((1, 1)), 1.0, seed=0)
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            propagate_moments(TWO_LOOP, path, None, np.zeros(2), np.eye(2), dt=dt)
    with pytest.raises(ValueError, match="Disturbance or None"):
        propagate_moments(TWO_LOOP, path, lambda t: np.ones(1), np.zeros(2), np.eye(2), dt=0.01)
    with pytest.raises(ValueError, match="semidefinite"):
        propagate_moments(TWO_LOOP, path, None, np.zeros(2), -np.eye(2), dt=0.01)
    with pytest.raises(ValueError, match="initial moments must be finite"):
        propagate_moments(TWO_LOOP, path, None, np.array([np.nan, 0.0]), np.eye(2), dt=0.01)
    with pytest.raises(ValueError, match="n x n"):
        propagate_moments(TWO_LOOP, path, None, np.zeros(2), np.eye(3), dt=0.01)
    # only the upper triangle of q0 is read, so an asymmetric q0 must be refused
    with pytest.raises(ValueError, match="symmetric"):
        propagate_moments(TWO_LOOP, path, None, np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]),
                          dt=0.01)
    # 1e14 samples could never be allocated: the cap refuses them up front
    long_path = sample_markov_path(np.zeros((1, 1)), 100.0, seed=0)
    with pytest.raises(ValueError, match="above the cap of 1000000"):
        propagate_moments(TWO_LOOP, long_path, None, np.zeros(2), np.eye(2), dt=1e-12)


def test_every_sample_matches_matrix_exponential():
    # 37 steps is no power of two, so the doubling ends on a partial pass;
    # the reference stacks the sine's oscillator onto the state and takes
    # E[z z^T] at each sample time from Van Loan's block exponential
    dt, steps, omega = 0.125, 37, 0.9
    path = MarkovPath(dt * steps, (), (1,))
    dist = Disturbance("sin", np.array([1.0]), "sin", omega)
    m0, q0 = np.array([0.5, -0.4]), np.array([[1.0, 0.2], [0.2, 0.7]])
    traj = propagate_moments(TWO_LOOP, path, dist, m0, q0, dt=dt)
    assert len(traj.times) == steps + 1

    mode = TWO_LOOP.modes[0]
    drift = np.zeros((4, 4))
    drift[:2, :2] = mode.a
    drift[:2, 2] = mode.b1[:, 0]
    drift[2:, 2:] = [[0.0, omega], [-omega, 0.0]]
    noise = np.zeros((4, 4))
    noise[:2, :2] = mode.b1 @ mode.b1.T + mode.b2 @ mode.b2.T
    z0 = np.concatenate([m0, [0.0, 1.0]])
    zz0 = np.outer(z0, z0)
    zz0[:2, :2] = q0
    van_loan = np.block([[-drift, noise], [np.zeros((4, 4)), drift.T]])
    for t, mean, q in zip(traj.times, traj.mean, traj.second_moment):
        flow = sla.expm(drift * t)
        block = sla.expm(van_loan * t)
        zz = flow @ zz0 @ flow.T + block[4:, 4:].T @ block[:4, 4:]
        assert np.max(np.abs(mean - (flow @ z0)[:2])) <= 1e-12 * np.max(np.abs(z0))
        assert np.max(np.abs(q - zz[:2, :2])) <= 1e-12 * np.max(np.abs(zz[:2, :2]))


def test_fine_grid_matches_coarse_grid_at_segment_ends():
    # every sample of the one-step-per-segment grid is a segment end, which
    # the fine grid samples too; the fine grid reaches it by doubling
    assert len(FORCED_PATH.jump_times) >= 2
    runs = [propagate_moments(TWO_MODE_LOOP, FORCED_PATH, FORCED_SIN, FORCED_MEAN0, np.eye(2),
                              dt=dt) for dt in (0.01, FORCED_PATH.t_end)]
    fine, coarse = runs
    assert np.array_equal(coarse.times, [0.0, *FORCED_PATH.jump_times, FORCED_PATH.t_end])
    shared = np.isin(fine.times, coarse.times)
    assert shared.sum() == len(coarse.times)
    for field in ("mean", "second_moment", "z_energy", "w_energy"):
        ref = getattr(coarse, field)
        gap = np.max(np.abs(getattr(fine, field)[shared] - ref)) / np.max(np.abs(ref))
        assert gap <= 1e-10, field


def _initial_moments(least_covariance_eigenvalue):
    # covariance diag(1, lam) with the mean along its second axis, so that
    # q0 itself is positive semidefinite for every small lam
    mean0 = np.array([0.0, 1.0])
    return mean0, np.diag([1.0, least_covariance_eigenvalue]) + np.outer(mean0, mean0)


def test_initial_dominance_tolerance_boundary():
    path = MarkovPath(2.0, (), (1,))
    mean0, q0 = _initial_moments(-5e-9)
    traj = propagate_moments(TWO_LOOP, path, None, mean0, q0, dt=0.1)
    assert np.isfinite(traj.output_energy)
    mean0, q0 = _initial_moments(-1e-6)
    with pytest.raises(ValueError, match="initial mean"):
        propagate_moments(TWO_LOOP, path, None, mean0, q0, dt=0.1)
    # zero second moment with a unit mean: q0 is semidefinite, q0 - m m^T is not
    with pytest.raises(ValueError, match="initial mean"):
        propagate_moments(TWO_LOOP, path, None, np.array([1.0, 0.0]), np.zeros((2, 2)), dt=0.1)
    # the dominance check belongs to validate; the propagation itself is exact
    propagate_moments(TWO_LOOP, path, None, mean0, q0, dt=0.1, validate=False)


def test_initial_dominance_tolerance_scales_with_q0():
    # max |q0| is 2e12, so the tolerance is 2e4: a least covariance
    # eigenvalue of -5e3 is rounding and one of -1e6 (1e-6 relative) a loss
    path = MarkovPath(2.0, (), (1,))
    mean0, q0 = _initial_moments(-5e-9)
    propagate_moments(TWO_LOOP, path, None, 1e6 * mean0, 1e12 * q0, dt=0.1)
    mean0, q0 = _initial_moments(-1e-6)
    with pytest.raises(ValueError, match="initial mean"):
        propagate_moments(TWO_LOOP, path, None, 1e6 * mean0, 1e12 * q0, dt=0.1)


def _screen_stack(covariances, means):
    """(n, n, T) second moments and (n, T) means of the given covariances."""
    cov, means = np.array(covariances, dtype=float), np.array(means, dtype=float)
    q = cov + means[:, :, None] * means[:, None, :]
    return np.moveaxis(q, 0, 2), means.T


def test_dominance_screen_defers_to_eigenvalues():
    q, mean = _screen_stack([np.eye(2), np.diag([1.0, -5e-9]), np.diag([1.0, -1e-8])],
                            np.zeros((3, 2)))
    # the last covariance is singular after the 1e-8 shift, so the Cholesky
    # screen fails and eigvalsh accepts it: -1e-8 is not below the tolerance
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(q[:, :, 2] + 1e-8 * np.eye(2))
    jumpsim._screen_dominance(q, mean)
    q[1, 1, 1] = -2e-8
    with pytest.raises(ArithmeticError, match=r"eigenvalue -2\.000e-08\)"):
        jumpsim._screen_dominance(q, mean)


def _crafted_stack(least):
    """200 random 3 x 3 covariances with nonzero means; sample 117 has the
    given least eigenvalue in a random basis."""
    rng = np.random.default_rng(4)
    factors = rng.standard_normal((200, 3, 3))
    cov = factors @ np.swapaxes(factors, 1, 2) + 0.1 * np.eye(3)
    basis, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    cov[117] = basis @ np.diag([2.0, 0.5, least]) @ basis.T
    return _screen_stack(cov, rng.standard_normal((200, 3)))


@pytest.mark.parametrize("least", [0.0, -5e-9])
def test_dominance_screen_passes_crafted_stacks(least):
    jumpsim._screen_dominance(*_crafted_stack(least))


def test_dominance_screen_reports_the_least_eigenvalue():
    with pytest.raises(ArithmeticError, match=r"eigenvalue -1\.000e-06\)"):
        jumpsim._screen_dominance(*_crafted_stack(-1e-6))


def test_dominance_screen_scales_with_the_moments():
    # the stacks above scaled by 1e20: -5e-9 relative is still rounding, and
    # a real loss of 1e-6 relative still raises
    q, mean = _crafted_stack(-5e-9)
    jumpsim._screen_dominance(q * 1e20, mean * 1e10)
    q, mean = _crafted_stack(-1e-6)
    with pytest.raises(ArithmeticError, match=r"eigenvalue -1\.000e\+14\)"):
        jumpsim._screen_dominance(q * 1e20, mean * 1e10)


def test_dominance_screen_rejects_a_nan_sample():
    q, mean = _crafted_stack(0.5)
    q[1, 2, 60] = q[2, 1, 60] = np.nan
    with pytest.raises(ArithmeticError, match="not finite"):
        jumpsim._screen_dominance(q, mean)


def _step_by_step(loop, path, dist, mean0, q0, dt):
    """Moments of ``propagate_moments`` from a plain loop that applies each
    segment's one-step exponential once per grid step, its generator built
    with np.kron."""
    n, k = loop.n, loop.n + 2
    kk = k * k
    z = np.concatenate([mean0, [0.0, 1.0]])
    zz = np.outer(z, z)
    zz[:n, :n] = q0
    s = np.concatenate([z, zz.ravel(), [0.0, 0.0, 1.0]])
    times, states = [0.0], [s]
    for t0, t1, idx in path.segments():
        mode = loop.modes[idx]
        m = np.zeros((k, k))
        m[:n, :n] = mode.a
        m[:n, n] = mode.b1 @ dist.direction
        m[n:, n:] = [[0.0, dist.omega], [-dist.omega, 0.0]]
        gen = np.zeros((k + kk + 3, k + kk + 3))
        gen[:k, :k] = m
        gen[k:k + kk, k:k + kk] = np.kron(m, np.eye(k)) + np.kron(np.eye(k), m)
        noise, c_gram = np.zeros((k, k)), np.zeros((k, k))
        noise[:n, :n] = mode.b1 @ mode.b1.T + mode.b2 @ mode.b2.T
        c_gram[:n, :n] = mode.c.T @ mode.c
        gen[k:k + kk, -1] = noise.ravel()
        gen[k + kk, k:k + kk] = c_gram.ravel()
        gen[k + kk + 1, k + n * k + n] = dist.direction @ dist.direction
        steps = max(1, int(np.ceil((t1 - t0) / dt)))
        phi = sla.expm(gen * ((t1 - t0) / steps))
        for j in range(1, steps + 1):
            s = phi @ s
            times.append(t0 + (t1 - t0) * j / steps)
            states.append(s)
    states = np.array(states)
    q = states[:, k:k + kk].reshape(-1, k, k)[:, :n, :n]
    return (np.array(times), states[:, :n], 0.5 * (q + np.swapaxes(q, 1, 2)),
            states[:, k + kk], states[:, k + kk + 1])


def test_propagation_matches_a_step_by_step_loop():
    # three segments of 22, 14 and 10 steps: the doubling ends on a partial
    # pass in each, and each segment starts from the last sample of the one before
    path = MarkovPath(2.3, (1.1, 1.8), (1, 2, 1))
    traj = propagate_moments(TWO_MODE_LOOP, path, FORCED_SIN, FORCED_MEAN0, np.eye(2), dt=0.05)
    ref = _step_by_step(TWO_MODE_LOOP, path, FORCED_SIN, FORCED_MEAN0, np.eye(2), 0.05)
    assert len(traj.times) == 1 + 22 + 14 + 10
    for field, expected in zip(("times", "mean", "second_moment", "z_energy", "w_energy"), ref):
        got = getattr(traj, field)
        assert got.shape == expected.shape, field
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected)), field
    assert np.array_equal(traj.second_moment, np.swapaxes(traj.second_moment, 1, 2))


def _diverging_loop():
    """The bundled plant closed with the tabulated controller shifted to
    A_K + 30 I, whose moments overflow well before t = 100."""
    from dataclasses import replace

    from qhinf.qmodel import assemble_closed_loop

    ctrl = demo.reference_controller()
    ctrl = replace(ctrl, modes=tuple(replace(mode, a=mode.a + 30.0 * np.eye(len(mode.a)))
                                     for mode in ctrl.modes))
    return assemble_closed_loop(demo.reference_plant(), ctrl)


def test_non_finite_moments_name_their_first_sample_time():
    # overflowed moments used to raise LinAlgError from the dominance screen,
    # or to return NaN moments without validate
    loop = _diverging_loop()
    path = sample_markov_path(loop.rates, 100.0, seed=1)
    named = []
    for validate in (True, False):
        with pytest.raises(ArithmeticError, match="not finite from t = ") as err:
            propagate_moments(loop, path, None, np.zeros(loop.n), np.eye(loop.n), 0.01,
                              validate=validate)
        named.append(float(str(err.value).rsplit(" ", 1)[1]))
    assert named[0] == named[1] and 0.0 < named[0] < 100.0
    # the moments before that time are finite, if far too large to validate
    cut = 0.9 * named[0]
    early = MarkovPath(cut, tuple(t for t in path.jump_times if t < cut),
                       path.modes[:1 + sum(t < cut for t in path.jump_times)])
    traj = propagate_moments(loop, early, None, np.zeros(loop.n), np.eye(loop.n), 0.01,
                             validate=False)
    assert np.all(np.isfinite(traj.second_moment)) and np.isfinite(traj.output_energy)


def test_large_moments_pass_validation():
    # max |Q| grows to 3.6e24 by t = 1; the least covariance eigenvalue there
    # is rounding (-2.7e7, 1e-17 relative), which an absolute 1e-8 tolerance
    # reported as lost dominance
    loop = _diverging_loop()
    traj = propagate_moments(loop, MarkovPath(1.0, (), (1,)), None, np.zeros(loop.n),
                             np.eye(loop.n), 0.01)
    assert np.max(np.abs(traj.second_moment[-1])) > 1e24


def test_scalar_attenuation_probe_reaches_hinf_norm():
    # open-loop scalar system with H-infinity norm 1, worst gain at DC
    est = estimate_attenuation(SCALAR_LOOP, g=1.05, t_end=200.0, n_paths=1, seed=0)
    assert est.max_ratio <= 1.0 + 1e-6
    assert est.max_ratio >= 0.95
    assert est.passed


def test_probe_passes_on_the_mean_ratio_the_certificate_bounds():
    # the certificate bounds the expected energy ratio over fault paths: one
    # path above g^2 does not fail the probe while every probe's mean over
    # the paths stays below it
    est = jumpsim.AttenuationEstimate(g=1.0, labels=("a", "b"),
                                      ratios=np.array([[1.2, 0.5], [0.6, 0.7]]))
    assert est.max_ratio == 1.2 and est.mean_ratio == pytest.approx(0.9)
    assert est.passed
    # a probe whose mean over the paths reaches g^2 fails
    est = jumpsim.AttenuationEstimate(g=1.0, labels=("a", "b"),
                                      ratios=np.array([[1.2, 0.5], [0.8, 0.7]]))
    assert est.mean_ratio == pytest.approx(1.0) and not est.passed


def _first_path(loop, t_end, seed):
    """The first fault path of a probe with master seed ``seed``."""
    return sample_markov_path(loop.rates, t_end, seed=jumpsim.path_seed(seed, 0))


def _full_ratios(loop, path, fam):
    """Literal two-run ratios on one path, one per disturbance."""
    return np.array([jumpsim._full_ratio(loop, path, d) for d in fam])


def test_attenuation_methods_agree():
    fam = [
        Disturbance("sin:0.5", np.array([1.0]), "sin", 0.5),
        Disturbance("step", np.array([1.0]), "step"),
        Disturbance("sin:7", np.array([1.0]), "sin", 7.0),
    ]
    path = _first_path(SCALAR_LOOP, 50.0, 0)
    mean = jumpsim._mean_ratios(SCALAR_LOOP, path, fam)
    full = _full_ratios(SCALAR_LOOP, path, fam)
    assert np.max(np.abs(mean - full) / full) <= 1e-3


def test_attenuation_deterministic_and_order_independent():
    loop = _reference_loop()
    fam = default_disturbance_family(loop.n_w)
    est_a = estimate_attenuation(loop, 0.1, t_end=60.0, n_paths=3, seed=5)
    est_b = estimate_attenuation(loop, 0.1, t_end=60.0, n_paths=3, seed=5)
    assert est_a.labels == tuple(d.label for d in fam)
    assert np.array_equal(est_a.ratios, est_b.ratios)
    # per-path streams derive from the master seed by index, so a single
    # path evaluated on its own reproduces its row
    path_seed = int(np.random.SeedSequence([5, 1]).generate_state(1)[0])
    path = sample_markov_path(loop.rates, 60.0, seed=path_seed)
    assert np.array_equal(jumpsim._mean_ratios(loop, path, fam), est_a.ratios[1])


def test_mean_probe_exact_with_mode_dependent_output():
    # the output matrix changes with the mode and the path keeps jumping past
    # t = 40; every probe runs over the whole path, and the probe and the full
    # moment runs both integrate each segment exactly, so they must agree
    fam = [
        Disturbance("sin:0.5", np.array([1.0]), "sin", 0.5),
        Disturbance("step", np.array([1.0]), "step"),
        Disturbance("sin:7", np.array([1.0]), "sin", 7.0),
    ]
    path = _first_path(TWO_MODE_LOOP, 60.0, 3)
    jumps = np.array(path.jump_times)
    assert np.sum(jumps < 10.0) >= 4 and np.sum(jumps > 40.0) >= 4
    mean = jumpsim._mean_ratios(TWO_MODE_LOOP, path, fam)
    full = _full_ratios(TWO_MODE_LOOP, path, fam)
    assert np.max(np.abs(mean - full) / full) <= 1e-9


def _reference_loop():
    from qhinf.qmodel import assemble_closed_loop

    return assemble_closed_loop(demo.reference_plant(), demo.reference_controller())


def test_zero_disturbance_rejected():
    with pytest.raises(ValueError, match="zero input energy"):
        jumpsim._mean_ratios(SCALAR_LOOP, MarkovPath(10.0, (), (1,)),
                             [Disturbance("null", np.array([0.0]), "step")])
    with pytest.raises(ValueError, match="at least one path"):
        estimate_attenuation(SCALAR_LOOP, 1.0, n_paths=0)


def test_zero_energy_probe_refused_before_any_segment(monkeypatch):
    def integrate(*args):
        raise AssertionError("a segment was integrated")

    monkeypatch.setattr(jumpsim, "_segment_maps", integrate)
    with pytest.raises(ValueError, match="zero input energy"):
        jumpsim._mean_ratios(TWO_MODE_LOOP, _first_path(TWO_MODE_LOOP, 10.0, 0),
                             [FORCED_SIN, Disturbance("null", np.array([0.0]), "step")])


@pytest.mark.parametrize("kind, omega", [("sin", 0.0), ("sin", -1.0), ("sin", np.inf),
                                         ("sin", np.nan), ("ramp", 1.0)])
def test_invalid_disturbance_rejected(kind, omega):
    # a zero-frequency sinusoid used to reach the probe and divide by zero
    with pytest.raises(ValueError, match="frequency|kind"):
        Disturbance("bad", np.array([1.0]), kind, omega)


def test_default_family_composition():
    fam = default_disturbance_family(2)
    assert len(fam) == 21
    kinds = [d.kind for d in fam]
    assert kinds.count("sin") == 20 and kinds.count("step") == 1
    omegas = [d.omega for d in fam if d.kind == "sin"]
    assert omegas[0] == pytest.approx(1e-2) and omegas[-1] == pytest.approx(1e2)
    for d in fam:
        assert np.linalg.norm(d.direction) == pytest.approx(1.0)


def test_default_family_is_built_once_and_read_only():
    fam = default_disturbance_family(2)
    assert isinstance(fam, tuple) and default_disturbance_family(2) is fam
    for d in fam:
        with pytest.raises(ValueError, match="read-only"):
            d.direction[0] = 2.0
    assert [d.direction[0] for d in fam[:2]] == [1.0, 0.0]


def _relative_errors(got, expected):
    """max |got - expected| / max |expected| of each matrix of two stacks."""
    return np.max(np.abs(got - expected), axis=(-2, -1)) / np.max(np.abs(expected), axis=(-2, -1))


def test_expm_matches_scipy_on_the_demo_loop(monkeypatch):
    # a probe path takes one exponential, of the Van Loan blocks of all its
    # segments and probes, and a moment propagation one, of a generator per
    # segment
    seen, expm = [], jumpsim._expm

    def recording(a):
        seen.append(np.array(a))
        return expm(a)

    monkeypatch.setattr(jumpsim, "_expm", recording)
    loop = _reference_loop()
    estimate_attenuation(loop, 0.2, t_end=120.0, n_paths=1, seed=3)
    path = sample_markov_path(loop.rates, 100.0, seed=3)
    propagate_moments(loop, path, Disturbance("sin:0.5", np.eye(loop.n_w)[0], "sin", 0.5),
                      np.zeros(loop.n), np.eye(loop.n), 0.05)
    probe_segments = len(_first_path(loop, 120.0, 3).modes)
    assert probe_segments >= 2 and len(path.modes) >= 2
    family = len(default_disturbance_family(loop.n_w))
    assert [a.shape[:-2] for a in seen] == [(probe_segments, family), (len(path.modes),)]
    for a in seen:
        assert np.max(_relative_errors(expm(a), sla.expm(a))) <= 1e-12


def test_expm_matches_scipy_and_closed_forms_on_random_stacks():
    rng = np.random.default_rng(0)
    for norm in np.logspace(-3, 3, 13):
        for m in (2, 3, 6, 12):
            g = rng.standard_normal((8, m, m))
            # shifted to spectral abscissa 0, as a closed-loop drift, so that
            # e^A stays finite at every norm
            a = g - np.max(np.linalg.eigvals(g).real, axis=1)[:, None, None] * np.eye(m)
            a *= norm / np.max(np.sum(np.abs(a), axis=1), axis=1)[:, None, None]
            # scipy's own error grows with the norm: a rotation by 500 rad
            # already misses cos and sin by 5.6e-12
            assert np.max(_relative_errors(jumpsim._expm(a), sla.expm(a))) <= 1e-12 * max(1.0, norm)
            sym = 0.5 * (g + np.swapaxes(g, 1, 2))
            sym -= np.linalg.eigvalsh(sym)[:, -1, None, None] * np.eye(m)
            sym *= norm / np.max(np.sum(np.abs(sym), axis=1), axis=1)[:, None, None]
            lam, q = np.linalg.eigh(sym)
            with np.errstate(under="ignore"):
                exact = (q * np.exp(lam)[:, None, :]) @ np.swapaxes(q, 1, 2)
            assert np.max(_relative_errors(jumpsim._expm(sym), exact)) <= 1e-14 * max(1.0, norm)
    w = np.logspace(-3, 3, 61)
    rotation = np.zeros((w.size, 2, 2))
    rotation[:, 0, 1], rotation[:, 1, 0] = w, -w
    c, s = np.cos(w), np.sin(w)
    exact = np.stack([np.stack([c, s], axis=1), np.stack([-s, c], axis=1)], axis=1)
    assert np.all(np.max(np.abs(jumpsim._expm(rotation) - exact), axis=(1, 2))
                  <= 1e-15 * np.maximum(1.0, w))


def test_expm_squares_each_member_of_a_mixed_stack_its_own_number_of_times():
    # one stack: non-normal matrices with 1-norms from 1e-3 to 1e3, a
    # dyadic matrix of 1-norm exactly 1 and 2 (the scaling thresholds of
    # zero and one squaring) and each just above it, and a NaN member
    rng = np.random.default_rng(7)
    norms = np.logspace(-3, 3, 13)
    q = np.linalg.qr(rng.standard_normal((norms.size, 3, 3)))[0]
    # Schur forms with spectral abscissa 0, as a closed-loop drift, so that
    # e^A stays finite at every norm, and strictly upper parts that keep
    # them far from normal
    t = 3.0 * np.triu(rng.standard_normal((norms.size, 3, 3)), 1)
    t[:, [0, 1, 2], [0, 1, 2]] = -rng.uniform(0.0, 1.0, (norms.size, 3)) * [0.0, 1.0, 1.0]
    a = q @ t @ np.swapaxes(q, 1, 2)
    a *= (norms / np.max(np.sum(np.abs(a), axis=1), axis=1))[:, None, None]
    at_one = np.array([[-0.5, 0.25, 0.125], [0.0, -0.25, 0.5], [0.5, 0.5, -0.375]])
    above_one = at_one.copy()
    above_one[0, 0] -= 2.0**-52
    with_nan = a[0].copy()
    with_nan[1, 2] = np.nan
    stack = np.concatenate([a[:7], [at_one, above_one, 2.0 * at_one, 2.0 * above_one, with_nan],
                            a[7:]])
    stack_norms = np.max(np.sum(np.abs(stack), axis=1), axis=1)
    assert list(stack_norms[7:11]) == [1.0, np.nextafter(1.0, 2.0), 2.0, np.nextafter(2.0, 3.0)]
    out = jumpsim._expm(stack)
    assert np.all(np.isnan(out[11]))
    finite = np.arange(len(stack)) != 11
    expected = sla.expm(stack[finite])
    assert np.all(_relative_errors(out[finite], expected)
                  <= 1e-12 * np.maximum(1.0, stack_norms[finite]))


def test_expm_edge_cases():
    assert jumpsim._expm(np.array([[2.0]]))[0, 0] == pytest.approx(np.exp(2.0), rel=1e-15)
    assert np.max(np.abs(jumpsim._expm(np.zeros((3, 3))) - np.eye(3))) <= 2.3e-16
    # a non-finite matrix gives NaN without a warning (warnings fail the
    # suite) and leaves the rest of its stack alone
    stack = np.stack([np.full((2, 2), np.nan), np.diag([np.inf, 1.0]), np.diag([0.5, -0.5])])
    out = jumpsim._expm(stack)
    assert np.all(np.isnan(out[:2]))
    assert np.max(np.abs(out[2] - np.diag(np.exp([0.5, -0.5])))) <= 1e-15
    # overflow in the squarings is not finite either
    assert not np.all(np.isfinite(jumpsim._expm(np.full((2, 2), 1e3))))
