import numpy as np
import pytest

from qhinf import demo
from qhinf.analysis import (
    RiccatiNoSolutionError,
    bounded_real_margin,
    coupled_mode_check,
    frequency_sweep_norm,
    hinf_norm,
    solve_riccati,
    verify_closed_loop,
)
from qhinf.qmodel import (
    ClosedLoop,
    ClosedLoopMode,
    Controller,
    ControllerMode,
    TransitionRateMatrix,
    make_commutation_matrix,
)

ONE = np.array([[1.0]])
ZERO = np.array([[0.0]])


def test_bounded_real_margin_scalar():
    assert bounded_real_margin(-ONE, ONE, ONE, ZERO, ONE, 2.0) == pytest.approx(-0.75)


def test_bounded_real_margin_lyapunov_case():
    a = np.array([[-1.0, 0.2], [0.0, -2.0]])
    p = np.eye(2)
    margin = bounded_real_margin(a, np.zeros((2, 1)), np.zeros((1, 2)), np.zeros((1, 1)), p, 1.0)
    assert margin < 0


def test_bounded_real_margin_rejects_singular_middle():
    with pytest.raises(ValueError, match="feedthrough"):
        bounded_real_margin(-ONE, ONE, ONE, 2.0 * ONE, ONE, 2.0)


def test_riccati_scalar_oracle():
    sol = solve_riccati(-ONE, ONE, ONE, ZERO, 2.0)
    assert sol.p[0, 0] == pytest.approx(4.0 - 2.0 * np.sqrt(3.0), abs=1e-12)
    assert sol.closed_loop_abscissa == pytest.approx(-np.sqrt(3.0) / 2.0, abs=1e-9)
    assert sol.stabilizing


def test_riccati_zero_cost():
    sol = solve_riccati(-ONE, ONE, ZERO, ZERO, 2.0)
    assert abs(sol.p[0, 0]) <= 1e-12


def test_riccati_below_norm_fails():
    with pytest.raises(RiccatiNoSolutionError):
        solve_riccati(-ONE, ONE, ONE, ZERO, 0.9)


def test_riccati_residual_small_random():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n)
        b = rng.normal(size=(n, 2))
        c = rng.normal(size=(2, n))
        g = 2.0 * hinf_norm(a, b, c, np.zeros((2, 2)))
        sol = solve_riccati(a, b, c, np.zeros((2, 2)), g)
        assert sol.residual <= 1e-8 * (1.0 + np.max(np.abs(sol.p)))


def test_hinf_norm_oracles():
    assert hinf_norm(-ONE, ONE, ONE, ZERO) == pytest.approx(1.0, abs=1e-6)
    assert hinf_norm(-2.0 * ONE, ONE, ONE, ZERO) == pytest.approx(0.5, abs=1e-6)
    assert hinf_norm(-ONE, ZERO, ZERO, 0.7 * ONE) == pytest.approx(0.7, abs=1e-6)


def test_hinf_norm_rejects_unstable():
    with pytest.raises(ValueError, match="Hurwitz"):
        hinf_norm(ONE, ONE, ONE, ZERO)


def test_frequency_sweep_matches_bisection():
    rng = np.random.default_rng(11)
    for _ in range(8):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.8) * np.eye(n)
        b = rng.normal(size=(n, 1))
        c = rng.normal(size=(1, n))
        d = np.zeros((1, 1))
        g_ric = hinf_norm(a, b, c, d, tol=1e-9)
        g_sweep = frequency_sweep_norm(a, b, c, d)
        assert abs(g_ric - g_sweep) <= 2e-6 * max(1.0, g_ric)


def test_norm_riccati_margin_equivalence_small_sample():
    # bisected norm, Riccati solvability and margin checks agree around it
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a -= (np.max(np.linalg.eigvals(a).real) + 0.6) * np.eye(n)
        b = rng.normal(size=(n, 1))
        c = rng.normal(size=(1, n))
        d = np.zeros((1, 1))
        g_star = hinf_norm(a, b, c, d)
        sol = solve_riccati(a, b, c, d, 1.01 * g_star)
        p = sol.p + 1e-12 * np.eye(n)
        assert bounded_real_margin(a, b, c, d, p, 1.01 * g_star) <= 1e-6
        with pytest.raises(RiccatiNoSolutionError):
            solve_riccati(a, b, c, d, 0.99 * g_star)


def _one_mode_loop(b2):
    """dx = -x dt + dw + B2 dnu, dz = x dt, with one mode and zero rates."""
    b2 = np.asarray(b2, dtype=float).reshape(1, -1)
    mode = ClosedLoopMode(-ONE, ONE, b2, ONE, np.zeros((1, b2.shape[1])))
    return ClosedLoop((mode,), TransitionRateMatrix(np.zeros((1, 1))))


def test_coupled_check_single_mode_matches_norm():
    # single mode with zero rates reduces to the bounded-real LMI
    loop = _one_mode_loop(np.zeros((1, 0)))
    res = coupled_mode_check(loop, 2.0)
    assert res.feasible
    assert np.linalg.eigvalsh(res.p_modes[0])[0] > 0
    # noise offset tr(B^T P B) with B = 1
    assert res.noise_offset == pytest.approx(float(res.p_modes[0][0, 0]))
    res_tight = coupled_mode_check(loop, 0.9)
    assert not res_tight.feasible
    assert res_tight.p_modes is None and res_tight.noise_offset is None


def test_coupled_check_noise_offset_counts_noise_channels():
    # tr(B1^T P B1) + tr(B2^T P B2) at the returned P, here with B2 = [0.5, -2]
    b2 = np.array([[0.5, -2.0]])
    res = coupled_mode_check(_one_mode_loop(b2), 2.0)
    assert res.feasible
    p = res.p_modes[0]
    expected = float(np.trace(ONE.T @ p @ ONE)) + float(np.trace(b2.T @ p @ b2))
    assert res.noise_offset == pytest.approx(expected, rel=1e-14)
    assert res.noise_offset == pytest.approx(5.25 * float(p[0, 0]), rel=1e-14)


def test_coupled_check_reference_loop_by_sweep():
    from qhinf.qmodel import assemble_closed_loop

    loop = assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    found = None
    for g in (0.05, 0.1, 0.2, 0.5):
        res = coupled_mode_check(loop, g)
        if res.feasible:
            found = g
            break
    assert found is not None


def _zero_controller(n_modes):
    eye = np.eye(2)
    modes = tuple(
        ControllerMode(-eye, np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 0)), np.zeros((2, 0)))
        for _ in range(n_modes)
    )
    return Controller(modes, make_commutation_matrix(2))


def test_verify_closed_loop_zero_controller_passes_large_g():
    plant = demo.reference_plant()
    report = verify_closed_loop(plant, _zero_controller(3), 100.0)
    assert all(report.hurwitz)
    assert report.attenuation_ok


def _destabilizing_controller(n_modes):
    eye = np.eye(2)
    modes = tuple(
        ControllerMode(+eye, np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 0)), np.zeros((2, 0)))
        for _ in range(n_modes)
    )
    return Controller(modes, make_commutation_matrix(2))


def test_verify_closed_loop_destabilizing_controller_fails():
    report = verify_closed_loop(demo.reference_plant(), _destabilizing_controller(3), 100.0)
    assert not all(report.hurwitz)
    assert report.coupled is None
    assert not report.attenuation_ok


@pytest.mark.parametrize("make_ctrl", [_zero_controller, _destabilizing_controller])
@pytest.mark.parametrize("g", [0.0, -1.0])
def test_verify_closed_loop_rejects_nonpositive_level(make_ctrl, g):
    # the level is checked before the loop is assembled, so an unstable
    # mode does not turn a bad level into a FAIL report
    with pytest.raises(ValueError, match="positive"):
        verify_closed_loop(demo.reference_plant(), make_ctrl(3), g)


def test_verify_closed_loop_reference_controller_stable():
    report = verify_closed_loop(demo.reference_plant(), demo.reference_controller(), 0.5)
    assert all(report.hurwitz)
