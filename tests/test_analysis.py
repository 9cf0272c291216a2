import numpy as np
import pytest

from qhinf import demo
from qhinf.analysis import coupled_mode_check, verify_closed_loop
from qhinf.qmodel import (
    ClosedLoop,
    ClosedLoopMode,
    Controller,
    ControllerMode,
    TransitionRateMatrix,
    make_commutation_matrix,
)

ONE = np.array([[1.0]])


def _one_mode_loop(b2, a=-1.0):
    """dx = a x dt + dw + B2 dnu, dz = x dt, with one mode and zero rates."""
    b2 = np.asarray(b2, dtype=float).reshape(1, -1)
    mode = ClosedLoopMode(a * ONE, ONE, b2, ONE, np.zeros((1, b2.shape[1])))
    return ClosedLoop((mode,), TransitionRateMatrix(np.zeros((1, 1))))


@pytest.mark.parametrize("a, norm", [(-1.0, 1.0), (-2.0, 0.5)])
def test_coupled_check_single_mode_matches_norm(a, norm):
    # one mode with zero rates reduces to the bounded-real LMI of the scalar
    # loop, whose H-infinity norm 1/|a| is reached at DC
    loop = _one_mode_loop(np.zeros((1, 0)), a)
    res = coupled_mode_check(loop, 1.02 * norm)
    assert res.feasible
    assert np.linalg.eigvalsh(res.p_modes[0])[0] > 0
    # noise offset tr(B^T P B) with B = 1
    assert res.noise_offset == pytest.approx(float(res.p_modes[0][0, 0]))
    res_tight = coupled_mode_check(loop, 0.98 * norm)
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
