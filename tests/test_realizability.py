import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhinf import demo
from qhinf.qmodel import J2, Controller, ControllerMode, block_j, make_commutation_matrix
from qhinf.realizability import (
    augment_controller,
    augment_jump_controller,
    check_controller_realizability,
    cr_residual,
    factor_skew_canonical,
    noise_channels,
    output_condition_residual,
)
from qhinf.synthesis import synthesize


def test_cr_residual_zero_system():
    assert np.max(np.abs(cr_residual(np.zeros((2, 2)), np.zeros((2, 2)), J2, J2))) == 0.0


def test_cr_residual_cavity():
    # lossy cavity in quadratures: the drift and input contributions cancel
    kappa = 1.0
    a = -(kappa / 2.0) * np.eye(2)
    b = -np.sqrt(kappa) * np.eye(2)
    res = cr_residual(a, b, J2, J2)
    assert np.max(np.abs(res)) <= 1e-14


def test_cr_residual_reference_controller_mode1():
    ref = demo.reference_controller()
    m = ref.modes[0]
    b_full = np.hstack([m.b, m.e])
    res = cr_residual(m.a, b_full, J2, block_j(6))
    assert np.max(np.abs(res)) <= 5e-3


@given(st.integers(0, 10**6))
def test_cr_residual_always_skew(seed):
    rng = np.random.default_rng(seed)
    n = 2 * rng.integers(1, 4)
    m = 2 * rng.integers(1, 4)
    a = rng.normal(size=(n, n))
    b = rng.normal(size=(n, m))
    res = cr_residual(a, b, block_j(int(n)), block_j(int(m)))
    assert np.max(np.abs(res + res.T)) <= 1e-14 * (1.0 + np.max(np.abs(res)))


def test_output_condition_zero_system():
    res = output_condition_residual(np.zeros((2, 2)), np.zeros((2, 2)), J2)
    assert np.max(np.abs(res)) == 0.0


def test_output_condition_cavity():
    res = output_condition_residual(-np.eye(2), np.eye(2), J2)
    assert np.max(np.abs(res)) <= 1e-14


def test_output_condition_reference_controller():
    ref = demo.reference_controller()
    for m in ref.modes:
        res = output_condition_residual(m.e[:, :2], m.c, J2)
        assert np.max(np.abs(res)) <= 1e-4


def test_output_condition_rejects_odd_output():
    with pytest.raises(ValueError, match="even"):
        output_condition_residual(np.zeros((2, 1)), np.zeros((1, 2)), J2)


def test_reference_controller_realizable_with_noise():
    report = check_controller_realizability(demo.reference_controller(), tol=5e-3)
    assert report.realizable


def test_reference_controller_not_realizable_without_its_feedthrough():
    # the tabulated noise blocks stay, but D = 0 routes the output through none of them
    ref = demo.reference_controller()
    zeroed = Controller(tuple(replace(m, d=np.zeros_like(m.d)) for m in ref.modes), ref.theta_k)
    base = check_controller_realizability(ref, tol=5e-3)
    report = check_controller_realizability(zeroed, tol=5e-3)
    assert not report.realizable
    assert report.cr_residuals == base.cr_residuals
    assert report.output_residuals == tuple(r + 1.0 for r in base.output_residuals)


@pytest.mark.parametrize("d", [np.zeros((2, 4)), np.eye(2, 4)[::-1], np.eye(2, 0)])
def test_noise_channels_rejects_other_layouts(d):
    mode = ControllerMode(J2, J2, J2, d, np.ones((2, d.shape[1])))
    with pytest.raises(ValueError, match=r"feedthrough D must be \[I 0\]"):
        noise_channels(mode)


def _without_noise(ctrl):
    # the bare controller: no noise channels, D and E empty
    return replace(ctrl, modes=tuple(replace(m, d=m.d[:, :0], e=m.e[:, :0]) for m in ctrl.modes))


def test_reference_controller_not_realizable_without_noise():
    # with the measurement input alone the commutation defect remains
    ref = _without_noise(demo.reference_controller())
    for m in ref.modes:
        res = cr_residual(m.a, m.b, J2, block_j(2))
        assert np.max(np.abs(res)) > 1.0


@given(st.integers(0, 10**6), st.integers(1, 4))
def test_skew_factorisation_property(seed, half):
    n = 2 * half  # up to 8
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    w = m - m.T
    e = factor_skew_canonical(w)
    scale = 1.0 + np.max(np.abs(w))
    assert np.max(np.abs(e @ block_j(e.shape[1]) @ e.T + w)) <= 1e-10 * scale


def test_skew_factorisation_aligned_forms():
    c = 1.5026
    e = factor_skew_canonical(-c * J2)
    assert np.allclose(e, np.sqrt(c) * np.eye(2), atol=1e-12)
    e2 = factor_skew_canonical(c * J2)
    assert np.allclose(e2, np.sqrt(c) * np.diag([1.0, -1.0]), atol=1e-12)


def test_skew_factorisation_drops_null_channels():
    w = np.zeros((4, 4))
    w[:2, :2] = -0.7 * J2
    e = factor_skew_canonical(w)
    assert e.shape == (4, 2)


@pytest.mark.parametrize("gains", [(-0.7, 2.3), (0.7, -2.3), (1.1, 1.1)])
def test_skew_factorisation_block_diagonal_keeps_coordinate_columns(gains):
    # diag(c1 J, c2 J, 0 J): each plane keeps its coordinate axes, the null plane is dropped
    w = np.zeros((6, 6))
    for k, c in enumerate(gains):
        w[2 * k:2 * k + 2, 2 * k:2 * k + 2] = c * J2
    e = factor_skew_canonical(w)
    expected = np.zeros((6, 4))
    for k, c in enumerate(gains):
        sign = np.eye(2) if c < 0 else np.diag([1.0, -1.0])
        expected[2 * k:2 * k + 2, 2 * k:2 * k + 2] = np.sqrt(abs(c)) * sign
    assert np.allclose(e, expected, rtol=0, atol=1e-12)


def test_skew_factorisation_rotated_repeated_gain_and_null_plane():
    w0 = np.zeros((6, 6))
    w0[:2, :2] = w0[2:4, 2:4] = 0.8 * J2
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(6, 6)))
    w = q @ w0 @ q.T
    w = 0.5 * (w - w.T)
    e = factor_skew_canonical(w)
    assert e.shape == (6, 4)
    assert np.max(np.abs(e @ block_j(4) @ e.T + w)) <= 1e-10 * (1.0 + np.max(np.abs(w)))


def test_augment_scaled_random_plant_controller():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("plants", root / "perfbench" / "plants.py")
    plants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plants)
    ctrl = synthesize(plants.random_plant(0, 4, 3, 0), 5.0).controller
    report = check_controller_realizability(augment_jump_controller(ctrl), tol=1e-9)
    assert report.realizable


def test_augment_reference_modes():
    expected = (1.2258, 1.3057, 1.4262)
    tols = (1e-3, 2e-3, 1e-3)
    ref = demo.reference_controller()
    for mode, coeff, tol in zip(ref.modes, expected, tols):
        aug = augment_controller(mode, ref.theta_k)
        e_out, e_extra = noise_channels(aug)
        assert np.allclose(e_out, 0.0331 * np.eye(2), atol=1e-12)
        assert np.max(np.abs(e_extra - e_extra[0, 0] * np.eye(2))) <= 1e-10
        assert abs(e_extra[0, 0] - coeff) <= tol
        assert np.array_equal(aug.d, np.hstack([np.eye(2), np.zeros((2, 2))]))


def test_augment_trivial_controller():
    zero = np.zeros((2, 2))
    aug = augment_controller(ControllerMode(zero, zero, zero, zero[:, :0], zero[:, :0]), J2)
    e_out, e_extra = noise_channels(aug)
    assert np.max(np.abs(e_out)) == 0.0
    assert e_extra.shape[1] == 0


def test_augment_idempotent_in_effect():
    synthesized = synthesize(demo.reference_plant(), 0.05).controller
    for ctrl in (_without_noise(demo.reference_controller()), synthesized):
        # n_u output channels plus repair channels in pairs: even before padding
        for m in ctrl.modes:
            assert augment_controller(m, ctrl.theta_k).e.shape[1] % 2 == 0
        aug_ctrl = augment_jump_controller(ctrl)
        report = check_controller_realizability(aug_ctrl, tol=1e-9)
        assert report.realizable
        assert report.worst() <= 1e-9


@given(st.integers(0, 10**6))
def test_augment_random_controllers(seed):
    rng = np.random.default_rng(seed)
    n_k, n_y, n_u = 2, 2, 2
    a = rng.normal(size=(n_k, n_k))
    b = rng.normal(size=(n_k, n_y))
    c = rng.normal(size=(n_u, n_k))
    aug = augment_controller(ControllerMode(a, b, c, np.zeros((n_u, 0)), np.zeros((n_k, 0))), J2)
    b_full = np.hstack([b, aug.e])
    res = cr_residual(a, b_full, J2, block_j(n_y + aug.e.shape[1]))
    assert np.max(np.abs(res)) <= 1e-9
    out = output_condition_residual(aug.e[:, :n_u], c, J2)
    assert np.max(np.abs(out)) <= 1e-12


def _realizable_system(rng, n, m, n_y):
    """Random realizable (A, B, C) in real quadrature form.

    With H symmetric, A = Theta H + B J B^T Theta / 2 satisfies
    A Theta + Theta A^T + B J B^T = 0, and C = J_y B_y^T Theta routes the
    first n_y input columns B_y through the output exactly.
    """
    theta = make_commutation_matrix(n)
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    b = rng.normal(size=(n, m))
    a = theta @ h + 0.5 * b @ block_j(m) @ b.T @ theta
    c = block_j(n_y) @ b[:, :n_y].T @ theta
    return theta, a, b, c


@given(st.integers(0, 10**6), st.integers(1, 2), st.integers(1, 3), st.data())
def test_realizable_generator_residuals_vanish(seed, n_half, m_half, data):
    n_y = 2 * data.draw(st.integers(1, m_half))
    theta, a, b, c = _realizable_system(np.random.default_rng(seed), 2 * n_half, 2 * m_half, n_y)
    scale = 1.0 + np.max(np.abs(a)) + np.max(np.abs(b)) ** 2
    assert np.max(np.abs(cr_residual(a, b, theta, block_j(2 * m_half)))) <= 1e-14 * scale
    # Theta and J_y only permute and negate entries, so this one is exact
    assert np.max(np.abs(output_condition_residual(b, c, theta))) == 0.0


def test_moment_propagation_preserves_skew_part():
    # commutation preservation implies the skew part of the full second
    # moment stays put under dK/dt = A K + K A^T + B T B^T
    theta, a, b, _ = _realizable_system(np.random.default_rng(15), 2, 2, 2)
    assert np.max(np.abs(a - np.diag(np.diag(a)))) > 0  # nontrivial drift
    assert np.max(np.linalg.eigvals(a).real) < 0  # a damped oscillation
    t_im = block_j(2)
    k = theta.copy()
    h = 0.002
    rhs = lambda kk: a @ kk + kk @ a.T + b @ t_im @ b.T  # noqa: E731
    for _ in range(2500):
        k1 = rhs(k)
        k2 = rhs(k + 0.5 * h * k1)
        k3 = rhs(k + 0.5 * h * k2)
        k4 = rhs(k + h * k3)
        k = k + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    assert np.max(np.abs(k - theta)) <= 1e-8


@pytest.mark.parametrize("check, message", [
    pytest.param(lambda: cr_residual(np.eye(2), np.eye(2), np.eye(3), J2),
                 "drift and commutation matrix must be square of equal size",
                 id="commutation size"),
    pytest.param(lambda: cr_residual(np.eye(2), np.eye(2), J2, np.eye(4)),
                 "input matrix and noise skew part have inconsistent shapes", id="noise size"),
    pytest.param(lambda: output_condition_residual(np.eye(2, 1), np.eye(2), J2),
                 "input matrix has fewer columns than the output dimension", id="few inputs"),
    pytest.param(lambda: output_condition_residual(np.eye(4, 2), np.eye(2), J2),
                 "state dimensions disagree", id="state size"),
    pytest.param(lambda: factor_skew_canonical(np.ones((2, 3))), "need a square matrix",
                 id="non-square skew"),
    pytest.param(lambda: factor_skew_canonical(np.eye(2)), "matrix is not skew-symmetric",
                 id="not skew"),
    pytest.param(lambda: augment_controller(
        ControllerMode(-np.eye(2), np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 0)),
                       np.zeros((2, 0))), make_commutation_matrix(2)),
                 "controller output dimension must be even", id="odd controller output"),
])
def test_realizability_input_checks_name_the_defect(check, message):
    with pytest.raises(ValueError, match=message):
        check()
