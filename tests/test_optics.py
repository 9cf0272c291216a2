import numpy as np
import pytest
from hypothesis import given, strategies as st

from qhinf import demo, realizability
from qhinf.optics import (
    OpticalRealization,
    controller_fit_report,
    controller_from_optics,
    opo_plant,
    realize_controller_optics,
    static_squeezer_gain,
)
from qhinf.qmodel import ControllerMode, block_j
from qhinf.realizability import noise_channels


def test_opo_plant_reference_mode_drifts():
    plant = demo.reference_plant()
    assert np.max(np.abs(plant.a_modes[1] - np.diag([-0.4965, -0.3310]))) <= 5e-5
    assert np.max(np.abs(plant.b1 - 0.9091 * np.eye(2))) <= 1e-4


def test_opo_plant_pump_off():
    plant = opo_plant(0.8264, 0.0011, [0.0], np.zeros((1, 1)))
    assert np.allclose(plant.a_modes[0], -0.41375 * np.eye(2), atol=1e-12)


def test_opo_plant_shared_blocks():
    plant = demo.reference_plant()
    k1, k2 = 0.8264, 0.0011
    assert np.allclose(plant.b2, np.sqrt(k2) * np.eye(2))
    assert np.allclose(plant.c1, np.sqrt(k2) * np.eye(2))
    assert np.allclose(plant.c2, np.sqrt(k1) * np.eye(2))
    assert np.array_equal(plant.d1, -np.eye(2))
    assert np.array_equal(plant.d2, -np.eye(2))


def test_opo_plant_rejects_amplifier_violation():
    with pytest.raises(ValueError, match="amplifier"):
        opo_plant(0.8, 0.2, [0.6], np.zeros((1, 1)))


def test_opo_plant_realizable_with_design_convention():
    # the OPO equations pair B = +sqrt(kappa) with outputs y = C x - w;
    # in the map convention that corresponds to flipping the input sign
    plant = demo.reference_plant()
    b_full = np.hstack([plant.b1, plant.b2])
    for a in plant.a_modes:
        res = realizability.cr_residual(a, b_full, plant.theta, block_j(4))
        assert np.max(np.abs(res)) <= 1e-9
    out = realizability.output_condition_residual(-b_full, plant.c2, plant.theta)
    assert np.max(np.abs(out)) <= 1e-9


def test_static_squeezer_gain_values():
    assert np.array_equal(static_squeezer_gain(10.0, 0.0), np.eye(2))
    g = static_squeezer_gain(10.0, 0.6237)
    assert np.max(np.abs(np.diag(g) - [0.7782, 1.2851])) <= 1e-4


def test_static_squeezer_gain_rejects_overdriven_pump():
    with pytest.raises(ValueError, match="pump"):
        static_squeezer_gain(10.0, 5.0)


@given(st.integers(0, 10**6))
def test_static_squeezer_unit_determinant_and_swap(seed):
    rng = np.random.default_rng(seed)
    kp = float(rng.uniform(0.5, 50.0))
    cp = float(rng.uniform(-0.49, 0.49) * kp)
    g = static_squeezer_gain(kp, cp)
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
    g_flip = static_squeezer_gain(kp, -cp)
    assert np.allclose(np.diag(g_flip), np.diag(g)[::-1])


def _optical_mode(a, b, e1, e2):
    """Controller mode with noise blocks e1, e2 in the layout D = [I 0]."""
    return ControllerMode(a, b, np.zeros((2, 2)), np.eye(2, 4), np.hstack([e1, e2]))


MODE1 = OpticalRealization(
    kappa=3.8761, kappa1=2.3724, kappa2=0.0011, kappa3=1.5026,
    chi=-0.1846, kappa_prime=10.0, chi_prime=0.6237,
)


def test_controller_from_optics_mode1():
    m = controller_from_optics(MODE1)
    e1, e2 = noise_channels(m)
    assert np.max(np.abs(np.diag(m.a) - [-1.7535, -2.1226])) <= 2e-4
    assert np.max(np.abs(np.diag(e1) - 0.0331)) <= 1e-4
    assert np.max(np.abs(np.diag(e2) - 1.2258)) <= 1e-4
    assert np.allclose(m.c, -np.sqrt(0.0011) * np.eye(2))
    assert np.array_equal(m.d, np.hstack([np.eye(2), np.zeros((2, 2))]))
    # gain formula disagrees with the tabulated measurement matrix: this is
    # the recorded discrepancy, surfaced as a FLAG by the demo pipeline
    assert np.max(np.abs(np.diag(m.b) - [1.1987, 1.9793])) <= 1e-4
    assert np.max(np.abs(np.diag(m.b) - [1.2524, 1.8944])) > 0.05


def test_controller_from_optics_passive_cavity():
    real = OpticalRealization(kappa=2.0, kappa1=2.0, kappa2=0.0, kappa3=0.0,
                              chi=0.0, kappa_prime=10.0, chi_prime=0.0)
    m = controller_from_optics(real)
    assert np.allclose(m.a, -1.0 * np.eye(2))
    assert np.allclose(m.b, np.sqrt(2.0) * np.eye(2))


def test_realize_reference_mode1():
    ref = demo.reference_controller()
    real = realize_controller_optics(ref.modes[0], 10.0)
    assert real.kappa == pytest.approx(3.8761, abs=1e-12)
    assert real.chi == pytest.approx(-0.1846, abs=1e-4)
    assert real.kappa1 == pytest.approx(2.3724, abs=2e-3)
    assert real.kappa2 == pytest.approx(0.0011, abs=1e-4)
    assert real.kappa3 == pytest.approx(1.5026, abs=1e-3)
    assert real.chi_prime == pytest.approx(0.5155, abs=1e-4)


@pytest.mark.parametrize("kappa_prime", [np.nan, np.inf, 0.0, -1.0])
def test_static_squeezer_rejects_bad_kappa_prime(kappa_prime):
    with pytest.raises(ValueError, match="kappa_prime"):
        static_squeezer_gain(kappa_prime, 0.0)
    with pytest.raises(ValueError, match="kappa_prime"):
        OpticalRealization(kappa=2.0, kappa1=2.0, kappa2=0.0, kappa3=0.0,
                           chi=0.0, kappa_prime=kappa_prime, chi_prime=0.0)
    ref = demo.reference_controller()
    with pytest.raises(ValueError, match="kappa_prime"):
        realize_controller_optics(ref.modes[0], kappa_prime)


def test_realize_rejects_exhausted_decay_budget():
    a = -np.eye(2)
    with pytest.raises(ValueError, match="decay budget"):
        realize_controller_optics(_optical_mode(a, np.eye(2), np.eye(2), np.eye(2)), 10.0)


def test_realize_rejects_nondiagonal():
    with pytest.raises(ValueError, match="diagonal"):
        realize_controller_optics(_optical_mode(np.array([[1.0, 0.5], [0.0, 1.0]]),
                                                np.eye(2), 0.1 * np.eye(2), 0.1 * np.eye(2)))


def test_realize_rejects_mixed_sign_gains():
    a = np.diag([-2.0, -3.0])
    with pytest.raises(ValueError, match="share a sign"):
        realize_controller_optics(
            _optical_mode(a, np.diag([1.0, -1.0]), 0.1 * np.eye(2), 0.1 * np.eye(2)))


@given(st.integers(0, 10**6))
def test_round_trip_from_parameters(seed):
    rng = np.random.default_rng(seed)
    k1 = float(rng.uniform(0.5, 4.0))
    k2 = float(rng.uniform(0.0, 1.0))
    k3 = float(rng.uniform(0.0, 2.0))
    kappa = k1 + k2 + k3
    real = OpticalRealization(
        kappa=kappa, kappa1=k1, kappa2=k2, kappa3=k3,
        chi=float(rng.uniform(-0.4, 0.4) * kappa),
        kappa_prime=10.0,
        chi_prime=float(rng.uniform(-4.9, 4.9)),
    )
    m = controller_from_optics(real)
    back = realize_controller_optics(m, kappa_prime=10.0)
    assert back.kappa == pytest.approx(real.kappa, abs=1e-9)
    assert back.chi == pytest.approx(real.chi, abs=1e-9)
    assert back.kappa1 == pytest.approx(real.kappa1, abs=1e-9)
    assert back.kappa2 == pytest.approx(real.kappa2, abs=1e-9)
    assert back.kappa3 == pytest.approx(real.kappa3, abs=1e-9)
    assert back.chi_prime == pytest.approx(real.chi_prime, abs=1e-9)


def test_fit_report_flags_product_gap():
    ref = demo.reference_controller()
    for mode in ref.modes:
        _, fit = controller_fit_report(mode, 10.0)
        assert fit["consistent"]
        assert fit["product_gap"] <= 2e-3


def test_mode_parameter_consistency_tables():
    # tabulated mode parameters against the tabulated controller matrices
    ref = demo.reference_controller()
    for i, mode in enumerate(ref.modes):
        params = demo.REFERENCE_MODE_PARAMS[i]
        assert -np.trace(mode.a) == pytest.approx(params["kappa"], abs=2e-3)
        assert (mode.a[1, 1] - mode.a[0, 0]) / 2.0 == pytest.approx(params["chi"], abs=2e-3)
        assert mode.b[0, 0] * mode.b[1, 1] == pytest.approx(params["kappa1"], abs=2e-3)
        e1, e2 = demo.REFERENCE_EXTRA_NOISE[i]
        assert e1[0, 0] ** 2 == pytest.approx(params["kappa2"], abs=1e-3)
        assert e2[0, 0] ** 2 == pytest.approx(params["kappa3"], abs=1e-3)


def _realization(**changes):
    """Valid optical parameters (kappa = kappa1 + kappa2 + kappa3), changed by
    ``changes``."""
    params = dict(kappa=6.0, kappa1=1.0, kappa2=2.0, kappa3=3.0, chi=0.5, kappa_prime=10.0,
                  chi_prime=1.0)
    return OpticalRealization(**{**params, **changes})


def _diagonal_mode(e_out):
    """A 2-state mode with D = [I 0], unit measurement gains, E_extra = I and
    the first noise block ``e_out``."""
    eye = np.eye(2)
    return ControllerMode(-3.0 * eye, eye, -eye, np.eye(2, 4), np.hstack([e_out, eye]))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: _realization(kappa=7.0), "total decay 7.0 does not match mirror sum 6.0",
                 id="decay sum"),
    pytest.param(lambda: _realization(kappa=4.0, kappa1=-1.0), "kappa1 must be nonnegative",
                 id="negative mirror"),
    pytest.param(lambda: _realization(chi_prime=5.0),
                 r"static squeezer pump must satisfy \|chi'\| < kappa'/2", id="squeezer pump"),
    pytest.param(lambda: opo_plant(0.0, 1.0, [0.0], [[0.0]]),
                 "mirror decay rates must be positive", id="mirror decay"),
    pytest.param(lambda: realize_controller_optics(ControllerMode(
        -np.eye(4), np.zeros((4, 2)), np.zeros((2, 4)), np.eye(2, 4), np.zeros((4, 4)))),
                 "controller drift must be 2x2", id="drift size"),
    pytest.param(lambda: realize_controller_optics(_diagonal_mode(np.diag([1.0, 2.0]))),
                 "first noise block must be a scalar multiple of the identity",
                 id="unequal output noise"),
])
def test_optics_input_checks_name_the_defect(build, message):
    with pytest.raises(ValueError, match=message):
        build()
