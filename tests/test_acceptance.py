"""Acceptance gate: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The expensive synthesis pipeline is shared between criteria through
a module-scoped fixture.
"""

import numpy as np
import pytest
import scipy.linalg as sla

from qhinf import analysis, demo, jumpsim, optics, realizability, synthesis
from qhinf.qmodel import J2, ClosedLoop, ClosedLoopMode, TransitionRateMatrix, block_j


def _verdict(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def certified_design():
    plant = demo.reference_plant()
    g_star, result = synthesis.min_attenuation(plant, 0.01, 1.0, tol_g=1e-3)
    augmented = realizability.augment_jump_controller(result.controller)
    return plant, g_star, result, augmented


def test_criterion_1_realizability_identities_on_tabulated_data():
    ref = demo.reference_controller()
    worst_cr, worst_out = 0.0, 0.0
    for mode in ref.modes:
        b_full = np.hstack([mode.b, mode.e])
        cr = realizability.cr_residual(mode.a, b_full, J2, block_j(6))
        worst_cr = max(worst_cr, float(np.max(np.abs(cr))))
        out = mode.e[:, :2] - J2 @ mode.c.T @ J2
        worst_out = max(worst_out, float(np.max(np.abs(out))))
    ok = worst_cr <= 5e-3 and worst_out <= 1e-4
    _verdict(1, ok, f"commutation defect {worst_cr:.2e} (<=5e-3), "
                    f"output defect {worst_out:.2e} (<=1e-4)")


def test_criterion_2_augmentation_reproduction():
    expected = (1.2258, 1.3057, 1.4262)
    tols = (1e-3, 2e-3, 1e-3)
    ref = demo.reference_controller()
    gaps = []
    ok = True
    for mode, target, tol in zip(ref.modes, expected, tols):
        aug = realizability.augment_controller(mode, ref.theta_k)
        _, e_extra = realizability.noise_channels(aug)
        coeff = e_extra[0, 0]
        off_identity = float(np.max(np.abs(e_extra - coeff * np.eye(2))))
        gaps.append(abs(coeff - target))
        ok = ok and off_identity <= 1e-9 and abs(coeff - target) <= tol
    _verdict(2, ok, "repair gains vs tabulated: " +
             ", ".join(f"{g:.1e}" for g in gaps) + " (tols 1e-3/2e-3/1e-3)")


def test_criterion_3_mode_parameter_consistency():
    kappa_ref = (3.8761, 3.8534, 3.8332)
    chi_ref = (-0.1846, -0.3471, -0.5174)
    kappa1_ref = (2.3724, 2.1475, 1.7981)
    ref = demo.reference_controller()
    ok = True
    worst = 0.0
    for mode, k, x, k1 in zip(ref.modes, kappa_ref, chi_ref, kappa1_ref):
        err = max(
            abs(-np.trace(mode.a) - k),
            abs((mode.a[1, 1] - mode.a[0, 0]) / 2.0 - x),
            abs(mode.b[0, 0] * mode.b[1, 1] - k1),
        )
        worst = max(worst, err)
        ok = ok and err <= 2e-3
    _verdict(3, ok, f"worst deviation from tabulated mode parameters {worst:.2e} (<=2e-3)")


def test_criterion_6_synthesis_end_to_end(certified_design):
    plant, g_star, result, augmented = certified_design
    report = analysis.verify_closed_loop(plant, augmented, g_star)
    ref_report = analysis.verify_closed_loop(plant, demo.reference_controller(), 1.0)
    storage = synthesis.certify_design(plant, result, augmented, g_star)
    ok = (
        result.solution.feasible
        and storage.certified
        and report.attenuation_ok
        and report.solution.margin > 0
        and ref_report.attenuation_ok
        and 0.02 <= g_star <= 0.2  # pinned reference range for the bisected level
    )
    _verdict(6, ok, f"g* = {g_star:.4f}, loop margins {report.solution.margin:.2e}, "
                    f"storage {storage.summary()}, tabulated controller at g = 1: "
                    f"{ref_report.solution.summary()} ({ref_report.route} route)")


def test_criterion_7_simulation_consistency(certified_design):
    plant, g_star, _, augmented = certified_design

    # steady state against the Lyapunov solve
    a = np.array([[-1.0, 0.4], [-0.3, -0.8]])
    b1 = np.array([[1.0], [0.5]])
    b2 = np.array([[0.2], [0.1]])
    c = np.array([[1.0, 0.0]])
    loop1 = ClosedLoop(
        (ClosedLoopMode(a, b1, b2, c),),
        TransitionRateMatrix(np.zeros((1, 1))),
    )
    path = jumpsim.sample_markov_path(np.zeros((1, 1)), 60.0, seed=0)
    traj = jumpsim.propagate_moments(loop1, path, None, np.zeros(2), np.eye(2), dt=0.01)
    q_ss = sla.solve_continuous_lyapunov(a, -(b1 @ b1.T + b2 @ b2.T))
    ss_gap = float(np.max(np.abs(traj.second_moment[-1] - q_ss)))

    # exact propagation: a forced run does not depend on the sampling step,
    # down to a single step over the horizon
    dist = jumpsim.Disturbance("sin", np.array([1.0]), "sin", 0.7)
    path8 = jumpsim.sample_markov_path(np.zeros((1, 1)), 8.0, seed=0)

    def terminal(dt):
        traj = jumpsim.propagate_moments(
            loop1, path8, dist, np.array([0.3, -0.2]), np.eye(2), dt=dt, validate=False
        )
        return traj.mean[-1], traj.second_moment[-1], traj.output_energy, traj.input_energy

    ref = terminal(0.00125)
    spread = max(
        float(np.max(np.abs(np.subtract(x, y))) / np.max(np.abs(y)))
        for dt in (0.02, path8.t_end) for x, y in zip(terminal(dt), ref)
    )

    # certified loop stays below g^2 along 100 seeded fault paths
    loop = analysis.assemble_closed_loop(plant, augmented)
    probe = jumpsim.estimate_attenuation(loop, g_star, t_end=120.0, n_paths=100, seed=7)

    ok = ss_gap <= 1e-6 and spread <= 1e-10 and probe.passed
    _verdict(7, ok, f"steady-state gap {ss_gap:.1e} (<=1e-6), step spread {spread:.1e} "
                    f"(<=1e-10), probe max ratio {probe.max_ratio:.4g} < g^2 = {g_star**2:.4g} "
                    f"over {probe.ratios.shape[0]} paths")


def test_criterion_8_optics_round_trip_and_flags():
    ref = demo.reference_controller()
    ok = True
    details = []

    # inversion followed by reassembly: exact on drift and noise blocks,
    # product/ratio-exact on the measurement gain
    for i, mode in enumerate(ref.modes):
        e1, e2 = demo.REFERENCE_EXTRA_NOISE[i]
        real = optics.realize_controller_optics(mode, 10.0)
        rebuilt = optics.controller_from_optics(real)
        rebuilt_e1, rebuilt_e2 = realizability.noise_channels(rebuilt)
        ok = ok and np.max(np.abs(rebuilt.a - mode.a)) <= 1e-12
        ok = ok and np.max(np.abs(rebuilt_e1 - e1)) <= 1e-12
        ok = ok and np.max(np.abs(rebuilt_e2 - e2)) <= 1e-12
        prod_gap = abs(rebuilt.b[0, 0] * rebuilt.b[1, 1] - mode.b[0, 0] * mode.b[1, 1])
        ratio_gap = abs(
            rebuilt.b[1, 1] / rebuilt.b[0, 0] - mode.b[1, 1] / mode.b[0, 0]
        )
        ok = ok and prod_gap <= 2e-3 and ratio_gap <= 1e-9
        details.append(f"mode {i + 1} product gap {prod_gap:.1e}")

    # gain identities
    ok = ok and np.array_equal(optics.static_squeezer_gain(10.0, 0.0), np.eye(2))
    rng = np.random.default_rng(8)
    for _ in range(1000):
        kp = float(rng.uniform(0.5, 50.0))
        cp = float(rng.uniform(-0.499, 0.499) * kp)
        det = np.linalg.det(optics.static_squeezer_gain(kp, cp))
        if abs(det - 1.0) > 1e-10:
            ok = False
            details.append(f"determinant defect {det}")
            break

    # the static-squeezer pump discrepancy is reported as FLAG, not failure
    report = demo.run_paper_demo(quick=True)
    flags = [c for c in report["checks"] if c["status"] == "FLAG"]
    pump_flags = [c for c in flags if "static squeezer pump" in c["name"]]
    ok = ok and report["ok"] and len(pump_flags) == 3
    details.append(f"{len(pump_flags)} pump FLAG entries, demo ok = {report['ok']}")

    _verdict(8, ok, "; ".join(details))
