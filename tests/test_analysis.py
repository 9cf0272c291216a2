import importlib.util
from pathlib import Path

import numpy as np
import pytest

from qhinf import analysis, demo, lmi, realizability, synthesis
from qhinf.analysis import coupled_mode_check, coupled_problem, verify_closed_loop
from qhinf.qmodel import (
    ClosedLoop,
    ClosedLoopMode,
    Controller,
    ControllerMode,
    JumpPlant,
    TransitionRateMatrix,
    assemble_closed_loop,
    make_commutation_matrix,
)

ONE = np.array([[1.0]])


def _one_mode_loop(b2, a=-1.0):
    """dx = a x dt + dw + B2 dnu, dz = x dt, with one mode and zero rates."""
    b2 = np.asarray(b2, dtype=float).reshape(1, -1)
    mode = ClosedLoopMode(a * ONE, ONE, b2, ONE)
    return ClosedLoop((mode,), TransitionRateMatrix(np.zeros((1, 1))))


@pytest.mark.parametrize("a, norm", [(-1.0, 1.0), (-2.0, 0.5)])
def test_coupled_check_single_mode_matches_norm(a, norm):
    # one mode with zero rates reduces to the bounded-real LMI of the scalar
    # loop, whose H-infinity norm 1/|a| is reached at DC
    loop = _one_mode_loop(np.zeros((1, 0)), a)
    res = coupled_mode_check(loop, 1.02 * norm)
    assert res.attenuation_ok
    p = res.solution.assignment["P1"]
    assert np.linalg.eigvalsh(p)[0] > 0
    # noise offset tr(B^T P B) with B = 1
    assert res.noise_offset == pytest.approx(float(p[0, 0]))
    res_tight = coupled_mode_check(loop, 0.98 * norm)
    assert not res_tight.attenuation_ok
    assert res_tight.noise_offset is None


def test_coupled_check_noise_offset_counts_noise_channels():
    # tr(B1^T P B1) + tr(B2^T P B2) at the returned P, here with B2 = [0.5, -2]
    b2 = np.array([[0.5, -2.0]])
    res = coupled_mode_check(_one_mode_loop(b2), 2.0)
    assert res.attenuation_ok
    p = res.solution.assignment["P1"]
    expected = float(np.trace(ONE.T @ p @ ONE)) + float(np.trace(b2.T @ p @ b2))
    assert res.noise_offset == pytest.approx(expected, rel=1e-14)
    assert res.noise_offset == pytest.approx(5.25 * float(p[0, 0]), rel=1e-14)


def test_coupled_check_reference_loop_by_sweep():
    loop = assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    found = None
    for g in (0.05, 0.1, 0.2, 0.5):
        res = coupled_mode_check(loop, g)
        if res.attenuation_ok:
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
    assert report.attenuation_ok and report.route == "lyapunov"
    assert _mean_square_abscissa(assemble_closed_loop(plant, _zero_controller(3))) < 0


def _destabilizing_controller(n_modes):
    eye = np.eye(2)
    modes = tuple(
        ControllerMode(+eye, np.zeros((2, 2)), np.zeros((2, 2)),
                       np.zeros((2, 0)), np.zeros((2, 0)))
        for _ in range(n_modes)
    )
    return Controller(modes, make_commutation_matrix(2))


def test_verify_closed_loop_destabilizing_controller_fails():
    plant = demo.reference_plant()
    report = verify_closed_loop(plant, _destabilizing_controller(3), 100.0)
    assert report.solution.status == "infeasible-at-tolerance" and report.route == "barrier"
    assert not report.solution.feasible
    assert not report.attenuation_ok
    assert _mean_square_abscissa(assemble_closed_loop(plant, _destabilizing_controller(3))) > 0


def _mean_square_abscissa(loop):
    """Largest real eigenvalue of the second-moment generator
    blockdiag(I (x) A_i + A_i (x) I) + Pi^T (x) I: negative exactly when the
    jump loop is mean-square stable."""
    n2 = loop.n * loop.n
    gen = np.kron(loop.rates.pi.T, np.eye(n2))
    for i, m in enumerate(loop.modes):
        gen[i * n2:(i + 1) * n2, i * n2:(i + 1) * n2] += (
            np.kron(np.eye(loop.n), m.a) + np.kron(m.a, np.eye(loop.n)))
    return float(np.max(np.linalg.eigvals(gen).real))


def _unstable_mode_plant(rates, drifts=(-1.0, 0.1)):
    """Two-state plant with A_i = drifts[i] I; by default its second mode
    drifts away (A_2 = +0.1 I)."""
    eye = np.eye(2)
    return JumpPlant(a_modes=tuple(d * eye for d in drifts), b1=eye, b2=eye, c1=eye,
                     d1=-eye, c2=eye, d2=-eye, theta=make_commutation_matrix(2),
                     rates=TransitionRateMatrix(np.array(rates)))


# mode 2 is absorbing: it is entered at rate 0.5 and never left
ABSORBING_RATES = [[-0.5, 0.5], [0.0, 0.0]]


def test_verify_closed_loop_certifies_briefly_visited_unstable_mode():
    # the unstable mode is left at rate 5 and entered at rate 0.1: the loop is
    # mean-square stable although one mode's drift is not Hurwitz
    plant = _unstable_mode_plant([[-0.1, 0.1], [5.0, -5.0]])
    report = verify_closed_loop(plant, _zero_controller(2), 5.0)
    assert report.attenuation_ok
    assert report.solution.margin > 1e-6
    loop = assemble_closed_loop(plant, _zero_controller(2))
    assert _mean_square_abscissa(loop) < 0
    # held in its modes by zero rates, the same loop is not mean-square stable
    frozen = ClosedLoop(loop.modes, TransitionRateMatrix(np.zeros((2, 2))))
    assert _mean_square_abscissa(frozen) > 0


def test_verify_closed_loop_rejects_long_visited_unstable_mode():
    # mirrored rates keep the loop in the unstable mode: not mean-square stable
    plant = _unstable_mode_plant([[-1.0, 1.0], [0.1, -0.1]])
    report = verify_closed_loop(plant, _zero_controller(2), 5.0)
    assert not report.attenuation_ok
    assert _mean_square_abscissa(assemble_closed_loop(plant, _zero_controller(2))) > 0


@pytest.mark.parametrize("drifts, certified", [
    ((0.1, -1.0), True),  # the unstable mode is transient
    ((-1.0, 0.1), False),  # the absorbing mode is unstable
])
def test_verify_closed_loop_with_an_absorbing_mode(drifts, certified):
    plant = _unstable_mode_plant(ABSORBING_RATES, drifts)
    report = verify_closed_loop(plant, _zero_controller(2), 20.0)
    assert report.attenuation_ok is certified
    assert report.solution.status == ("feasible" if certified else "infeasible-at-tolerance")
    assert (report.solution.margin > 0) is certified
    assert (_mean_square_abscissa(assemble_closed_loop(plant, _zero_controller(2))) < 0) \
        is certified


def test_synthesis_stabilises_an_unstable_absorbing_mode():
    plant = _unstable_mode_plant(ABSORBING_RATES)
    result = synthesis.synthesize(plant, 5.0)
    assert result.solution.feasible
    aug = realizability.augment_jump_controller(result.controller)
    loop = assemble_closed_loop(plant, aug)
    assert verify_closed_loop(plant, aug, 5.0).attenuation_ok
    # the barrier solve's first Newton iterate certifies, with margin 0.374
    solution = lmi.solve_feasibility(coupled_problem(loop, 5.0))
    assert solution.iterations == 1
    assert solution.margin > 0.37
    assert _mean_square_abscissa(loop) < 0


@pytest.mark.parametrize("make_ctrl", [_zero_controller, _destabilizing_controller])
@pytest.mark.parametrize("g", [0.0, -1.0])
def test_verify_closed_loop_rejects_nonpositive_level(make_ctrl, g):
    # a bad level is an input error, not a FAIL report, whatever the loop
    with pytest.raises(ValueError, match="positive"):
        verify_closed_loop(demo.reference_plant(), make_ctrl(3), g)


def test_verify_closed_loop_reference_controller_stable():
    plant, ctrl = demo.reference_plant(), demo.reference_controller()
    report = verify_closed_loop(plant, ctrl, 0.5)
    assert report.attenuation_ok and report.route == "lyapunov"
    assert _mean_square_abscissa(assemble_closed_loop(plant, ctrl)) < 0


@pytest.fixture(scope="module")
def reference_design():
    """(g*, augmented controller) of the reference level search at tol_g 5e-3."""
    g_star, result = synthesis.min_attenuation(demo.reference_plant(), 0.01, 1.0, tol_g=5e-3)
    return g_star, realizability.augment_jump_controller(result.controller)


def _certify_at_the_first_certified_iterate(plant, aug, g, monkeypatch):
    """Certify aug at g on plant with the barrier solve of its coupled
    problem; assert that one Newton step fewer does not certify, so the solve
    stopped at its first certified iterate, and return its steps."""
    problem = coupled_problem(assemble_closed_loop(plant, aug), g)
    solution = lmi.solve_feasibility(problem)
    assert solution.feasible
    assert solution.margin >= lmi.EPS_STRICT
    steps = solution.iterations
    with monkeypatch.context() as patch:
        patch.setattr(lmi, "MAX_ITER", steps - 1)
        short = lmi.solve_feasibility(problem)
    assert not short.feasible
    assert short.status == "undecided" and short.iterations == steps - 1
    assert "the Newton step budget ran out" in short.notes
    return steps


def _plants_module():
    spec = importlib.util.spec_from_file_location(
        "plants", Path(__file__).resolve().parents[1] / "perfbench" / "plants.py")
    plants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plants)
    return plants


def _random_design(seed, n, modes):
    """(plant, augmented controller) of the synthesis at g = 5 of
    ``random_plant(seed, n, modes, 0)``."""
    plant = _plants_module().random_plant(seed, n, modes, 0)
    return plant, realizability.augment_jump_controller(synthesis.synthesize(plant, 5.0).controller)


@pytest.fixture(scope="module")
def scaled_design():
    """(plant, augmented controller) of the synthesis at g = 5 of the seeded
    4-state, 3-mode random plant (the scripts/bench.py 4x3 grid point)."""
    return _random_design(0, 4, 3)


def test_certification_of_scaled_random_design_stops_at_first_certificate(scaled_design,
                                                                          monkeypatch):
    # the coupled Lyapunov storage does not certify this design, whose
    # synthesis stopped at its third Newton iterate; the barrier's third
    # Newton iterate does (and so does one Kleinman step, below)
    plant, aug = scaled_design
    assert _certify_at_the_first_certified_iterate(plant, aug, 5.0, monkeypatch) == 3


def _no_barrier(problem, **kwargs):
    raise AssertionError("the barrier solve ran")


@pytest.mark.parametrize("coordinates", ["seeded", "rotated"])
def test_scaled_design_certifies_from_its_lyapunov_storage(coordinates, monkeypatch):
    # the coupled Lyapunov storage certifies the 6x3 design at g = 5 with no
    # Newton step, in its own coordinates and in random ones drawn as the
    # scaled-design benchmark draws them
    plants = _plants_module()
    plant = plants.random_plant(0, 6, 3, 0)
    if coordinates == "rotated":
        plant = plants.rotated_plant(plant, 1, 0)
    aug = realizability.augment_jump_controller(synthesis.synthesize(plant, 5.0).controller)
    loop = assemble_closed_loop(plant, aug)
    monkeypatch.setattr(lmi, "solve_feasibility", _no_barrier)
    report = coupled_mode_check(loop, 5.0)
    solution = report.solution
    assert report.route == "lyapunov" and report.attenuation_ok
    assert (solution.status, solution.iterations, solution.objective_iterations) == (
        "feasible", 0, 0)
    assert solution.notes == ("coupled Lyapunov storage",)
    assert solution.margin >= lmi.EPS_STRICT and solution.t_achieved == -solution.margin
    # the margin is the one the expressions give at the returned P_i
    problem = coupled_problem(loop, 5.0)
    assert solution.constraint_margins == lmi._verified_margins(problem, solution.assignment)
    assert solution.margin == min(solution.constraint_margins)
    # P_C + eps P_I makes every mode's (1, 1) block exactly -eps I, one eps for all
    ps = [solution.assignment[f"P{i + 1}"] for i in range(loop.n_modes)]
    corners = [m.a.T @ ps[i] + ps[i] @ m.a + m.c.T @ m.c
               + sum(rate * p for rate, p in zip(loop.rates.pi[i], ps))
               for i, m in enumerate(loop.modes)]
    eps = -corners[0][0, 0]
    for corner, p in zip(corners, ps):
        assert np.max(np.abs(corner + eps * np.eye(loop.n))) <= 1e-9 * np.max(np.abs(p))
    assert eps >= solution.margin
    assert report.noise_offset == max(
        float(np.trace(m.b1.T @ p @ m.b1)) + float(np.trace(m.b2.T @ p @ m.b2))
        for m, p in zip(loop.modes, ps))


def test_coupled_lyapunov_solves_both_equations():
    # A_i^T P_i + P_i A_i + sum_j pi_ij P_j = -Q_i for Q_i = C_i^T C_i and I
    loop = assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    drifts = np.stack([m.a for m in loop.modes])
    rhs = np.stack([[m.c.T @ m.c for m in loop.modes], [np.eye(loop.n)] * loop.n_modes])
    for q, ps in zip((lambda m: m.c.T @ m.c, lambda m: np.eye(loop.n)),
                     analysis._coupled_lyapunov(drifts, loop.rates.pi, rhs)):
        for i, m in enumerate(loop.modes):
            lhs = m.a.T @ ps[i] + ps[i] @ m.a + sum(r * p for r, p in zip(loop.rates.pi[i], ps))
            assert np.max(np.abs(lhs + q(m))) <= 1e-12 * (1.0 + np.max(np.abs(ps)))
            assert np.array_equal(ps[i], ps[i].T)


@pytest.mark.parametrize("case", ["tabulated at 0.2", "random 0 4x3", "random 4 2x3",
                                  "random 0 4x2"])
def test_riccati_certificates_also_certify_by_the_barrier(case, scaled_design, monkeypatch):
    # the Lyapunov storage of each loop falls short; one Kleinman step from
    # it certifies, with no barrier solve, and the barrier alone certifies
    # the same problem too
    if case == "tabulated at 0.2":
        plant, aug, g = demo.reference_plant(), demo.reference_controller(), 0.2
    elif case == "random 0 4x3":
        (plant, aug), g = scaled_design, 5.0
    else:
        seed, n, modes = (int(v) for v in case.replace("x", " ").split()[1:])
        (plant, aug), g = _random_design(seed, n, modes), 5.0
    loop = assemble_closed_loop(plant, aug)
    problem = coupled_problem(loop, g)
    with monkeypatch.context() as patch:
        patch.setattr(lmi, "solve_feasibility", _no_barrier)
        report = coupled_mode_check(loop, g)
    solution = report.solution
    assert report.route == "riccati" and report.attenuation_ok
    assert solution.notes == ("coupled Riccati storage after 1 Kleinman step",)
    assert (solution.iterations, solution.t_achieved) == (0, -solution.margin)
    assert solution.constraint_margins == lmi._verified_margins(problem, solution.assignment)
    assert solution.margin == min(solution.constraint_margins) >= lmi.EPS_STRICT
    assert lmi.solve_feasibility(problem).feasible


def test_riccati_steps_give_up_on_a_loop_that_is_not_mean_square_stable(monkeypatch):
    # controller states with A_K = 0, fed back through B_K = C_K = I: the
    # loop is not mean-square stable, the Kleinman steps give up without
    # raising, and the barrier rejects the loop
    eye = np.eye(2)
    ctrl = Controller(tuple(ControllerMode(0.0 * eye, eye, eye, np.zeros((2, 0)),
                                           np.zeros((2, 0))) for _ in range(3)),
                      make_commutation_matrix(2))
    loop = assemble_closed_loop(demo.reference_plant(), ctrl)
    assert _mean_square_abscissa(loop) > 0
    attempts, riccati = [], analysis._riccati_storage

    def recording(*args):
        attempts.append(riccati(*args))
        return attempts[-1]

    monkeypatch.setattr(analysis, "_riccati_storage", recording)
    report = coupled_mode_check(loop, 5.0)
    assert attempts == [None]
    assert report.route == "barrier"
    assert report.solution.status == "infeasible-at-tolerance"


def test_tabulated_controller_at_a_tight_level_takes_the_barrier():
    # at 0.17, near the loop's exact level 0.16628, neither closed-form
    # storage certifies; the barrier does, in 31 Newton steps
    loop = assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    report = coupled_mode_check(loop, 0.17)
    assert report.route == "barrier" and report.attenuation_ok
    assert report.solution.iterations == 31


def test_reference_design_at_its_level_falls_back_to_the_barrier(reference_design):
    # the level is tight: the Lyapunov storage does not certify, and the
    # verdict is the barrier solve's own
    g_star, aug = reference_design
    loop = assemble_closed_loop(demo.reference_plant(), aug)
    report = coupled_mode_check(loop, g_star)
    barrier = lmi.solve_feasibility(coupled_problem(loop, g_star))
    assert report.route == "barrier" and report.attenuation_ok
    assert report.solution.iterations == barrier.iterations == 43
    assert report.solution.margin == barrier.margin
    assert np.array_equal(report.solution.assignment["P1"], barrier.assignment["P1"])


def test_destabilizing_controller_stays_infeasible_from_the_barrier():
    report = verify_closed_loop(demo.reference_plant(), _destabilizing_controller(3), 100.0)
    assert report.route == "barrier"
    assert report.solution.status == "infeasible-at-tolerance"
    assert report.solution.iterations > 0


@pytest.mark.parametrize("loop", [
    pytest.param(lambda: assemble_closed_loop(_unstable_mode_plant(ABSORBING_RATES),
                                              _zero_controller(2)), id="unstable-absorbing"),
    pytest.param(lambda: assemble_closed_loop(_unstable_mode_plant([[-1.0, 1.0], [0.1, -0.1]]),
                                              _zero_controller(2)), id="long-visited-unstable"),
    pytest.param(lambda: _one_mode_loop(np.zeros((1, 0)), 0.0), id="singular"),
])
def test_lyapunov_route_falls_back_on_unstable_loops(loop):
    # an indefinite or singular Lyapunov solve only loses the closed form; the
    # barrier decides, and no RuntimeWarning (an error under this suite) escapes
    loop = loop()
    problem = coupled_problem(loop, 5.0)
    assert analysis._lyapunov_storage(loop, 5.0, problem) is None
    report = coupled_mode_check(loop, 5.0)
    assert report.route == "barrier" and not report.attenuation_ok
    assert report.solution.iterations > 0


def test_reference_design_certifies_at_its_level_at_the_first_certified_iterate(
        reference_design, monkeypatch):
    g_star, aug = reference_design
    plant = demo.reference_plant()
    assert _certify_at_the_first_certified_iterate(plant, aug, g_star, monkeypatch) == 43


def test_reference_design_certifies_at_its_level_from_a_unit_start(monkeypatch):
    # with a unit starting weight, design and certification follow the fixed
    # schedule's Newton path; the equilibrated Newton solve must not move it
    monkeypatch.setattr(lmi, "_starting_weight", lambda oriented, x: (1.0, None))
    plant = demo.reference_plant()
    g_star, result = synthesis.min_attenuation(plant, 0.01, 1.0, tol_g=5e-3)
    assert g_star == pytest.approx(0.03945961343404557, rel=1e-12)
    aug = realizability.augment_jump_controller(result.controller)
    assert _certify_at_the_first_certified_iterate(plant, aug, g_star, monkeypatch) == 61


def _parity_loops(g_star, aug):
    plant = demo.reference_plant()
    return [
        (assemble_closed_loop(_unstable_mode_plant([[-0.1, 0.1], [5.0, -5.0]]),
                              _zero_controller(2)), 5.0, True),
        (assemble_closed_loop(_unstable_mode_plant([[-1.0, 1.0], [0.1, -0.1]]),
                              _zero_controller(2)), 5.0, False),
        (assemble_closed_loop(plant, aug), g_star, True),
        (assemble_closed_loop(plant, aug), 0.9 * g_star, False),
        (assemble_closed_loop(plant, _destabilizing_controller(3)), 100.0, False),
    ]


def test_first_certificate_stop_keeps_every_verdict(reference_design):
    # the same coupled problems, solved by a barrier that accepts no
    # certified iterate and so runs on to its stall test, give the same
    # verdicts; a feasible one is verified past eps_strict either way
    for loop, g, verdict in _parity_loops(*reference_design):
        first = lmi.solve_feasibility(coupled_problem(loop, g))
        reference = lmi.solve_feasibility(coupled_problem(loop, g), ready=lambda _: False)
        assert first.feasible == reference.feasible == verdict
        assert first.iterations <= reference.iterations
        if verdict:
            assert min(first.margin, reference.margin) >= lmi.EPS_STRICT
        else:
            assert first.status == reference.status
