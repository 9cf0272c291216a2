import numpy as np
import pytest

from qhinf.qmodel import (
    J2,
    CommutationMatrix,
    JumpPlant,
    TransitionRateMatrix,
    as_rate_matrix,
    assemble_closed_loop,
    block_j,
    make_commutation_matrix,
    validate_generator,
)


@pytest.mark.parametrize("m", [0, 2, 4, 6, 8])
def test_block_j_is_bit_identical_to_kron(m):
    expected = np.kron(np.eye(m // 2), J2)
    got = block_j(m)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_canonical_commutation_matrix():
    th = make_commutation_matrix(2)
    assert np.array_equal(th.theta, J2)
    th4 = make_commutation_matrix(4)
    assert np.array_equal(th4.theta, np.kron(np.eye(2), J2))


def test_degenerate_commutation_matrix():
    th = make_commutation_matrix(4, "degenerate", null_dim=2)
    expected = np.zeros((4, 4))
    expected[2:, 2:] = J2
    assert np.array_equal(th.theta, expected)
    # all-zero variant is allowed
    th0 = make_commutation_matrix(4, "degenerate", null_dim=4)
    assert np.max(np.abs(th0.theta)) == 0.0


@pytest.mark.parametrize(
    "n,kind,null_dim",
    [(3, "canonical", None), (0, "canonical", None), (4, "degenerate", 1),
     (4, "degenerate", 0), (4, "degenerate", 5), (2, "weird", None)],
)
def test_commutation_matrix_rejects(n, kind, null_dim):
    with pytest.raises(ValueError):
        make_commutation_matrix(n, kind, null_dim)


@pytest.mark.parametrize(
    "n,kind,null_dim,named",
    [(3, "canonical", 0, "even and positive"), (2, "weird", 0, "unknown"),
     (4, "canonical", 2, "does not take"), (4, "degenerate", 1, "invalid null block"),
     (4, "degenerate", 0, "invalid null block"), (4, "degenerate", 6, "invalid null block")],
)
def test_commutation_matrix_constructor_validates(n, kind, null_dim, named):
    with pytest.raises(ValueError, match=named):
        CommutationMatrix(n, kind, null_dim)


def test_commutation_matrix_constructor_builds_theta():
    assert CommutationMatrix(4, "canonical", 0) == make_commutation_matrix(4)
    deg = CommutationMatrix(4, "degenerate", 2)
    assert np.array_equal(deg.theta, make_commutation_matrix(4, "degenerate", 2).theta)
    assert not deg.theta.flags.writeable


@pytest.mark.parametrize("n", [2, 4, 6])
def test_theta_structure_identities(n):
    th = make_commutation_matrix(n)
    assert np.array_equal(th.theta, -th.theta.T)
    assert np.array_equal(th.theta @ th.theta, -np.eye(n))
    deg = make_commutation_matrix(n + 2, "degenerate", null_dim=2)
    blk = deg.theta[2:, 2:]
    assert np.array_equal(blk @ blk, -np.eye(n))


def test_generator_validation():
    ok = validate_generator(np.array([[-0.02, 0.01, 0.01], [0.01, -0.01, 0.0], [0.01, 0.0, -0.01]]))
    assert ok.ok
    assert validate_generator(np.zeros((3, 3))).ok
    bad = validate_generator(np.array([[-1.0, 2.0], [-0.5, 0.5]]))
    assert not bad.ok
    kinds = {(v[0], v[1], v[2]) for v in bad.violations}
    assert ("negative_offdiag", 1, 0) in kinds
    # the first row sums to 1, also flagged
    assert any(v[0] == "row_sum" and v[1] == 0 for v in bad.violations)


def test_rate_matrix_constructor_rejects():
    with pytest.raises(ValueError):
        TransitionRateMatrix(np.array([[-1.0, 2.0], [-0.5, 0.5]]))


def test_as_rate_matrix_passes_through_or_builds():
    rates = TransitionRateMatrix(np.array([[-0.5, 0.5], [0.5, -0.5]]))
    assert as_rate_matrix(rates) is rates
    built = as_rate_matrix([[-0.5, 0.5], [0.5, -0.5]])
    assert np.array_equal(built.pi, rates.pi)
    with pytest.raises(ValueError, match=r"^invalid transition-rate matrix: \(\('row_sum'"):
        as_rate_matrix([[-1.0, 2.0], [0.5, -0.5]])


def _toy_plant(n_modes=2):
    rng = np.random.default_rng(5)
    a_modes = tuple(rng.normal(size=(2, 2)) - 2 * np.eye(2) for _ in range(n_modes))
    pi = np.full((n_modes, n_modes), 0.1)
    np.fill_diagonal(pi, -0.1 * (n_modes - 1))
    return JumpPlant(
        a_modes=a_modes,
        b1=rng.normal(size=(2, 2)),
        b2=rng.normal(size=(2, 2)),
        c1=rng.normal(size=(2, 2)),
        d1=rng.normal(size=(2, 2)),
        c2=rng.normal(size=(2, 2)),
        d2=rng.normal(size=(2, 2)),
        theta=make_commutation_matrix(2),
        rates=TransitionRateMatrix(pi),
    )


def _toy_controller(n_modes=2, n_nu=2):
    from qhinf.qmodel import Controller, ControllerMode

    rng = np.random.default_rng(17)
    modes = tuple(
        ControllerMode(
            rng.normal(size=(2, 2)) - 2 * np.eye(2),
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, 2)),
            rng.normal(size=(2, n_nu)),
            rng.normal(size=(2, n_nu)),
        )
        for _ in range(n_modes)
    )
    return Controller(modes, make_commutation_matrix(2))


def test_closed_loop_block_placement_exact():
    plant = _toy_plant()
    ctrl = _toy_controller()
    loop = assemble_closed_loop(plant, ctrl)
    for pm, km, lm in zip(plant.a_modes, ctrl.modes, loop.modes):
        assert np.array_equal(lm.a[:2, :2], pm)
        assert np.array_equal(lm.a[:2, 2:], plant.b2 @ km.c)
        assert np.array_equal(lm.a[2:, :2], km.b @ plant.c2)
        assert np.array_equal(lm.a[2:, 2:], km.a)
        assert np.array_equal(lm.b1[:2], plant.b1)
        assert np.array_equal(lm.b1[2:], km.b @ plant.d2)
        assert np.array_equal(lm.b2[:2], plant.b2 @ km.d)
        assert np.array_equal(lm.b2[2:], km.e)
        assert np.array_equal(lm.c[:, :2], plant.c1)
        assert np.array_equal(lm.c[:, 2:], plant.d1 @ km.c)
        assert np.array_equal(lm.d, plant.d1 @ km.d)


def test_closed_loop_mode_count_mismatch():
    with pytest.raises(ValueError, match="modes"):
        assemble_closed_loop(_toy_plant(3), _toy_controller(2))


def test_closed_loop_reference_design_stable():
    from qhinf import demo

    loop = assemble_closed_loop(demo.reference_plant(), demo.reference_controller())
    for m in loop.modes:
        assert np.max(np.linalg.eigvals(m.a).real) < 0.0


def test_plant_immutable():
    plant = _toy_plant()
    with pytest.raises(ValueError):
        plant.b1[0, 0] = 3.0
