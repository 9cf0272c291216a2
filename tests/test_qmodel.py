import numpy as np
import pytest

from qhinf import serialize
from qhinf.qmodel import (
    J2,
    ClosedLoop,
    Controller,
    ControllerMode,
    JumpPlant,
    TransitionRateMatrix,
    as_rate_matrix,
    assemble_closed_loop,
    block_j,
    fold_triangle,
    lyapunov_operator,
    make_commutation_matrix,
)
from qhinf.serialize import DocumentError


@pytest.mark.parametrize("m", [0, 2, 4, 6, 8])
def test_block_j_is_bit_identical_to_kron(m):
    expected = np.kron(np.eye(m // 2), J2)
    got = block_j(m)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _duplication(n):
    """D with vec(Z) = D theta, for row-major vec and theta the upper triangle
    of a symmetric Z at np.triu_indices(n)."""
    rows, cols = np.triu_indices(n)
    d = np.zeros((n * n, rows.size))
    d[rows * n + cols, np.arange(rows.size)] = 1.0
    d[cols * n + rows, np.arange(rows.size)] = 1.0
    return d


@pytest.mark.parametrize("n", range(1, 7))
def test_fold_triangle_is_the_duplication_matrix(n):
    coef = np.random.default_rng(n).standard_normal((3, n, n))
    got = fold_triangle(coef, *np.triu_indices(n))
    expected = coef.reshape(3, n * n) @ _duplication(n)
    assert got.shape == expected.shape == (3, n * (n + 1) // 2)
    assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", range(1, 7))
def test_lyapunov_operator_is_the_folded_kronecker_sum(n):
    # vec(a Z + Z a^T) = (a (x) I + I (x) a) vec(Z) for row-major vec; on the
    # triangle, its upper rows act on the duplicated coordinates
    rows, cols = np.triu_indices(n)
    a = np.random.default_rng(n).standard_normal((2, n, n))  # a stack, as analysis passes
    got = lyapunov_operator(a, rows, cols)
    eye = np.eye(n)
    for k in range(2):
        kron_sum = np.kron(a[k], eye) + np.kron(eye, a[k])
        expected = kron_sum[rows * n + cols] @ _duplication(n)
        assert np.max(np.abs(got[k] - expected)) <= 1e-15 * np.max(np.abs(expected))
    # and it maps a symmetric Z's triangle to the triangle of a Z + Z a^T
    z = np.random.default_rng(n + 10).standard_normal((n, n))
    z += z.T
    image = (a[0] @ z + z @ a[0].T)[rows, cols]
    assert np.max(np.abs(got[0] @ z[rows, cols] - image)) <= 1e-14 * np.max(np.abs(image))


def test_canonical_commutation_matrix():
    th = make_commutation_matrix(2)
    assert np.array_equal(th, J2)
    th4 = make_commutation_matrix(4)
    assert np.array_equal(th4, np.kron(np.eye(2), J2))
    assert not th4.flags.writeable


def test_degenerate_commutation_matrix():
    # the Theta the former degenerate kind built for n = 2, a zero null block
    # of size 2, is refused by both constructors
    plant, ctrl = _toy_plant(), _toy_controller()
    with pytest.raises(ValueError, match="plant theta must be the canonical"):
        JumpPlant(plant.a_modes, plant.b1, plant.b2, plant.c1, plant.d1, plant.c2, plant.d2,
                  np.zeros((2, 2)), plant.rates)
    with pytest.raises(ValueError, match="controller theta_k must be the canonical"):
        Controller(ctrl.modes, np.zeros((2, 2)))


@pytest.mark.parametrize(
    "n,kind,null_dim",
    [(3, "canonical", None), (0, "canonical", None), (4, "degenerate", 1),
     (4, "degenerate", 0), (4, "degenerate", 5), (2, "weird", None)],
)
def test_commutation_matrix_rejects(n, kind, null_dim):
    # only the canonical Theta of an even positive dimension is built or read
    spec = {"n": n, "kind": kind, **({} if null_dim is None else {"null_dim": null_dim})}
    with pytest.raises(DocumentError, match=r"^plant\.theta"):
        serialize._theta_from_doc(spec, "plant.theta")
    if kind == "canonical":
        with pytest.raises(ValueError, match="even and positive"):
            make_commutation_matrix(n)


def test_commutation_matrix_constructor_builds_theta():
    th = make_commutation_matrix(4)
    assert np.array_equal(th, block_j(4)) and not th.flags.writeable
    plant, ctrl = _toy_plant(), _toy_controller()
    assert np.array_equal(plant.theta, J2) and not plant.theta.flags.writeable
    assert np.array_equal(ctrl.theta_k, J2) and not ctrl.theta_k.flags.writeable


@pytest.mark.parametrize("n", [2, 4, 6])
def test_theta_structure_identities(n):
    th = make_commutation_matrix(n)
    assert np.array_equal(th, -th.T)
    assert np.array_equal(th @ th, -np.eye(n))


def test_plant_and_controller_reject_a_non_canonical_theta():
    plant = _toy_plant()
    with pytest.raises(ValueError, match="plant theta must be the canonical"):
        JumpPlant(plant.a_modes, plant.b1, plant.b2, plant.c1, plant.d1, plant.c2, plant.d2,
                  -J2, plant.rates)
    ctrl = _toy_controller()
    with pytest.raises(ValueError, match="controller theta_k must be the canonical"):
        Controller(ctrl.modes, -J2)
    with pytest.raises(ValueError, match="plant theta"):  # dimension 4 against A of size 2
        JumpPlant(plant.a_modes, plant.b1, plant.b2, plant.c1, plant.d1, plant.c2, plant.d2,
                  make_commutation_matrix(4), plant.rates)


def test_generator_validation():
    assert TransitionRateMatrix(
        np.array([[-0.02, 0.01, 0.01], [0.01, -0.01, 0.0], [0.01, 0.0, -0.01]])).n_modes == 3
    assert TransitionRateMatrix(np.zeros((3, 3))).n_modes == 3
    # entry (1, 0) is negative and the first row sums to 1
    with pytest.raises(ValueError, match=r"entries \[\(1, 0\)\].*in rows \[0\]$"):
        TransitionRateMatrix([[-1.0, 2.0], [-0.5, 0.5]])
    with pytest.raises(ValueError, match="not square"):
        TransitionRateMatrix(np.zeros((2, 3)))


@pytest.mark.parametrize("pi, entries", [
    ([[np.nan, 0.0], [0.0, 0.0]], r"\[\(0, 0\)\]"),
    ([[-np.inf, np.inf], [0.0, 0.0]], r"\[\(0, 0\), \(0, 1\)\]"),
])
def test_generator_rejects_non_finite_rates(pi, entries):
    # both used to pass, and failed only inside the path sampler's draw
    with pytest.raises(ValueError, match=r"^invalid transition-rate matrix: non-finite rates "
                                         r"at entries " + entries + "$"):
        TransitionRateMatrix(pi)


def test_rate_matrix_constructor_rejects():
    with pytest.raises(ValueError):
        TransitionRateMatrix(np.array([[-1.0, 2.0], [-0.5, 0.5]]))


def test_as_rate_matrix_passes_through_or_builds():
    rates = TransitionRateMatrix(np.array([[-0.5, 0.5], [0.5, -0.5]]))
    assert as_rate_matrix(rates) is rates
    built = as_rate_matrix([[-0.5, 0.5], [0.5, -0.5]])
    assert np.array_equal(built.pi, rates.pi)
    with pytest.raises(ValueError, match=r"^invalid transition-rate matrix: row sums off zero "
                                         r"by more than 1e-12 in rows \[0\]$"):
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


def _plant(**changes):
    """A two-state, two-mode plant with unit blocks, changed by ``changes``."""
    eye = np.eye(2)
    blocks = dict(a_modes=(-eye, -2.0 * eye), b1=eye, b2=eye, c1=eye, d1=-eye, c2=eye,
                  d2=-eye, theta=make_commutation_matrix(2),
                  rates=TransitionRateMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]])))
    return JumpPlant(**{**blocks, **changes})


def _mode(n_k=2, n_y=2, n_u=2, n_nu=0, **changes):
    """A controller mode of the given dimensions with zero blocks and A = -I."""
    blocks = dict(a=-np.eye(n_k), b=np.zeros((n_k, n_y)), c=np.zeros((n_u, n_k)),
                  d=np.zeros((n_u, n_nu)), e=np.zeros((n_k, n_nu)))
    return ControllerMode(**{**blocks, **changes})


def _controller(*modes):
    return Controller(modes, make_commutation_matrix(2))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: block_j(3), "block_j needs an even nonnegative dimension, got 3",
                 id="odd block_j"),
    pytest.param(lambda: _plant(a_modes=()), "need at least one mode", id="no plant mode"),
    pytest.param(lambda: _plant(a_modes=(-np.eye(2), -np.eye(3))),
                 r"A_2 has shape \(3, 3\), expected \(2, 2\)", id="drift shape"),
    pytest.param(lambda: _plant(rates=TransitionRateMatrix(np.zeros((3, 3)))),
                 "2 drift modes but rate matrix has 3", id="plant mode count"),
    pytest.param(lambda: _mode(b=np.zeros((3, 2))),
                 "controller mode blocks disagree on the state dimension", id="mode state"),
    pytest.param(lambda: _mode(d=np.zeros((2, 1))), "controller feedthrough D must be n_u x n_nu",
                 id="mode feedthrough"),
    pytest.param(lambda: Controller((), make_commutation_matrix(2)),
                 "need at least one controller mode", id="no controller mode"),
    pytest.param(lambda: _controller(_mode(), _mode(n_y=4)),
                 "controller mode 2 disagrees on b shape", id="controller mode shapes"),
    pytest.param(lambda: _controller(_mode(n_nu=1)), "controller noise dimension must be even",
                 id="odd noise dimension"),
    pytest.param(lambda: ClosedLoop((), TransitionRateMatrix(np.zeros((1, 1)))),
                 "closed-loop mode count disagrees with the rate matrix", id="loop mode count"),
    pytest.param(lambda: assemble_closed_loop(_plant(), _controller(_mode(n_y=4), _mode(n_y=4))),
                 "controller input dimension must match plant output y", id="controller input"),
    pytest.param(lambda: assemble_closed_loop(_plant(), _controller(_mode(n_u=4), _mode(n_u=4))),
                 "controller output dimension must match plant input u", id="controller output"),
])
def test_model_input_checks_name_the_defect(build, message):
    with pytest.raises(ValueError, match=message):
        build()
