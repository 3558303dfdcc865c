"""Operator zoo evaluations, known zeros, and sampling-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

import qvi
from qvi import (
    Box,
    CubicQuasi,
    LeastSquares,
    PiecewiseQuad,
    SinePlusOne,
    check_hypotheses,
    gen_recovery,
    gram_norm,
)

THREE_HALF_PI = 4.712388980384690  # 3*pi/2


class NegIdentity:
    """F(z) = -z: not quasimonotone, used as a negative control."""

    def __call__(self, x):
        return -np.asarray(x, dtype=np.float64)


def test_cubic_eval():
    f = CubicQuasi()
    assert f(np.array([0.6]))[0] == pytest.approx((1 - 0.6) * 0.6, abs=1e-15)
    assert f(np.array([1.0]))[0] == 0.0
    assert f(np.array([-1.0]))[0] == 0.0


def test_sine_eval_zero_at_three_half_pi():
    f = SinePlusOne()
    assert abs(f(np.array([THREE_HALF_PI]))[0]) < 1e-15


def test_piecewise_eval_branches():
    f = PiecewiseQuad()
    assert f(np.array([-2.0]))[0] == pytest.approx(3.0, abs=1e-15)
    assert f(np.array([0.5]))[0] == pytest.approx(0.25, abs=1e-15)
    assert f(np.array([2.0]))[0] == pytest.approx(3.0, abs=1e-15)


def test_piecewise_continuous_at_kinks():
    f = PiecewiseQuad()
    for edge in (1.0, -1.0):
        inner = f(np.array([edge * (1 - 1e-13)]))[0]
        outer = f(np.array([edge * (1 + 1e-13)]))[0]
        assert abs(inner - outer) < 1e-12


def test_least_squares_eval_and_validation():
    inst = gen_recovery(12, 30, 4, seed=3)
    f = LeastSquares(inst.mat, inst.observed)
    assert np.all(f(inst.signal) == 0.0)  # residual vanishes at the planted signal
    with pytest.raises(ValueError):
        f(np.zeros(7))
    with pytest.raises(ValueError):
        LeastSquares(inst.mat, np.zeros(5))
    with pytest.raises(ValueError, match="mat must be finite"):
        LeastSquares([[np.nan, 1.0]], [0.0])
    for bad in (np.inf, -np.inf, np.nan):
        rhs = inst.observed.copy()
        rhs[3] = bad
        with pytest.raises(ValueError, match="rhs must be finite"):
            LeastSquares(inst.mat, rhs)


def test_least_squares_batch_matches_single():
    inst = gen_recovery(10, 20, 3, seed=5)
    f = LeastSquares(inst.mat, inst.observed)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((6, 20))
    out = f(batch)
    for i in range(6):
        np.testing.assert_allclose(out[i], f(batch[i]), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("m, n", [(40, 90), (256, 512)])
def test_least_squares_stores_one_matrix(m, n):
    inst = gen_recovery(m, n, 4, seed=7)
    f = LeastSquares(inst.mat, inst.observed)
    assert np.shares_memory(f.mat_t, f.mat)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(n)
    np.testing.assert_array_equal(f(x), f.mat.T @ (f.mat @ x - inst.observed))
    batch = rng.standard_normal((5, n))
    out = f(batch)
    for i in range(5):
        single = f(batch[i])
        scale = np.max(np.abs(single))
        np.testing.assert_allclose(out[i], single, rtol=0, atol=1e-12 * scale)


def test_cubic_zeros_are_exactly_the_known_set():
    f = CubicQuasi()
    rng = np.random.default_rng(21)
    z = rng.uniform(-1, 1, 20_000)
    near_zero = np.min(np.abs(z[:, None] - np.array([-1.0, 0.0, 1.0])), axis=1) <= 1e-9
    vals = f(z[~near_zero])
    assert np.all(np.abs(vals) > 0)


def test_sine_nonnegative_and_zero_lattice_by_bisection():
    f = SinePlusOne()
    rng = np.random.default_rng(22)
    assert np.all(f(rng.uniform(-50, 50, 50_000)) >= 0.0)
    # F touches zero without a sign change; bracket the minima through the
    # derivative cos(z), which crosses negative-to-positive there
    roots = []
    for k in range(5):
        guess = 2 * k * np.pi + 1.5 * np.pi
        if guess > 30:
            break
        roots.append(brentq(np.cos, guess - 1.0, guess + 1.0, xtol=1e-13))
    assert len(roots) == 5
    for k, root in enumerate(roots):
        assert abs(root - (2 * k * np.pi + 1.5 * np.pi)) < 1e-9
        assert abs(f(np.array([root]))[0]) < 1e-9


def test_quasimonotone_cubic_clean():
    report = check_hypotheses(CubicQuasi(), Box(-1.0, 1.0), pairs=10_000, seed=1)
    assert report.violations == 0 and report.witnesses == ()


def test_quasimonotone_sine_clean():
    report = check_hypotheses(SinePlusOne(), Box(0.0, 20.0), pairs=10_000, seed=1)
    assert report.violations == 0


def test_quasimonotone_piecewise_clean():
    report = check_hypotheses(PiecewiseQuad(), Box(-1.0, 1.0), pairs=10_000, seed=1)
    assert report.violations == 0


def test_quasimonotone_negative_control():
    f = NegIdentity()
    report = check_hypotheses(f, Box(-1.0, 1.0), pairs=10_000, seed=1)
    assert report.violations > 0
    # analytic witness: u=0.5, z=-0.5 has <F(u), z-u> = 0.5 and <F(z), z-u> = -0.5
    assert (-0.5) * (-1.0) > 0 and (0.5) * (-1.0) < 0
    for u, z in report.witnesses:
        premise = float(f(u) @ (z - u))
        conclusion = float(f(z) @ (z - u))
        assert premise > 1e-12 and conclusion < -1e-12
    # brute force over the same sampled pairs reproduces the count
    rng = np.random.default_rng(1)
    box = Box(-1.0, 1.0)
    u = box.sample(10_000, rng)
    z = box.sample(10_000, rng)
    count = sum(
        1
        for ui, zi in zip(u, z)
        if float(f(ui) @ (zi - ui)) > 1e-12 and float(f(zi) @ (zi - ui)) < -1e-12
    )
    assert count == report.violations


def test_hypotheses_check_rejects_an_unbounded_box():
    with pytest.raises(ValueError, match="unbounded"):
        check_hypotheses(SinePlusOne(), Box(0.0, np.inf), pairs=100, seed=0)


@pytest.mark.parametrize(
    "f, box",
    [
        (CubicQuasi(), Box(-1.0, 1.0)),
        (SinePlusOne(), Box(0.0, 20.0)),
        (PiecewiseQuad(), Box(-1.0, 1.0)),
    ],
    ids=["cubic", "sine", "piecewise"],
)
def test_lipschitz_estimates_scalar(f, box):
    report = check_hypotheses(f, box, pairs=10_000, seed=1)
    lipschitz = f.lipschitz_on(float(box.lo[0]), float(box.hi[0]))
    assert 0.9 * lipschitz < report.lipschitz <= lipschitz


def test_lipschitz_estimate_on_a_one_point_box_is_rejected():
    # with u == z for every pair neither hypothesis can be sampled
    with pytest.raises(ValueError, match="no sampled pair has u != z"):
        check_hypotheses(CubicQuasi(), Box(0.5, 0.5), pairs=100, seed=0)


def test_lipschitz_estimate_least_squares_below_gram_norm():
    inst = gen_recovery(20, 40, 5, seed=9)
    f = LeastSquares(inst.mat, inst.observed)
    box = Box(np.full(40, -2.0), np.full(40, 2.0))
    report = check_hypotheses(f, box, pairs=2000, seed=1)
    assert report.lipschitz <= gram_norm(inst.mat) + 1e-9


def test_power_iteration_matches_dense_eigensolver():
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((15, 25))
    exact = float(np.linalg.eigvalsh(mat.T @ mat).max())
    assert gram_norm(mat) == pytest.approx(exact, rel=1e-10)


_RNG = np.random.default_rng(5)
_LOW_RANK = _RNG.standard_normal((25, 3)) @ _RNG.standard_normal((3, 40))
GRAM_NORM_CASES = {
    "tall": _RNG.standard_normal((30, 12)),
    "wide": _RNG.standard_normal((12, 30)),
    "square": _RNG.standard_normal((20, 20)),
    "recovery": gen_recovery(40, 90, 5, seed=3).mat,
    "rank_deficient": _LOW_RANK,
    "rank_deficient_tall": _LOW_RANK.T,
    "all_zero": np.zeros((5, 7)),
}


@pytest.mark.parametrize("mat", GRAM_NORM_CASES.values(), ids=GRAM_NORM_CASES.keys())
def test_gram_norm_is_the_squared_largest_singular_value(mat):
    exact = np.linalg.svd(mat, compute_uv=False)[0] ** 2
    assert gram_norm(mat) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0)])
def test_gram_norm_of_an_empty_matrix_is_zero(shape):
    assert gram_norm(np.zeros(shape)) == 0.0


@pytest.mark.parametrize(
    "mat, message",
    [
        (np.ones(4), "2-d"),
        (np.ones((2, 3, 4)), "2-d"),
        (np.array([[1.0, np.nan], [0.0, 1.0]]), "finite"),
        (np.array([[1.0, np.inf]]), "finite"),
        (np.array([[-np.inf], [1.0]]), "finite"),
    ],
)
def test_gram_norm_rejects_bad_matrices(mat, message):
    with pytest.raises(ValueError, match=f"mat must be .*{message}"):
        gram_norm(mat)


@st.composite
def _matrix_and_vector(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    mat = draw(arrays(np.float64, (m, n), elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    v = draw(arrays(np.float64, n, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
    return mat, v


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(_matrix_and_vector())
def test_gram_norm_bounds_every_rayleigh_quotient(case):
    mat, v = case
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v, norm = np.eye(len(v))[0], 1.0
    tv = mat @ (v / norm)
    # eigvalsh is backward stable: its error is a few ulps of ||T||_F^2 >= lambda_max
    slack = 1e-13 * float((mat * mat).sum())
    assert float(tv @ tv) <= gram_norm(mat) + slack


def test_power_iteration_gram_norm_is_an_alias():
    assert qvi.power_iteration_gram_norm is qvi.gram_norm is gram_norm


def test_least_squares_monotone():
    inst = gen_recovery(15, 30, 4, seed=13)
    f = LeastSquares(inst.mat, inst.observed)
    rng = np.random.default_rng(2)
    u = rng.standard_normal((2000, 30))
    z = rng.standard_normal((2000, 30))
    pairing = np.einsum("ij,ij->i", f(u) - f(z), u - z)
    assert np.all(pairing >= -1e-9)


def test_lipschitz_on_hulls():
    cubic = CubicQuasi()
    assert cubic.lipschitz_on(-1.0, 1.0) == pytest.approx(1.0)
    assert cubic.lipschitz_on(-5.0, 9.0) == pytest.approx(17.0)
    pw = PiecewiseQuad()
    assert pw.lipschitz_on(-0.25, 0.25) == pytest.approx(0.5)
    assert pw.lipschitz_on(-3.0, 1.0) == pytest.approx(2.0)
    assert SinePlusOne().lipschitz_on(0.0, 100.0) == 1.0


def test_nearest_solution_snapping():
    sine = SinePlusOne()
    near = sine.nearest_solution(np.array([4.7]))
    assert near[0] == pytest.approx(1.5 * np.pi)
    assert CubicQuasi().nearest_solution(np.array([0.98]))[0] == 1.0


def test_nearest_solution_tie_takes_the_first():
    # 0.5 is as far from 0 as from 1, and -0.5 as far from -1 as from 0;
    # the solution listed first wins, as min() over the tuple chose
    cubic = CubicQuasi()
    assert cubic.nearest_solution([0.5])[0] == 0.0
    assert cubic.nearest_solution([-0.5])[0] == -1.0


def test_check_hypotheses_validation():
    with pytest.raises(ValueError, match="pairs must be >= 1"):
        check_hypotheses(CubicQuasi(), Box(-1.0, 1.0), pairs=0, seed=0)
