"""Operator zoo evaluations, known zeros, and sampling-based checks."""

import numpy as np
import pytest
from scipy.optimize import brentq

from qvi import (
    Box,
    CubicQuasi,
    LeastSquares,
    PiecewiseQuad,
    SinePlusOne,
    check_quasimonotone,
    gen_recovery,
    lipschitz_estimate,
    power_iteration_gram_norm,
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
    report = check_quasimonotone(CubicQuasi(), Box(-1.0, 1.0), pairs=10_000, seed=1)
    assert report.ok and report.violations == 0


def test_quasimonotone_sine_clean():
    report = check_quasimonotone(SinePlusOne(), Box(0.0, 20.0), pairs=10_000, seed=1)
    assert report.violations == 0


def test_quasimonotone_piecewise_clean():
    report = check_quasimonotone(PiecewiseQuad(), Box(-1.0, 1.0), pairs=10_000, seed=1)
    assert report.violations == 0


def test_quasimonotone_negative_control():
    f = NegIdentity()
    report = check_quasimonotone(f, Box(-1.0, 1.0), pairs=10_000, seed=1)
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


def test_quasimonotone_unbounded_domain_needs_window():
    class NoWindow:
        def __call__(self, x):
            return np.asarray(x, dtype=np.float64)

    with pytest.raises(ValueError):
        check_quasimonotone(NoWindow(), Box(0.0, np.inf), pairs=10, seed=0)
    # the sine operator carries a default window, which sampling falls back to
    report = check_quasimonotone(SinePlusOne(), Box(0.0, np.inf), pairs=100, seed=0)
    assert report.violations == 0


def test_lipschitz_estimates_scalar():
    est = lipschitz_estimate(CubicQuasi(), Box(-1.0, 1.0), pairs=10_000, seed=1)
    assert 0.9 < est <= 1.0
    est = lipschitz_estimate(SinePlusOne(), Box(0.0, 20.0), pairs=10_000, seed=1)
    assert 0.9 < est <= 1.0


def test_lipschitz_estimate_on_a_one_point_box_is_rejected():
    with pytest.raises(ValueError, match="no sampled pair has u != z"):
        lipschitz_estimate(CubicQuasi(), Box(0.5, 0.5), pairs=100, seed=0)


def test_lipschitz_estimate_least_squares_below_gram_norm():
    inst = gen_recovery(20, 40, 5, seed=9)
    f = LeastSquares(inst.mat, inst.observed)
    box = Box(np.full(40, -2.0), np.full(40, 2.0))
    est = lipschitz_estimate(f, box, pairs=2000, seed=1)
    assert est <= power_iteration_gram_norm(inst.mat) + 1e-9


def test_power_iteration_matches_dense_eigensolver():
    rng = np.random.default_rng(17)
    mat = rng.standard_normal((15, 25))
    exact = float(np.linalg.eigvalsh(mat.T @ mat).max())
    assert power_iteration_gram_norm(mat) == pytest.approx(exact, rel=1e-10)


def _power_iteration_two_products(mat, max_iters=10_000, rtol=1e-13, seed=0):
    """Reference loop that forms T'(T v) twice for each v."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(max_iters):
        w = mat.T @ (mat @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        new_est = float(v @ (mat.T @ (mat @ v)))
        if abs(new_est - est) <= rtol * max(1.0, abs(new_est)):
            return new_est
        est = new_est
    return est


@pytest.mark.parametrize("max_iters", [1, 3, 10_000])
def test_power_iteration_equals_two_product_loop(max_iters):
    rng = np.random.default_rng(5)
    mats = [rng.standard_normal(shape) for shape in ((6, 9), (20, 11), (40, 90))]
    mats.append(gen_recovery(40, 90, 5, seed=3).mat)
    for mat in mats:
        for seed in (0, 1):
            got = power_iteration_gram_norm(mat, max_iters=max_iters, seed=seed)
            assert got == _power_iteration_two_products(mat, max_iters=max_iters, seed=seed)
    assert power_iteration_gram_norm(np.zeros((4, 6)), max_iters=max_iters) == 0.0


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


def test_check_quasimonotone_validation():
    with pytest.raises(ValueError):
        check_quasimonotone(CubicQuasi(), Box(-1.0, 1.0), pairs=0, seed=0)
