"""Step arithmetic, stopping behavior, and iteration invariants."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hull_lipschitz, scalar_config
from qvi import (
    Box,
    CubicQuasi,
    HalfSpaceRelaxedL1Ball,
    LeastSquares,
    MseToReference,
    NumericError,
    PiecewiseQuad,
    ProjectionContext,
    SinePlusOne,
    SolverConfig,
    SquaredStep,
    TableSpec,
    XiSequence,
    cubic_problem,
    fejer_audit,
    gen_recovery,
    mse,
    piecewise_problem,
    project,
    run_example_table,
    run_recovery,
    sine_problem,
    solve,
    step_bound_violation,
    step_rule_slack,
    tseng_identity_error,
)
from qvi.experiments import default_recovery_config
from qvi.solver import _mean_squared_error

XI_DEFAULT = XiSequence(100.0, 1.1)


# --- xi sequence ---------------------------------------------------------

def test_xi_values_against_high_precision():
    assert XI_DEFAULT.value(1) == pytest.approx(46.651649576840371, abs=1e-12)
    assert XI_DEFAULT.value(9) == pytest.approx(7.9432823472428150, abs=1e-12)
    assert XiSequence(0.0, 1.1).value(5) == 0.0


def test_xi_sequence_validation():
    with pytest.raises(ValueError):
        XiSequence(100.0, 1.0)
    with pytest.raises(ValueError):
        XiSequence(-1.0, 1.1)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            XiSequence(bad, 1.1)


def test_xi_sequence_takes_integers_as_floats():
    # a config file gives integers; an integer exponent would take an exact power
    assert all(XiSequence(100, 100).value(n) == XiSequence(100, 100.0).value(n) for n in range(1, 2000))
    assert isinstance(XiSequence(100, 2).exponent, float) and isinstance(XiSequence(100, 2).scale, float)
    # an integer past the float range is an infinity, which is no finite parameter
    for big in (10**400, -(10**400)):
        with pytest.raises(ValueError, match="scale must be .*finite"):
            XiSequence(big, 1.1)
        with pytest.raises(ValueError, match="exponent must .*finite"):
            XiSequence(100.0, big)
    with pytest.raises(ValueError, match="exponent must .*finite"):
        XiSequence(100.0, np.inf)


def test_xi_prefix_sums():
    seq = XiSequence(3.0, 1.5)
    sums = seq.prefix_sums(6)
    direct = np.concatenate([[0.0], np.cumsum([seq.value(n) for n in range(1, 6)])])
    np.testing.assert_allclose(sums, direct, rtol=1e-15)


def test_xi_value_whose_power_leaves_the_float_range_underflows():
    # (n + 1) ** exponent overflows; the value is its reciprocal's underflow
    assert XiSequence(1.0, 2000.0).value(1) == 0.0
    assert XiSequence(100.0, 100.0).value(1300) == 100.0 * 1301.0 ** -100.0 > 0.0
    # a value inside the range keeps its bits
    assert XiSequence(100.0, 100.0).value(1000) == 100.0 / 1001 ** 100.0


def test_xi_prefix_sums_add_the_values_without_a_warning():
    # the power overflows from n = 1300 on; the sums add value(n), which underflows there
    seq = XiSequence(100.0, 100.0)
    sums = seq.prefix_sums(1400)
    expected = 0.0
    for n in range(1, 1400):
        expected += seq.value(n)
        assert sums[n] == expected
    assert sums[0] == 0.0 and sums.shape == (1400,)


# --- single step ---------------------------------------------------------

def _first_step(u1, lambda1=1.0):
    """(u_2, z_1, lam_2) of a one-step cubic solve from u1."""
    f, box = cubic_problem()
    cfg = dataclasses.replace(scalar_config(mu=0.3, col_tol=1e-6, max_iters=1), lambda1=lambda1)
    trace = solve(f, box, u1, cfg).trace
    return trace.u[1], trace.z[0], trace.lam[1]


def test_tseng_step_hand_trace_interior():
    u2, z1, lam2 = _first_step(0.6)
    assert z1[0] == pytest.approx(0.36, abs=1e-15)
    assert u2[0] == pytest.approx(0.3696, abs=1e-15)
    assert lam2 == pytest.approx(7.5, abs=1e-12)


def test_tseng_step_hand_trace_clamped():
    u2, z1, lam2 = _first_step(2.0)
    assert z1[0] == 1.0
    assert u2[0] == -1.0
    assert lam2 == pytest.approx(0.15, abs=1e-15)


def test_tseng_step_fixed_point():
    u2, z1, _ = _first_step(1.0, lambda1=0.7)
    assert z1[0] == 1.0 and u2[0] == 1.0
    with pytest.raises(ValueError, match="lambda1"):
        _first_step(1.0, lambda1=0.0)


# --- full runs -----------------------------------------------------------

def test_solve_cubic_exact_landings():
    f, box = cubic_problem()
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    for u1, expected_iters, expected_limit in [(2.0, 2, -1.0), (3.0, 3, 1.0), (-3.0, 3, -1.0)]:
        result = solve(f, box, u1, cfg)
        assert result.status == "converged"
        assert result.iterations == expected_iters
        assert result.final_point[0] == pytest.approx(expected_limit, abs=1e-6)


def test_solve_cubic_interior_runs():
    f, box = cubic_problem()
    result = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6))
    assert 51 <= result.iterations <= 57
    assert abs(result.final_point[0]) < 1e-3
    result = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-8))
    assert 70 <= result.iterations <= 76


def test_solve_sine_run():
    f, ray = sine_problem()
    result = solve(f, ray, 2.0, scalar_config(mu=0.5, col_tol=1e-6))
    assert 20 <= result.iterations <= 26
    assert abs(result.final_point[0]) < 1e-3


@pytest.mark.parametrize(
    "problem, mu, u1, iterations",
    [
        (sine_problem, 0.5, 0.015, 15),
        (sine_problem, 0.5, 0.003734, 13),
        (cubic_problem, 0.3, 9.2e-4, 25),
        (piecewise_problem, 0.3, 0.9995, 187),
    ],
)
def test_a_step_back_to_the_start_is_no_convergence(problem, mu, u1, iterations):
    # the first correction returns u_2 to about u_1 while z_1 lies far from
    # it, so the step norm alone would report the start as converged
    f, feasible_set = problem()
    result = solve(f, feasible_set, u1, scalar_config(mu=mu, col_tol=1e-6))
    assert result.trace.errors[0] < 1e-12
    assert result.status == "converged"
    assert result.iterations == iterations
    final = result.final_point
    assert np.abs(final - f.nearest_solution(final)).max() < 1e-4


def test_max_iters_status():
    f, box = cubic_problem()
    cfg = scalar_config(mu=0.3, col_tol=1e-6, max_iters=10)
    result = solve(f, box, 0.6, cfg)
    assert result.status == "max_iters"
    assert result.iterations == 10


def test_mse_stopping_records_mse_errors():
    f, box = cubic_problem()
    cfg = SolverConfig(
        lambda1=1.0, mu=0.3, xi_params=XI_DEFAULT,
        stop=MseToReference(np.array([0.0]), 1e-10), max_iters=200,
    )
    result = solve(f, box, 0.6, cfg)
    assert result.status == "converged"
    n = result.iterations
    expected = float(np.mean(result.trace.u[n] ** 2))
    assert result.trace.errors[-1] == pytest.approx(expected, rel=1e-12)
    assert result.trace.errors[-1] < 1e-10


def test_trace_shapes_and_levels():
    f, box = cubic_problem()
    result = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6))
    n = result.iterations
    trace = result.trace
    assert trace.u.shape == (n + 1, 1)
    assert trace.z.shape == (n, 1)
    assert trace.lam.shape == (n + 1,)
    assert trace.errors.shape == (n,)
    assert trace.residuals.shape == (n,)
    assert trace.iterations == n


def test_result_reads_its_count_and_final_point_from_the_trace():
    inst = gen_recovery(16, 32, 3, seed=1)
    f = LeastSquares(inst.mat, inst.observed)
    runs = [
        solve(*cubic_problem(), 0.6, scalar_config(mu=0.3, col_tol=1e-6)),
        solve(f, HalfSpaceRelaxedL1Ball(inst.omega), np.zeros(32), default_recovery_config(inst)),
    ]
    for result in runs:
        trace = result.trace
        assert result.iterations == trace.iterations
        final = result.final_point
        assert np.array_equal(final, trace.u[-1])
        kept = trace.u.copy()
        final[:] = 7.0
        assert np.array_equal(trace.u, kept)
        assert np.array_equal(result.final_point, trace.u[-1])


def test_squared_step_check_hand_cases():
    # tol 1e-4: the certificate bounds ||u_n - z_n|| by lam_n * 10 * sqrt(tol) = 0.1 lam_n
    stop = SquaredStep(1e-4)
    assert stop.check(5e-5, 0.05, 1.0) is True
    assert stop.check(5e-5, 0.15, 2.0) is True
    # a small step whose residual fails the certificate does not stop
    assert stop.check(5e-5, 0.2, 1.0) is False
    assert stop.check(2e-4, 0.0, 1.0) is False
    assert stop.check(1e-4, 0.0, 1.0) is False
    # the elementwise rule agrees with check on each entry
    err_sq, res, lam = np.array([5e-5, 5e-5, 2e-4]), np.array([0.05, 0.2, 0.0]), np.ones(3)
    assert stop.converged(err_sq, res, lam).tolist() == [True, False, False]


def test_mse_to_reference_check_hand_cases():
    # (0^2 + 0.5^2) / 2; the step's own numbers play no part
    u_next = np.array([1.0, 3.5])
    assert _mean_squared_error(u_next, np.array([1.0, 3.0])) == 0.125
    assert MseToReference(np.array([1.0, 3.0]), 0.2).check(0.125, 9.0, 1.0) is True
    assert MseToReference(np.array([1.0, 3.0]), 0.1).check(0.125, 0.0, 1.0) is False
    # a float iterate against a reference of shape (1,)
    assert _mean_squared_error(2.5, np.array([2.0])) == 0.25
    assert MseToReference(np.array([2.0]), 1.0).check(0.25, 0.0, 1.0) is True
    # the same bits as np.mean, the formula experiments.mse shares
    rng = np.random.default_rng(4)
    for size in (1, 7, 300):
        u, ref = rng.standard_normal(size), rng.standard_normal(size)
        assert _mean_squared_error(u, ref) == float(np.mean((u - ref) ** 2)) == mse(u, ref)


def test_each_stop_rule_records_its_own_error():
    # the squared step for SquaredStep, the MSE of u_{n+1} for MseToReference
    f, box = cubic_problem()
    squared = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6)).trace
    np.testing.assert_array_equal(squared.errors, np.diff(squared.u[:, 0]) ** 2)
    reference = np.array([0.25])
    cfg = dataclasses.replace(scalar_config(mu=0.3, col_tol=1e-6), stop=MseToReference(reference, 1e-30))
    mse_trace = solve(f, box, 0.6, cfg).trace
    np.testing.assert_array_equal(mse_trace.errors, (mse_trace.u[1:, 0] - 0.25) ** 2)
    # the stop rule does not steer the iteration
    np.testing.assert_array_equal(mse_trace.u[: squared.u.shape[0]], squared.u)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(mu=1.0)
    with pytest.raises(ValueError):
        SolverConfig(mu=0.0)
    with pytest.raises(ValueError):
        SolverConfig(lambda1=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SquaredStep(0.0)
    with pytest.raises(ValueError):
        MseToReference(np.zeros(2), 0.0)
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(lambda1=bad)
        with pytest.raises(ValueError, match="finite"):
            SquaredStep(bad)
        with pytest.raises(ValueError, match="finite"):
            MseToReference(np.zeros(2), bad)


def test_unknown_stop_rule_is_rejected():
    for bad in (object(), None, 1e-12):
        with pytest.raises(ValueError, match="stop must be SquaredStep or MseToReference"):
            SolverConfig(stop=bad)


def test_solver_config_is_frozen():
    cfg = SolverConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.lambda1 = math.inf
    assert cfg.lambda1 == 1.0
    with pytest.raises(ValueError, match="finite"):
        dataclasses.replace(cfg, lambda1=math.inf)


def test_non_finite_reference_is_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="reference must be finite"):
            MseToReference(np.array([0.0, bad]), 1e-6)


def test_reference_is_a_private_read_only_copy():
    ref = np.array([0.5])
    stop = MseToReference(ref, 1e-3)
    ref[0] = np.nan
    np.testing.assert_array_equal(stop.reference, [0.5])
    with pytest.raises(ValueError, match="read-only"):
        stop.reference[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        stop.tol = 1.0


def test_box_bounds_do_not_follow_the_callers_array():
    # a write to the caller's lo after construction must not empty the box
    lo = np.zeros(1)
    box = Box(lo, 1.0)
    lo[0] = 5.0
    result = solve(CubicQuasi(), box, 0.5, SolverConfig())
    assert box.lo[0] == 0.0
    assert 0.0 <= result.final_point[0] <= 1.0


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "5", None])
def test_max_iters_must_be_an_integer(bad):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolverConfig(max_iters=bad)
    assert SolverConfig(max_iters=np.int64(3)).max_iters == 3


class _Counting:
    """Operator wrapper that keeps every input it is called with."""

    def __init__(self, f):
        self.f = f
        self.inputs = []

    @property
    def calls(self):
        return len(self.inputs)

    def __call__(self, x):
        self.inputs.append(x)
        return self.f(x)


def test_wrong_start_dimension_on_a_box_fails_before_any_operator_call():
    f, box = cubic_problem()
    counting = _Counting(f)
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    with pytest.raises(ValueError) as err:
        solve(counting, box, np.zeros(2), cfg)
    assert str(err.value) == "dimension mismatch: x (2,), box dim 1"
    assert counting.calls == 0


class _Misfit:
    """F(x) = 2x - 1, except that evaluation number bad returns value."""

    def __init__(self, bad, value):
        self.bad = bad
        self.value = value
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.value if self.calls == self.bad else 2.0 * x - 1.0


def test_operator_value_that_does_not_fit_the_iterate_is_rejected():
    # a 1-d Box runs the float step; the others run the array step
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    sets = (
        (Box(-1.0, 1.0), 1),
        (Box(np.full(2, -1.0), np.full(2, 1.0)), 2),
        (HalfSpaceRelaxedL1Ball(1.0), 1),
        (HalfSpaceRelaxedL1Ball(1.0), 2),
    )
    for feasible_set, dim in sets:
        for value in (np.zeros(3), 0.25):
            shape = np.shape(value)
            for bad, what in ((1, "F(u_n) {}, u_n"), (2, "F(z_n) {}, z_n")):
                with pytest.raises(ValueError) as err:
                    solve(_Misfit(bad, value), feasible_set, np.full(dim, 0.5), cfg)
                expected = f"dimension mismatch: {what.format(shape)} ({dim},)"
                assert str(err.value) == expected


def test_reference_shape_must_match_start():
    f, box = cubic_problem()
    box4 = Box(np.full(4, -1.0), np.full(4, 1.0))
    cfg = SolverConfig(stop=MseToReference(np.zeros(1), 1e-12), max_iters=5)
    with pytest.raises(ValueError, match="reference shape"):
        solve(f, box4, np.full(4, 0.6), cfg)
    assert solve(f, box, 0.6, cfg).iterations >= 1


def test_non_finite_inputs_raise():
    f, box = cubic_problem()
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    with pytest.raises(ValueError):
        solve(f, box, np.nan, cfg)

    class Exploding:
        def __call__(self, x):
            x = np.asarray(x, dtype=np.float64)
            return np.where(np.abs(x) > 10, np.nan, x)

    with pytest.raises(NumericError) as err:
        solve(Exploding(), Box(-np.inf, np.inf), 100.0, cfg)
    assert err.value.iteration == 1


class _Scripted:
    """F(x) = 2x - 1, except that listed evaluations put a value into entry 0.

    Evaluations are numbered from 1; iteration n evaluates F(u_n) as call
    2n - 1 and F(z_n) as call 2n.
    """

    def __init__(self, bad):
        self.bad = bad
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        out = 2.0 * np.asarray(x, dtype=np.float64) - 1.0
        if self.calls in self.bad:
            out[0] = self.bad[self.calls]
        return out


GUARD_SETS = {
    "box": Box(np.full(2, -np.inf), np.full(2, np.inf)),
    # a start of shape (1,) in a Box runs the float step
    "box_1d": Box(-np.inf, np.inf),
    # the relaxed projection raises RuntimeError on NaN input at a zero
    # anchor, so the F(u_n) check must run before it
    "relaxed_l1": HalfSpaceRelaxedL1Ball(1.0),
}


def _guard_start(where):
    return np.zeros(getattr(GUARD_SETS[where], "dim", 2))


@pytest.mark.parametrize("where", sorted(GUARD_SETS))
@pytest.mark.parametrize(
    "call, value, what, iteration",
    [
        (1, np.nan, "operator value F(u_n)", 1),
        (3, np.inf, "operator value F(u_n)", 2),
        (2, np.nan, "operator value F(z_n)", 1),
        (4, -np.inf, "operator value F(z_n)", 2),
    ],
)
def test_non_finite_operator_values_name_the_failure(where, call, value, what, iteration):
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    with pytest.raises(NumericError) as err:
        solve(_Scripted({call: value}), GUARD_SETS[where], _guard_start(where), cfg)
    assert str(err.value) == f"non-finite {what} at iteration {iteration}"
    assert err.value.iteration == iteration


@pytest.mark.parametrize("where", sorted(GUARD_SETS))
def test_overflowing_iterate_is_named(where):
    # F(u_1) and F(z_1) stay finite, lam_1 (F(u_1) - F(z_1)) overflows
    cfg = SolverConfig(lambda1=1e300, stop=SquaredStep(1e-12), max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            solve(_Scripted({}), GUARD_SETS[where], _guard_start(where), cfg)
    assert str(err.value) == "non-finite iterate u_{n+1} at iteration 1"
    assert err.value.iteration == 1


@pytest.mark.parametrize("where", sorted(GUARD_SETS))
@pytest.mark.parametrize("bad, lambda1, iteration", [({}, 1e300, 1), ({5: 1.7e308}, 1.0, 3)])
def test_overflowing_iterate_of_an_mse_stopped_solve_is_named(where, bad, lambda1, iteration):
    # the step computes only the MSE, which an overflowed u_{n+1} makes non-finite
    start = _guard_start(where)
    cfg = SolverConfig(lambda1=lambda1, stop=MseToReference(np.zeros(start.shape), 1e-30), max_iters=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            solve(_Scripted(bad), GUARD_SETS[where], start, cfg)
    assert str(err.value) == f"non-finite iterate u_{{n+1}} at iteration {iteration}"
    assert err.value.iteration == iteration


def test_relaxed_projection_failure_is_numeric():
    # u_1 - lam_1 F(u_1) overflows at the zero start, the anchor of the
    # relaxed halfspace, so its projection has no direction to move along
    inst = gen_recovery(32, 64, 4, seed=0)
    f = LeastSquares(inst.mat, inst.observed)
    cfg = SolverConfig(lambda1=1e308, stop=MseToReference(inst.signal, 1e-6))
    ball = HalfSpaceRelaxedL1Ball(inst.omega)
    # the overflow is reported once, as NumericError, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            solve(f, ball, np.zeros(64), cfg)
    assert err.value.iteration == 1
    assert "zero subgradient" in str(err.value)


def test_overflowing_step_norm_with_finite_iterates_runs_on():
    # a constant F moves every iterate by lam F; the squared step overflows
    # while every array stays finite, which is no numeric failure
    cfg = SolverConfig(lambda1=1e200, stop=SquaredStep(1e-12), max_iters=3)
    for where in ("box", "box_1d"):
        start = _guard_start(where)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = solve(lambda x: np.full(x.shape, -1.0), GUARD_SETS[where], start, cfg)
        assert result.status == "max_iters"
        assert np.all(np.isfinite(result.trace.u))
        assert np.all(result.trace.errors == np.inf)


@pytest.mark.parametrize("where", ["box", "box_1d"])
def test_equal_operator_values_take_the_additive_branch(where):
    # a constant F gives F(u_n) = F(z_n), so every step grows by xi_n exactly
    cfg = scalar_config(mu=0.3, col_tol=1e-6, max_iters=30)
    result = solve(lambda x: np.full(x.shape, -1.0), GUARD_SETS[where], _guard_start(where), cfg)
    trace = result.trace
    assert result.status == "max_iters"
    assert np.all(trace.operator_diffs == 0.0)
    xi = np.array([cfg.xi_params.value(n) for n in range(1, trace.iterations + 1)])
    assert np.all(trace.lam[1:] == trace.lam[:-1] + xi)


# --- the loop against a reference step ------------------------------------

@np.errstate(over="ignore", invalid="ignore")
def _reference_solve(f, feasible_set, u1, cfg):
    """The iteration step by step through the public projection.

    Each step builds a ProjectionContext and calls project(), and the
    correction, norms, squared step and MSE use np.linalg.norm, np.mean and
    np.stack. The squared-step rule is written out here with its certificate
    ||u_n - z_n|| <= 10 lam_n sqrt(tol). Returns the trace arrays, the final
    point, the status and the halfspace branches the relaxed projections
    took.
    """
    u = np.atleast_1d(np.asarray(u1, dtype=np.float64)).copy()
    lam = float(cfg.lambda1)
    stop = cfg.stop
    us, zs, lams, errors, residuals, diffs = [u.copy()], [], [lam], [], [], []
    branches = set()
    status, final = "max_iters", u
    for n in range(1, cfg.max_iters + 1):
        fu = np.asarray(f(u), dtype=np.float64)
        w = u - lam * fu
        if isinstance(feasible_set, HalfSpaceRelaxedL1Ball):
            c = np.abs(u).sum() - feasible_set.radius
            branches.add("inside" if c <= np.sign(u) @ (u - w) else "moved")
            z = project(feasible_set, w, ProjectionContext(u))
        else:
            z = project(feasible_set, w)
        fz = np.asarray(f(z), dtype=np.float64)
        u_next = z + lam * (fu - fz)
        res = float(np.linalg.norm(u - z))
        df = float(np.linalg.norm(fu - fz))
        xi_n = cfg.xi_params.value(n)
        lam_next = lam + xi_n if df == 0.0 else min(cfg.mu * res / df, lam + xi_n)
        if isinstance(stop, SquaredStep):
            error = float(((u_next - u) ** 2).sum())
            done = error < stop.tol and res <= lam * (10.0 * math.sqrt(stop.tol))
        else:
            error = float(np.mean((u_next - stop.reference) ** 2))
            done = error < stop.tol
        us.append(u_next)
        zs.append(z)
        lams.append(lam_next)
        errors.append(error)
        residuals.append(res)
        diffs.append(df)
        if done:
            status, final = "converged", u_next
            break
        u, lam = u_next, lam_next
        final = u
    arrays = (np.stack(us), np.stack(zs), np.asarray(lams), np.asarray(errors),
              np.asarray(residuals), np.asarray(diffs))
    return arrays, final, status, branches


def _assert_same_run(result, reference):
    arrays, final, status, _ = reference
    t = result.trace
    got = (t.u, t.z, t.lam, t.errors, t.residuals, t.operator_diffs)
    for mine, theirs in zip(got, arrays):
        assert mine.shape == theirs.shape
        assert np.all(mine == theirs)
    assert np.all(result.final_point == final)
    assert result.status == status
    assert result.iterations == arrays[1].shape[0]


@pytest.mark.parametrize(
    "problem, mu, u1",
    [(cubic_problem, 0.3, u1) for u1 in (0.6, 0.9, 2.0, 3.0, -3.0)]
    + [(sine_problem, 0.5, u1) for u1 in (2.0, 0.1, -0.5, 4.0, -2.0)],
)
def test_solve_equals_reference_step_on_table_starts(problem, mu, u1):
    f, feasible_set = problem()
    cfg = scalar_config(mu=mu, col_tol=1e-8)
    _assert_same_run(solve(f, feasible_set, u1, cfg), _reference_solve(f, feasible_set, u1, cfg))


@pytest.mark.parametrize("problem", [cubic_problem, sine_problem, piecewise_problem])
@pytest.mark.parametrize(
    "stop",
    [SquaredStep(1e-16), MseToReference(np.zeros(1), 1e-10)],
    ids=["squared", "mse"],
)
def test_solve_equals_reference_step_under_every_stopping_rule(problem, stop):
    f, feasible_set = problem()
    cfg = SolverConfig(lambda1=1.0, mu=0.3, xi_params=XI_DEFAULT, stop=stop, max_iters=300)
    for u1 in (0.6, -0.7, 2.0, -3.0, 0.015, 5.0, -0.0):
        reference = _reference_solve(f, feasible_set, u1, cfg)
        _assert_same_run(solve(f, feasible_set, u1, cfg), reference)


@pytest.mark.parametrize("dim", [2, 4])
def test_solve_equals_reference_step_on_multi_dimensional_boxes(dim):
    # the array form sums the squared step as the reference does; np.dot
    # would differ from it in the last bits
    box = Box(np.full(dim, -1.0), np.full(dim, 1.0))
    cfg = scalar_config(mu=0.3, col_tol=1e-8)
    starts = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(4, dim))
    for f in (CubicQuasi(), SinePlusOne(), PiecewiseQuad()):
        for u1 in starts:
            _assert_same_run(solve(f, box, u1, cfg), _reference_solve(f, box, u1, cfg))


def test_float_step_clamps_a_zero_to_the_bound_like_np_maximum():
    # from u1 = -0.0, w = u1 - lam F(u1) is -0.0 and ties a zero bound;
    # np.maximum and np.minimum return the bound 0.0 there
    f = PiecewiseQuad()
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    for box in (Box(0.0, 1.0), Box(-1.0, 0.0)):
        result = solve(f, box, -0.0, cfg)
        reference = _reference_solve(f, box, -0.0, cfg)
        _assert_same_run(result, reference)
        arrays, final = reference[:2]
        assert not np.signbit(arrays[1][0, 0])
        assert np.array_equal(np.signbit(result.trace.z), np.signbit(arrays[1]))
        assert np.array_equal(np.signbit(result.trace.u), np.signbit(arrays[0]))
        assert np.array_equal(np.signbit(result.final_point), np.signbit(final))


def test_float_step_calls_the_operator_twice_per_iteration_on_new_arrays():
    f, box = cubic_problem()
    counting = _Counting(f)
    result = solve(counting, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6))
    n = result.iterations
    inputs = counting.inputs
    assert n > 10 and len(inputs) == 2 * n
    # the recorded arrays are all alive, so distinct ids mean distinct arrays
    assert len({id(x) for x in inputs}) == 2 * n
    assert all(type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (1,) for x in inputs)
    assert all(x is not result.final_point for x in inputs)
    assert type(result.final_point) is np.ndarray
    assert result.final_point.dtype == np.float64 and result.final_point.shape == (1,)
    trace = result.trace
    assert trace.u.shape == (n + 1, 1) and trace.z.shape == (n, 1)
    assert trace.lam.shape == (n + 1,)
    for values in (trace.errors, trace.residuals, trace.operator_diffs):
        assert values.shape == (n,) and values.dtype == np.float64
    # F saw u_n, then z_n
    assert np.array_equal(np.concatenate(inputs[0::2]), trace.u[:n, 0])
    assert np.array_equal(np.concatenate(inputs[1::2]), trace.z[:, 0])


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    u1=st.floats(-1e6, 1e6),
    mu=st.floats(0.01, 0.99),
    lambda1=st.floats(1e-3, 1e3),
    xi_scale=st.floats(0.0, 1e3),
)
def test_solve_equals_reference_step_on_drawn_parameters(u1, mu, lambda1, xi_scale):
    cfg = SolverConfig(
        lambda1=lambda1, mu=mu, xi_params=XiSequence(xi_scale, 1.1),
        stop=SquaredStep(1e-16), max_iters=200,
    )
    for problem in (cubic_problem, sine_problem, piecewise_problem):
        f, feasible_set = problem()
        _assert_same_run(solve(f, feasible_set, u1, cfg), _reference_solve(f, feasible_set, u1, cfg))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    u1=st.floats(-3.0, 3.0),
    mu=st.floats(0.01, 0.99),
    tolerances=st.lists(st.sampled_from((1e-4, 1e-6, 1e-8)), min_size=1, max_size=3),
)
def test_every_converged_stop_is_certified_at_its_own_step(u1, mu, tolerances):
    def certified(trace, n, tol):
        return (trace.errors[n - 1] < tol * tol
                and trace.residuals[n - 1] <= trace.lam[n - 1] * (10.0 * math.sqrt(tol * tol)))

    for problem in ("cubic", "sine", "piecewise"):
        spec = TableSpec(problem, (u1,), mu=mu, tolerances=tuple(tolerances))
        for row, result in run_example_table(spec, keep_traces=True):
            if result.status == "converged":
                assert certified(result.trace, result.iterations, min(tolerances))
            if row.status == "converged":
                assert certified(result.trace, row.iterations, row.tol)


def test_solve_equals_reference_step_on_relaxed_l1_recovery():
    inst = gen_recovery(40, 90, 6, seed=3)
    out = run_recovery(inst)
    f = LeastSquares(inst.mat, inst.observed)
    reference = _reference_solve(
        f, HalfSpaceRelaxedL1Ball(inst.omega), np.zeros(90), default_recovery_config(inst)
    )
    assert reference[3] == {"inside", "moved"}
    _assert_same_run(out.result, reference)


# --- trace invariants ----------------------------------------------------

def _table_traces():
    runs = []
    f, box = cubic_problem()
    for u1 in (0.6, 0.9, 2.0, 3.0, -3.0):
        cfg = scalar_config(mu=0.3, col_tol=1e-6)
        runs.append((f, cfg, solve(f, box, u1, cfg)))
    f, ray = sine_problem()
    for u1 in (2.0, 0.1, -0.5, 4.0, -2.0):
        cfg = scalar_config(mu=0.5, col_tol=1e-6)
        runs.append((f, cfg, solve(f, ray, u1, cfg)))
    return runs


def test_step_size_bounds_along_traces():
    for f, cfg, result in _table_traces():
        violation = step_bound_violation(result.trace, cfg, hull_lipschitz(f, result.trace))
        assert violation <= 1e-9


def test_step_rule_consistency_along_traces():
    for f, cfg, result in _table_traces():
        assert step_rule_slack(result.trace, cfg) <= 1e-12


def test_tseng_identity_along_traces():
    for f, cfg, result in _table_traces():
        assert tseng_identity_error(result.trace, f) <= 1e-12


def test_vanishing_residual_along_traces():
    for _, _, result in _table_traces():
        assert result.status == "converged"
        assert result.trace.residuals[-1] < 1e-3
        if result.iterations >= 10:
            assert result.trace.residuals[-10:].max() < 1e-2


def test_fejer_inequality_against_dual_solutions():
    for f, cfg, result in _table_traces():
        for dual in f.known_dual_solutions:
            assert fejer_audit(result.trace, f, dual, cfg.mu) <= 1e-9


def test_iterates_bounded_and_finite():
    for _, _, result in _table_traces():
        assert np.all(np.isfinite(result.trace.u))
        assert np.isfinite(np.abs(result.trace.u).max())


def test_piecewise_problem_converges():
    f, box = piecewise_problem()
    result = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6, max_iters=2000))
    assert result.status == "converged"
    assert abs(result.final_point[0]) < 1e-2
