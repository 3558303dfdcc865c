"""Step arithmetic, stopping behavior, and iteration invariants."""

import numpy as np
import pytest

from conftest import hull_lipschitz, scalar_config
from qvi import (
    Box,
    CubicQuasi,
    ExactTermination,
    HalfSpaceRelaxedL1Ball,
    MseToReference,
    NumericError,
    SinePlusOne,
    SolverConfig,
    SquaredStep,
    XiSequence,
    cubic_problem,
    fejer_audit,
    piecewise_problem,
    sine_problem,
    solve,
    step_bound_violation,
    step_rule_slack,
    tseng_identity_error,
    tseng_step,
    update_stepsize,
    xi,
)

XI_DEFAULT = XiSequence(100.0, 1.1)


# --- xi sequence ---------------------------------------------------------

def test_xi_values_against_high_precision():
    assert xi(1, XI_DEFAULT) == pytest.approx(46.651649576840371, abs=1e-12)
    assert xi(9, XI_DEFAULT) == pytest.approx(7.9432823472428150, abs=1e-12)
    assert xi(5, XiSequence(0.0, 1.1)) == 0.0
    with pytest.raises(ValueError):
        xi(0, XI_DEFAULT)


def test_xi_sequence_validation():
    with pytest.raises(ValueError):
        XiSequence(100.0, 1.0)
    with pytest.raises(ValueError):
        XiSequence(-1.0, 1.1)


def test_xi_prefix_sums_and_total_bound():
    seq = XiSequence(3.0, 1.5)
    sums = seq.prefix_sums(6)
    direct = np.concatenate([[0.0], np.cumsum([seq.value(n) for n in range(1, 6)])])
    np.testing.assert_allclose(sums, direct, rtol=1e-15)
    # the total bound dominates any partial sum
    big_partial = sum(seq.value(n) for n in range(1, 200_000))
    assert seq.total(horizon=100) >= big_partial


# --- step-size update ----------------------------------------------------

def test_update_stepsize_first_iteration_example():
    lam2 = update_stepsize(
        1.0, xi(1, XI_DEFAULT), [0.6], [0.36], [0.24], [0.2304], mu=0.3
    )
    assert lam2 == pytest.approx(7.5, abs=1e-12)


def test_update_stepsize_equal_operator_values():
    assert update_stepsize(1.0, 0.25, [1.0], [0.5], [2.0], [2.0], mu=0.3) == 1.25
    # both operator values vanish at fixed points
    assert update_stepsize(0.15, 0.5, [2.0], [-1.0], [0.0], [0.0], mu=0.3) == 0.65


# --- single step ---------------------------------------------------------

def test_tseng_step_hand_trace_interior():
    f, box = cubic_problem()
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    u2, z1, lam2 = tseng_step(np.array([0.6]), 1.0, f, box, 1, cfg)
    assert z1[0] == pytest.approx(0.36, abs=1e-15)
    assert u2[0] == pytest.approx(0.3696, abs=1e-15)
    assert lam2 == pytest.approx(7.5, abs=1e-12)


def test_tseng_step_hand_trace_clamped():
    f, box = cubic_problem()
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    u2, z1, lam2 = tseng_step(np.array([2.0]), 1.0, f, box, 1, cfg)
    assert z1[0] == 1.0
    assert u2[0] == -1.0
    assert lam2 == pytest.approx(0.15, abs=1e-15)


def test_tseng_step_fixed_point():
    f, box = cubic_problem()
    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    u2, z1, _ = tseng_step(np.array([1.0]), 0.7, f, box, 3, cfg)
    assert z1[0] == 1.0 and u2[0] == 1.0
    with pytest.raises(ValueError):
        tseng_step(np.array([1.0]), 0.0, f, box, 1, cfg)


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


def test_exact_termination_opt_in():
    # from u1=2 the first projection lands on z=1 where F vanishes; the
    # default squared-step rule continues past it to -1, the opt-in exact
    # rule stops there and reports z as the solution
    f, box = cubic_problem()
    cfg = SolverConfig(
        lambda1=1.0, mu=0.3, xi_params=XI_DEFAULT,
        stop=ExactTermination(0.0), max_iters=50, trace_level="full",
    )
    result = solve(f, box, 2.0, cfg)
    assert result.status == "terminated_exact"
    assert result.iterations == 1
    assert result.final_point[0] == 1.0


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
        trace_level="full",
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

    cfg = scalar_config(mu=0.3, col_tol=1e-6)
    cfg.trace_level = "final"
    assert solve(f, box, 0.6, cfg).trace is None


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
        SolverConfig(trace_level="none")
    with pytest.raises(ValueError):
        SquaredStep(0.0)
    with pytest.raises(ValueError):
        ExactTermination(-1.0)
    with pytest.raises(ValueError):
        MseToReference(np.zeros(2), 0.0)


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
    # the relaxed projection raises RuntimeError on NaN input at a zero
    # anchor, so the F(u_n) check must run before it
    "relaxed_l1": HalfSpaceRelaxedL1Ball(1.0),
}


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
        solve(_Scripted({call: value}), GUARD_SETS[where], np.zeros(2), cfg)
    assert str(err.value) == f"non-finite {what} at iteration {iteration}"
    assert err.value.iteration == iteration


@pytest.mark.parametrize("where", sorted(GUARD_SETS))
def test_overflowing_iterate_is_named(where):
    # F(u_1) and F(z_1) stay finite, lam_1 (F(u_1) - F(z_1)) overflows
    cfg = SolverConfig(lambda1=1e300, stop=SquaredStep(1e-12), max_iters=5)
    with np.errstate(over="ignore"):
        with pytest.raises(NumericError) as err:
            solve(_Scripted({}), GUARD_SETS[where], np.zeros(2), cfg)
    assert str(err.value) == "non-finite iterate u_{n+1} at iteration 1"
    assert err.value.iteration == 1


def test_overflowing_step_norm_with_finite_iterates_runs_on():
    # a constant F moves every iterate by lam F; the squared step overflows
    # while every array stays finite, which is no numeric failure
    cfg = SolverConfig(lambda1=1e200, stop=SquaredStep(1e-12), max_iters=3)
    with np.errstate(over="ignore"):
        result = solve(lambda x: np.full(2, -1.0), GUARD_SETS["box"], np.zeros(2), cfg)
    assert result.status == "max_iters"
    assert np.all(np.isfinite(result.trace.u))
    assert np.all(result.trace.errors == np.inf)


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
