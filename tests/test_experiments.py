"""Instance generators, table runners, and the recovery study."""

import re

import numpy as np
import pytest

from qvi import (
    SolverConfig,
    SquaredStep,
    TableSpec,
    gen_recovery,
    mse,
    run_example_table,
    run_recovery,
    solve,
)
from qvi.experiments import PROBLEMS, _snap_limit, random_initial_points


# --- instance generation ---------------------------------------------------

def test_gen_recovery_paper_dimensions():
    inst = gen_recovery(256, 512, 20, seed=7)
    assert inst.mat.shape == (256, 512)
    nonzero = inst.signal[inst.signal != 0]
    assert nonzero.size == 20
    assert set(np.unique(nonzero)) <= {-1.0, 1.0}
    np.testing.assert_array_equal(inst.observed, inst.mat @ inst.signal)
    assert inst.omega == 20.0


def test_gen_recovery_zero_sparsity():
    inst = gen_recovery(16, 32, 0, seed=1)
    assert np.all(inst.signal == 0.0)
    assert np.all(inst.observed == 0.0)


def test_each_scalar_problem_is_built_once():
    for build in PROBLEMS.values():
        f, box = build()
        again = build()
        assert again[0] is f and again[1] is box


def test_gen_recovery_deterministic():
    a = gen_recovery(32, 64, 5, seed=11)
    b = gen_recovery(32, 64, 5, seed=11)
    np.testing.assert_array_equal(a.mat, b.mat)
    np.testing.assert_array_equal(a.signal, b.signal)
    np.testing.assert_array_equal(a.observed, b.observed)


def test_gen_recovery_validation():
    with pytest.raises(ValueError):
        gen_recovery(8, 4, 5, seed=0)
    with pytest.raises(ValueError):
        gen_recovery(8, 16, -1, seed=0)


# --- mean squared error -----------------------------------------------------

def test_mse_examples():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([1.0, 0.0], [0.0, 0.0]) == 0.5
    assert mse(np.eye(3)[:2], np.zeros((2, 3))) == 2.0 / 6.0
    with pytest.raises(ValueError):
        mse([1.0], [1.0, 2.0])


def test_mse_against_naive_loop():
    rng = np.random.default_rng(3)
    u = rng.standard_normal(100)
    v = rng.standard_normal(100)
    naive = sum((a - b) ** 2 for a, b in zip(u, v)) / 100
    assert mse(u, v) == pytest.approx(naive, rel=1e-15)


# --- table runner -----------------------------------------------------------

def test_table_cubic_row():
    spec = TableSpec(problem="cubic", initial_points=(-3.0,), tolerances=(1e-6,))
    (row,) = run_example_table(spec)
    assert row.iterations == 3
    assert row.limit == -1.0
    assert row.status == "converged"
    assert row.cpu_seconds >= 0.0


def test_table_sine_rows():
    spec = TableSpec(
        problem="sine", initial_points=(4.0, 0.1), mu=0.5, tolerances=(1e-6, 1e-8)
    )
    rows = {(r.u1, r.tol): r for r in run_example_table(spec)}
    assert abs(rows[(4.0, 1e-6)].iterations - 33) <= 3
    assert rows[(4.0, 1e-6)].limit == 0.0
    assert abs(rows[(0.1, 1e-8)].iterations - 25) <= 3
    assert rows[(0.1, 1e-8)].limit == 0.0


def test_table_keep_traces():
    spec = TableSpec(problem="cubic", initial_points=(2.0,), tolerances=(1e-6,))
    ((row, result),) = run_example_table(spec, keep_traces=True)
    assert row.iterations == result.iterations == 2
    assert result.trace is not None


def test_table_limit_left_raw_when_far_from_solutions():
    # a tiny iteration budget stops the run mid-flight, far from any solution
    spec = TableSpec(problem="cubic", initial_points=(0.6,), tolerances=(1e-6,), max_iters=2)
    (row,) = run_example_table(spec)
    assert row.status == "max_iters"
    assert row.limit not in (-1.0, 0.0, 1.0)


def test_table_spec_validation():
    with pytest.raises(ValueError):
        TableSpec(problem="unknown", initial_points=(1.0,))
    with pytest.raises(ValueError):
        TableSpec(problem="cubic", initial_points=())
    with pytest.raises(ValueError):
        TableSpec(problem="cubic", initial_points=(1.0,), tolerances=())
    # min() over a tuple holding NaN depends on order, so NaN is rejected
    # with the other non-positive tolerances, wherever it sits; an infinite
    # tolerance would mark every row converged after one step
    for bad in (0.0, -1e-6, np.nan, np.inf):
        for tolerances in ((bad,), (1e-6, bad), (bad, 1e-8)):
            with pytest.raises(ValueError, match="tolerances must be positive"):
                TableSpec(problem="cubic", initial_points=(1.0,), tolerances=tolerances)
    # the rows stop on tol**2, which must stay a positive finite float
    for tol, square in ((1e200, "inf"), (1e-170, "0")):
        message = f"tol {tol:g} has the square {square}, which must be positive and finite"
        for tolerances in ((tol,), (1e-6, tol)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                TableSpec(problem="cubic", initial_points=(1.0,), tolerances=tolerances)


def _standalone(spec, u1, tol):
    """One solve at one tolerance, the reference a table row must match."""
    f, feasible = PROBLEMS[spec.problem]()
    cfg = SolverConfig(
        lambda1=spec.lambda1,
        mu=spec.mu,
        xi_params=spec.xi_params,
        stop=SquaredStep(tol * tol),
        max_iters=spec.max_iters,
    )
    return f, solve(f, feasible, u1, cfg)


def _assert_rows_match_standalone(spec):
    rows = run_example_table(spec)
    expected = [(u1, tol) for u1 in spec.initial_points for tol in spec.tolerances]
    assert [(r.u1, r.tol) for r in rows] == expected
    for row in rows:
        f, result = _standalone(spec, row.u1, row.tol)
        where = (spec.problem, row.u1, row.tol)
        assert row.iterations == result.iterations, where
        assert row.status == result.status, where
        assert row.limit == _snap_limit(f, result.final_point), where
    return rows


TABLE_STARTS = (
    ("cubic", 0.3, (0.6, 0.9, 2.0, 3.0, -3.0)),
    ("sine", 0.5, (2.0, 0.1, -0.5, 4.0, -2.0)),
)


@pytest.mark.parametrize(
    "tolerances, seeds", [((1e-6, 1e-8), (0, 7, 25)), ((1e-8, 1e-6, 1e-8), (1,))]
)
def test_table_rows_equal_standalone_solves(tolerances, seeds):
    for problem, mu, points in TABLE_STARTS:
        spec = TableSpec(problem, points, mu=mu, tolerances=tolerances)
        _assert_rows_match_standalone(spec)
    for seed in seeds:
        points = random_initial_points(40, seed)
        for problem, mu, starts in (("cubic", 0.3, points[:30]), ("sine", 0.5, points[30:])):
            spec = TableSpec(problem, starts, mu=mu, tolerances=tolerances)
            _assert_rows_match_standalone(spec)


def test_table_rows_budget_cut():
    # the budget stops the tight run, but the loose row crossed before it
    spec = TableSpec("cubic", (0.6,), tolerances=(1e-8, 1e-6), max_iters=60)
    tight, loose = _assert_rows_match_standalone(spec)
    assert (tight.iterations, tight.status) == (60, "max_iters")
    assert (loose.iterations, loose.status) == (54, "converged")
    assert loose.cpu_seconds <= tight.cpu_seconds


def test_table_keep_traces_share_one_solve():
    spec = TableSpec("sine", (2.0, 4.0), mu=0.5, tolerances=(1e-6, 1e-8, 1e-7))
    pairs = run_example_table(spec, keep_traces=True)
    for start in range(2):
        group = pairs[3 * start : 3 * start + 3]
        result = group[0][1]
        assert all(r is result for _, r in group)
        _, reference = _standalone(spec, group[0][0].u1, 1e-8)
        assert (result.iterations, result.status) == (reference.iterations, reference.status)
        for name in ("u", "z", "lam", "errors", "residuals", "operator_diffs"):
            np.testing.assert_array_equal(
                getattr(result.trace, name), getattr(reference.trace, name)
            )
    assert pairs[0][1] is not pairs[3][1]


#: the seeds whose scalar-grid starts held a 1-step stop at about the start
#: under the step norm alone
FALSE_STOP_SEEDS = (7, 25, 37, 75, 83, 86, 87, 100, 128, 131, 139, 147, 148, 157, 171, 195)


def test_grid_starts_of_the_false_stop_seeds_end_at_solutions():
    for seed in FALSE_STOP_SEEDS:
        points = random_initial_points(40, seed)
        for problem, mu, starts in (("cubic", 0.3, points[:30]), ("sine", 0.5, points[30:])):
            f, _ = PROBLEMS[problem]()
            spec = TableSpec(problem, starts, mu=mu)
            for row, result in run_example_table(spec, keep_traces=True):
                where = (seed, problem, row.u1, row.tol)
                assert row.status == "converged", where
                point = result.trace.u[row.iterations]
                assert np.abs(point - f.nearest_solution(point)).max() < 1e-4, where


def test_random_initial_points_deterministic():
    a = random_initial_points(4, seed=5)
    b = random_initial_points(4, seed=5)
    assert a == b
    assert all(0.0 < v < 1.0 for v in a)


# --- recovery runner ---------------------------------------------------------

def test_run_recovery_small_case():
    inst = gen_recovery(64, 128, 5, seed=4)
    out = run_recovery(inst)
    assert out.result.status == "converged"
    assert out.result.trace.errors[-1] < 1e-6
    assert out.result.trace.errors.shape == (out.result.iterations,)
    # every planted spike is recovered with the right sign
    support = np.flatnonzero(inst.signal)
    final = out.result.final_point
    assert np.all(np.sign(final[support]) == np.sign(inst.signal[support]))
    # the relaxed projection keeps the l1 norm near the ball radius
    assert np.abs(final).sum() <= inst.omega * 1.05


def test_run_recovery_zero_signal_converges_immediately():
    inst = gen_recovery(16, 32, 0, seed=1)
    out = run_recovery(inst)
    assert out.result.iterations == 1
    assert out.result.status == "converged"
    assert out.result.trace.errors[-1] == 0.0


def test_run_recovery_deterministic():
    inst = gen_recovery(32, 64, 4, seed=8)
    first = run_recovery(inst)
    second = run_recovery(inst)
    assert first.result.iterations == second.result.iterations
    np.testing.assert_array_equal(first.result.trace.errors, second.result.trace.errors)
    np.testing.assert_array_equal(first.result.final_point, second.result.final_point)


def test_run_recovery_requires_mse_rule_and_trace():
    inst = gen_recovery(16, 32, 2, seed=2)
    from qvi import SquaredStep

    with pytest.raises(ValueError):
        run_recovery(inst, SolverConfig(stop=SquaredStep(1e-12)))
