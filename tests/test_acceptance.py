"""Acceptance gate: every shipped claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible under pytest -s or in the
captured output of a failing run). Criteria:

1. cubic table rows: exact iteration counts for landing starts, windowed
   counts for the interior starts, sub-second runtime
2. sine table rows: windowed iteration counts, zero limits, sub-second
3. sparse recovery: convergence rates and median iteration windows over
   seed ensembles, under 60 s
4. sharpness-ratio identity (piecewise operator) and positivity (recovery)
5. per-iteration contraction audit plus corrupted-update negative control
6. step-size bounds and update-rule consistency on every trace
7. tail Q-factor below one plus synthetic rate-estimator checks
8. projection identity suite at 1e-12 / halfspace checks at 1e-10
9. separation certificates verified by sampling
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import qvi
from conftest import hull_lipschitz, scalar_config
from qvi.geometry import projector


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"[criterion {num}] FAIL: {desc}")
        raise
    print(f"[criterion {num}] PASS: {desc}")


def _solve_rows(problem_factory, mu, points, tolerances):
    f, feasible = problem_factory()
    rows = {}
    for u1 in points:
        for tol in tolerances:
            cfg = scalar_config(mu=mu, col_tol=tol)
            rows[(u1, tol)] = (cfg, qvi.solve(f, feasible, u1, cfg))
    return f, rows


@pytest.fixture(scope="module")
def cubic_runs():
    start = time.perf_counter()
    f, rows = _solve_rows(
        qvi.cubic_problem, 0.3, (0.6, 0.9, 2.0, 3.0, -3.0), (1e-6, 1e-8)
    )
    return f, rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def sine_runs():
    start = time.perf_counter()
    f, rows = _solve_rows(
        qvi.sine_problem, 0.5, (2.0, 0.1, -0.5, 4.0, -2.0), (1e-6, 1e-8)
    )
    return f, rows, time.perf_counter() - start


@pytest.fixture(scope="module")
def recovery_runs():
    start = time.perf_counter()
    case1 = [qvi.run_recovery(qvi.gen_recovery(256, 512, 20, seed=s)) for s in range(10)]
    case2 = [qvi.run_recovery(qvi.gen_recovery(256, 512, 40, seed=s)) for s in range(5)]
    return case1, case2, time.perf_counter() - start


def test_criterion_1_cubic_table(cubic_runs):
    _, rows, elapsed = cubic_runs
    with criterion(1, "cubic table rows reproduce reported counts and limits"):
        for u1, expected_iters, limit in ((2.0, 2, -1.0), (3.0, 3, 1.0), (-3.0, 3, -1.0)):
            for tol in (1e-6, 1e-8):
                result = rows[(u1, tol)][1]
                assert result.iterations == expected_iters, (u1, tol, result.iterations)
                assert abs(result.final_point[0] - limit) < 1e-6
        for u1, windows in ((0.6, {1e-6: (51, 57), 1e-8: (70, 76)}),
                            (0.9, {1e-6: (79, 85), 1e-8: (98, 104)})):
            for tol, (lo, hi) in windows.items():
                result = rows[(u1, tol)][1]
                assert lo <= result.iterations <= hi, (u1, tol, result.iterations)
                assert abs(result.final_point[0]) < 1e-2
        assert elapsed < 1.0, f"cubic table took {elapsed:.3f}s"


def test_criterion_2_sine_table(sine_runs):
    _, rows, elapsed = sine_runs
    with criterion(2, "sine table rows reproduce reported counts and limits"):
        expected = {(2.0, 1e-6): 23, (2.0, 1e-8): 29, (0.1, 1e-6): 18,
                    (-0.5, 1e-6): 20, (4.0, 1e-6): 33, (-2.0, 1e-6): 22}
        for key, count in expected.items():
            result = rows[key][1]
            assert abs(result.iterations - count) <= 3, (key, result.iterations)
            assert abs(result.final_point[0]) < 1e-2
        assert elapsed < 1.0, f"sine table took {elapsed:.3f}s"


def test_criterion_3_recovery_ensembles(recovery_runs):
    case1, case2, elapsed = recovery_runs
    with criterion(3, "recovery seed ensembles converge in the expected windows"):
        converged1 = [o for o in case1 if o.result.status == "converged"]
        assert len(converged1) >= 9, f"only {len(converged1)}/10 converged"
        med1 = float(np.median([o.result.iterations for o in converged1]))
        assert 120 <= med1 <= 500, f"case-1 median {med1}"
        converged2 = [o for o in case2 if o.result.status == "converged"]
        med2 = float(np.median([o.result.iterations for o in converged2]))
        assert 180 <= med2 <= 750, f"case-2 median {med2}"
        assert elapsed < 60.0, f"recovery ensembles took {elapsed:.1f}s"


def test_criterion_4_ratio_identity_and_positivity(recovery_runs):
    case1, _, _ = recovery_runs
    with criterion(4, "sharpness ratios: identically 1 (piecewise), positive (recovery)"):
        f, box = qvi.piecewise_problem()
        result = qvi.solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6, max_iters=2000))
        assert result.status == "converged"
        assert abs(result.final_point[0]) < 1e-2
        series = qvi.ratio_series(result.trace, f, np.array([0.0]), eps=1.0)
        assert series.values.size > 0
        np.testing.assert_allclose(series.values, 1.0, rtol=0, atol=1e-12)
        assert case1[0].ratio_series.min_ratio > 0.0


def _corrupted_worst_slack(trace, f, u, mu):
    worst = -np.inf
    for n in range(trace.iterations):
        step = qvi.SolveTrace(
            u=np.vstack([trace.u[n], trace.z[n]]),
            z=trace.z[n : n + 1],
            lam=trace.lam[n : n + 2],
            errors=trace.errors[n : n + 1],
            residuals=trace.residuals[n : n + 1],
            operator_diffs=trace.operator_diffs[n : n + 1],
        )
        worst = max(worst, qvi.fejer_audit(step, f, u, mu))
    return worst


def test_criterion_5_fejer_audit(cubic_runs, sine_runs):
    cubic_f, cubic_rows, _ = cubic_runs
    sine_f, sine_rows, _ = sine_runs
    with criterion(5, "contraction inequality audited on every table trace"):
        zero = np.array([0.0])
        for _, result in cubic_rows.values():
            assert qvi.fejer_audit(result.trace, cubic_f, zero, 0.3) <= 1e-9
        for _, result in sine_rows.values():
            assert qvi.fejer_audit(result.trace, sine_f, zero, 0.5) <= 1e-9
        control = sine_rows[(4.0, 1e-6)][1]
        assert _corrupted_worst_slack(control.trace, sine_f, zero, 0.5) > 1e-6


def test_criterion_6_step_size_invariants(cubic_runs, sine_runs, recovery_runs):
    cubic_f, cubic_rows, _ = cubic_runs
    sine_f, sine_rows, _ = sine_runs
    case1, case2, _ = recovery_runs
    with criterion(6, "step-size bounds and update consistency on every trace"):
        for f, rows in ((cubic_f, cubic_rows), (sine_f, sine_rows)):
            for cfg, result in rows.values():
                lip = hull_lipschitz(f, result.trace)
                assert qvi.step_bound_violation(result.trace, cfg, lip) <= 1e-9
                assert qvi.step_rule_slack(result.trace, cfg) <= 1e-12
        for seed, out in enumerate(case1 + case2):
            k = 20 if seed < 10 else 40
            instance = qvi.gen_recovery(256, 512, k, seed=seed % 10)
            f = qvi.LeastSquares(instance.mat, instance.observed)
            lip = qvi.power_iteration_gram_norm(instance.mat)
            cfg = qvi.experiments.default_recovery_config(instance)
            assert qvi.step_bound_violation(out.result.trace, cfg, lip) <= 1e-9
            assert qvi.step_rule_slack(out.result.trace, cfg) <= 1e-12


def test_criterion_7_rates(cubic_runs):
    _, rows, _ = cubic_runs
    with criterion(7, "tail contraction below one; synthetic rates recovered"):
        trace = rows[(0.6, 1e-6)][1].trace
        errors = np.abs(trace.u[:, 0])
        estimate = qvi.estimate_rates(errors[errors > 0], tail_window=20)
        assert estimate.q_factor < 1.0
        for rho in (0.3, 0.7, 0.95):
            synthetic = 2.0 * rho ** np.arange(1, 100)
            assert qvi.estimate_rates(synthetic, 20).q_factor == pytest.approx(rho, abs=1e-6)
        for order in (1.0, 2.0):
            synthetic = 1.0 / np.arange(1, 200, dtype=np.float64) ** order
            got = qvi.estimate_rates(synthetic, 20).sublinear_order
            assert got == pytest.approx(order, abs=0.05)


def test_criterion_8_projection_suite():
    # the identities are checked on the projections solve runs, which
    # projector resolves once per set
    with criterion(8, "projection identities and halfspace relaxation checks"):
        rng = np.random.default_rng(100)
        boxes = [
            (qvi.Box(-1.0, 1.0), qvi.Box(-1.0, 1.0)),
            (qvi.Box([-2.0, 0.0], [1.0, 5.0]), qvi.Box([-2.0, 0.0], [1.0, 5.0])),
            (qvi.Box(0.0, np.inf), qvi.Box(0.0, 10.0)),
        ]
        for box, window in boxes:
            members = window.sample(1000, rng)
            clamp = projector(box, np.zeros(box.dim), None)
            for _ in range(1000):
                w = rng.uniform(-6, 6, size=box.dim)
                v = rng.uniform(-6, 6, size=box.dim)
                pw, pv = clamp(None, w), clamp(None, v)
                assert np.linalg.norm(pw - pv) <= np.linalg.norm(w - v) + 1e-12
                u = members[rng.integers(0, 1000)]
                assert np.dot(w - pw, u - pw) <= 1e-12
                assert np.dot(w - pw, w - pw) <= np.dot(w - pw, w - u) + 1e-12
        omega = 2.0
        relaxed = projector(qvi.HalfSpaceRelaxedL1Ball(omega), np.zeros(6), np.zeros(6))
        for _ in range(1000):
            anchor = rng.standard_normal(6) * 2
            x = rng.standard_normal(6) * 3
            out = relaxed(anchor, x)
            tau = np.sign(anchor)
            c = np.abs(anchor).sum() - omega
            assert c <= np.dot(tau, anchor - out) + 1e-10
            y = rng.standard_normal(6)
            norm1 = np.abs(y).sum()
            if norm1 > omega:
                y *= rng.uniform(0.0, 1.0) * omega / norm1
            assert c <= np.dot(tau, anchor - y) + 1e-10


def test_criterion_9_separation_certificates():
    with criterion(9, "separation certificates verified with 10^4 samples"):
        lattice = [0.0] + [2 * k * np.pi + 1.5 * np.pi for k in range(4)]
        point_sets = (
            [0.0, 3.0],
            [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
            lattice,
        )
        for points in point_sets:
            cert = qvi.build_separation_certificate(points)
            assert qvi.verify_disjointness(cert, samples=10_000, seed=0)

