"""Ratio series, separation certificates, rate estimates, iteration audits."""

import dataclasses

import numpy as np
import pytest

from conftest import scalar_config
from qvi import (
    LeastSquares,
    Mapping,
    PiecewiseQuad,
    SolveTrace,
    build_separation_certificate,
    cubic_problem,
    estimate_rates,
    fejer_audit,
    gen_recovery,
    piecewise_problem,
    ratio_series,
    realized_lipschitz,
    run_recovery,
    sine_problem,
    solve,
    step_rule_slack,
    tseng_identity_error,
    verify_disjointness,
)
from qvi.experiments import default_recovery_config

THREE_HALF_PI = 1.5 * np.pi


def _trace_with_z(z_values):
    z = np.asarray(z_values, dtype=np.float64)[:, None]
    n = z.shape[0]
    return SolveTrace(
        u=np.zeros((n + 1, 1)),
        z=z,
        lam=np.ones(n + 1),
        errors=np.zeros(n),
        residuals=np.zeros(n),
        operator_diffs=np.zeros(n),
    )


# --- ratio series --------------------------------------------------------

def test_ratio_identity_for_piecewise_quadratic():
    # on [-1, 1] the operator is z^2, so |<F(z), z>| / |z|^3 is identically 1
    f, box = piecewise_problem()
    result = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6, max_iters=2000))
    assert result.status == "converged"
    series = ratio_series(result.trace, f, np.array([0.0]), eps=1.0)
    assert series.values.size > 0
    np.testing.assert_allclose(series.values, 1.0, rtol=0, atol=1e-12)


def test_ratio_blows_up_toward_negative_one():
    # approaching -1 from inside, F(z) -> 1 while the distance vanishes, so
    # the ratio grows without bound
    f = PiecewiseQuad()
    z = -1.0 + 4.0 ** -np.arange(1.0, 16.0)
    series = ratio_series(_trace_with_z(z), f, np.array([-1.0]), eps=1.0)
    assert series.values.size == 15
    assert np.all(np.diff(series.values) > 0)
    assert series.values[-1] > 1e15 * series.values[0]


def test_ratio_filters_landed_entries():
    f = PiecewiseQuad()
    series = ratio_series(_trace_with_z([0.5, 0.0, 0.25]), f, np.array([0.0]), eps=1.0)
    np.testing.assert_array_equal(series.index, [1, 3])
    np.testing.assert_allclose(series.values, 1.0, atol=1e-12)


def test_ratio_positive_on_recovery_run():
    out = run_recovery(gen_recovery(64, 128, 5, seed=2))
    assert out.result.status == "converged"
    assert out.ratio_series.min_ratio > 0.0


def test_ratio_series_validation():
    f = PiecewiseQuad()
    with pytest.raises(ValueError):
        ratio_series(None, f, np.array([0.0]))
    with pytest.raises(ValueError):
        ratio_series(_trace_with_z([0.5]), f, np.array([0.0]), eps=-0.5)
    for eps in (np.nan, np.inf):
        with pytest.raises(ValueError, match="eps must be nonnegative and finite"):
            ratio_series(_trace_with_z([0.5]), f, np.array([0.0]), eps=eps)
    empty = ratio_series(_trace_with_z([0.0]), f, np.array([0.0]))
    with pytest.raises(ValueError):
        empty.min_ratio


# --- separation certificates ---------------------------------------------

def test_certificate_pair_on_the_line():
    cert = build_separation_certificate([0.0, 3.0])
    assert cert.delta == pytest.approx(0.75)
    assert cert.directions[0, 1, 0] == 1.0 and cert.directions[1, 0, 0] == -1.0
    assert verify_disjointness(cert, samples=10_000, seed=0)


def test_certificate_sine_lattice_prefix():
    pts = [0.0] + [2 * k * np.pi + THREE_HALF_PI for k in range(2)]
    cert = build_separation_certificate(pts)
    assert cert.delta == pytest.approx(THREE_HALF_PI / 4)
    assert verify_disjointness(cert, samples=10_000, seed=0)


def test_certificate_planar_triangle():
    cert = build_separation_certificate([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert cert.delta == pytest.approx(0.25)
    # brute force the defining margin over all ordered pairs
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            gap = np.linalg.norm(cert.points[j] - cert.points[i])
            assert abs(cert.directions[i, j] @ (cert.points[j] - cert.points[i])) == pytest.approx(gap)
            assert gap >= 4 * cert.delta
            assert np.linalg.norm(cert.directions[i, j]) == pytest.approx(1.0, abs=1e-12)
    assert verify_disjointness(cert, samples=10_000, seed=1)


def test_certificate_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        build_separation_certificate([1.0])
    with pytest.raises(ValueError):
        build_separation_certificate([1.0, 1.0, 2.0])
    # a NaN gave delta 0.75 and an inf NaN directions before the check
    for points in ([0.0, np.nan, 3.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="points must be finite"):
            build_separation_certificate(points)
    # finite points whose difference overflows gave delta inf and NaN directions
    for points in ([-1e308, 1e308], [[0.0, 0.0], [1e200, 1e200]]):
        with pytest.raises(ValueError, match="distance between points 0 and 1 is not finite"):
            build_separation_certificate(points)


def test_overwide_slabs_are_rejected():
    cert = build_separation_certificate([0.0, 3.0])
    # half the distance violates the quarter-distance margin: the midpoint
    # 1.5 sits on both slab boundaries
    bad = dataclasses.replace(cert, delta=1.5)
    assert not verify_disjointness(bad, samples=1000, seed=0)


# --- rate estimation ------------------------------------------------------

def test_rate_estimator_geometric():
    for rho in (0.3, 0.7, 0.95):
        errors = 2.0 * rho ** np.arange(1, 120)
        est = estimate_rates(errors, tail_window=20)
        assert est.q_factor == pytest.approx(rho, abs=1e-6)


def test_rate_estimator_power_law():
    for order in (1.0, 2.0):
        errors = 3.0 / np.arange(1, 200, dtype=np.float64) ** order
        est = estimate_rates(errors, tail_window=20)
        assert est.sublinear_order == pytest.approx(order, abs=0.05)
        assert est.q_factor < 1.0 + 1e-9


def test_rate_estimator_validation():
    with pytest.raises(ValueError):
        estimate_rates([1.0, 0.5], tail_window=20)
    with pytest.raises(ValueError):
        estimate_rates([1.0, -0.5, 0.2, 0.1], tail_window=3)
    with pytest.raises(ValueError):
        estimate_rates([1.0, 0.5, 0.2], tail_window=2)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and strictly positive"):
            estimate_rates([1.0, bad, 0.2, 0.1], tail_window=3)


def test_rate_estimator_on_solver_run():
    from qvi import cubic_problem

    f, box = cubic_problem()
    result = solve(f, box, 0.6, scalar_config(mu=0.3, col_tol=1e-6))
    errors = np.abs(result.trace.u[:, 0])
    est = estimate_rates(errors[errors > 0], tail_window=20)
    assert est.q_factor < 1.0


# --- contraction audit ----------------------------------------------------

def corrupted_audit_worst_slack(trace, f, u, mu):
    """Audit each iteration with the correction term dropped (u_{n+1} := z_n)."""
    worst = -np.inf
    for n in range(trace.iterations):
        step = SolveTrace(
            u=np.vstack([trace.u[n], trace.z[n]]),
            z=trace.z[n : n + 1],
            lam=trace.lam[n : n + 2],
            errors=trace.errors[n : n + 1],
            residuals=trace.residuals[n : n + 1],
            operator_diffs=trace.operator_diffs[n : n + 1],
        )
        worst = max(worst, fejer_audit(step, f, u, mu))
    return worst


def test_fejer_audit_negative_control():
    f, ray = sine_problem()
    result = solve(f, ray, 4.0, scalar_config(mu=0.5, col_tol=1e-6))
    assert fejer_audit(result.trace, f, np.array([0.0]), mu=0.5) <= 1e-9
    # dropping the correction term must break the inequality somewhere
    assert corrupted_audit_worst_slack(result.trace, f, np.array([0.0]), 0.5) > 1e-6


def test_fejer_audit_needs_trace():
    f, _ = sine_problem()
    with pytest.raises(ValueError):
        fejer_audit(None, f, np.array([0.0]), mu=0.5)


# --- audits against their one-line formulas ----------------------------------

def _fejer_reference(trace, f, u, mu):
    n = trace.z.shape[0]
    u_cur, u_next = trace.u[:n], trace.u[1 : n + 1]
    lam, lam_next = trace.lam[:n], trace.lam[1 : n + 1]
    fz = np.asarray(f(trace.z), dtype=np.float64)
    d_next = np.sum((u_next - u) ** 2, axis=1)
    d_cur = np.sum((u_cur - u) ** 2, axis=1)
    shrink = (1.0 - mu**2 * lam**2 / lam_next**2) * np.sum((trace.z - u_cur) ** 2, axis=1)
    pairing = 2.0 * lam * np.einsum("ij,ij->i", fz, trace.z - u)
    return float(np.max(d_next - d_cur + shrink + pairing))


def _realized_reference(trace, f):
    n = trace.z.shape[0]
    fu = np.asarray(f(trace.u[:n]), dtype=np.float64)
    fz = np.asarray(f(trace.z), dtype=np.float64)
    df = np.linalg.norm(fu - fz, axis=1)
    res = np.linalg.norm(trace.u[:n] - trace.z, axis=1)
    keep = res > 0
    return float(np.max(df[keep] / res[keep])) if np.any(keep) else 0.0


def _identity_reference(trace, f):
    n = trace.z.shape[0]
    fu = np.asarray(f(trace.u[:n]), dtype=np.float64)
    fz = np.asarray(f(trace.z), dtype=np.float64)
    lhs = trace.u[1 : n + 1] - trace.z
    rhs = trace.lam[:n, None] * (fu - fz)
    return float(np.max(np.abs(lhs - rhs)))


class _ReadOnlyValues(Mapping):
    """Operator whose results the caller may not write into."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def __call__(self, x):
        out = np.array(self.inner(x))
        out.flags.writeable = False
        return out


def _read_only(trace):
    arrays = {}
    for name in ("u", "z", "lam", "errors", "residuals", "operator_diffs"):
        arr = getattr(trace, name).copy()
        arr.flags.writeable = False
        arrays[name] = arr
    return SolveTrace(**arrays)


def test_audits_equal_reference_formulas_without_writing_inputs():
    inst = gen_recovery(40, 90, 5, seed=2)
    recovery = run_recovery(inst).result.trace
    f_cubic, box = cubic_problem()
    cubic = solve(f_cubic, box, 0.6, scalar_config(mu=0.3, col_tol=1e-8)).trace
    cases = [
        (recovery, LeastSquares(inst.mat, inst.observed), inst.signal, 0.3),
        (cubic, f_cubic, np.zeros(1), 0.3),
    ]
    for trace, f, reference, mu in cases:
        expected = (
            _fejer_reference(trace, f, reference, mu),
            _realized_reference(trace, f),
            _identity_reference(trace, f),
        )
        assert trace.iterations > 20
        for t, g in ((trace, f), (_read_only(trace), _ReadOnlyValues(f))):
            got = (fejer_audit(t, g, reference, mu), realized_lipschitz(t, g),
                   tseng_identity_error(t, g))
            assert got == expected


# --- traces and operators the audits cannot use -------------------------------

class _FirstColumn(Mapping):
    """Keeps only the first component of F: shape (n, 1) on an (n, d) batch."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim

    def __call__(self, x):
        return self.inner(x)[..., :1]


_AUDITS = {
    "ratio_series": lambda t, f, cfg: ratio_series(t, f, np.zeros(t.z.shape[1])),
    "fejer_audit": lambda t, f, cfg: fejer_audit(t, f, np.zeros(t.z.shape[1]), cfg.mu),
    "step_rule_slack": lambda t, f, cfg: step_rule_slack(t, cfg),
    "realized_lipschitz": lambda t, f, cfg: realized_lipschitz(t, f),
    "tseng_identity_error": lambda t, f, cfg: tseng_identity_error(t, f),
}


@pytest.mark.parametrize("name", list(_AUDITS))
def test_audits_reject_wrong_operator_shapes_and_zero_step_traces(name):
    audit = _AUDITS[name]
    inst = gen_recovery(12, 30, 3, seed=1)
    cfg = default_recovery_config(inst)
    trace = run_recovery(inst, cfg).result.trace
    f = LeastSquares(inst.mat, inst.observed)
    audit(trace, f, cfg)
    if name != "step_rule_slack":  # the one audit that does not evaluate F
        with pytest.raises(ValueError, match=r"operator returned shape \(\d+, 1\) for batch"):
            audit(trace, _FirstColumn(f), cfg)
    no_steps = SolveTrace(
        u=trace.u[:1], z=trace.z[:0], lam=trace.lam[:1], errors=trace.errors[:0],
        residuals=trace.residuals[:0], operator_diffs=trace.operator_diffs[:0],
    )
    with pytest.raises(ValueError, match="audit needs a trace with at least one step"):
        audit(no_steps, f, cfg)
