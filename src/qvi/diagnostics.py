"""Empirical validation of the solver's convergence machinery.

The functions here recompute, from recorded traces, the quantities that the
convergence analysis relies on: the sharpness ratio
|<F(z_n), z_n - u*>| / ||z_n - u*||^(2+eps), the per-iteration contraction
(Fejer-type) inequality, bounds and consistency of the adaptive step
sequence, separation certificates around candidate limit points, and tail
convergence-rate estimates.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import evaluate_batch


@dataclass(eq=False)
class RatioSeries:
    """Sharpness ratios along a trace, indexed by iteration."""

    index: np.ndarray
    values: np.ndarray

    @property
    def min_ratio(self):
        if self.values.size == 0:
            raise ValueError("empty ratio series")
        return float(self.values.min())


@dataclass(eq=False)
class SeparationCertificate:
    """Slab system around candidate limit points.

    delta is the slab half-width; directions[i, j] is the unit vector from
    point i to point j. A valid certificate keeps every pairwise distance at
    least 4 * delta, which makes the slabs pairwise disjoint.
    """

    points: np.ndarray
    delta: float
    directions: np.ndarray


@dataclass(frozen=True)
class RateEstimate:
    q_factor: float
    sublinear_order: float
    tail_window: int


_DIST_CUTOFF = 1e-14  # drop ratio entries where z_n has effectively landed


def _steps(trace):
    """Number of steps in a trace that has at least one."""
    if trace is None or trace.z.shape[0] == 0:
        raise ValueError("audit needs a trace with at least one step")
    return trace.z.shape[0]


def ratio_series(trace, f, reference, eps=1.0):
    """Ratios |<F(z_n), z_n - ref>| / ||z_n - ref||^(2+eps) along a trace.

    Entries with ||z_n - ref|| below _DIST_CUTOFF = 1e-14 are dropped to avoid 0/0.
    """
    _steps(trace)
    if not 0 <= eps < np.inf:
        raise ValueError("eps must be nonnegative and finite")
    ref = np.atleast_1d(np.asarray(reference, dtype=np.float64))
    z = trace.z
    fz = evaluate_batch(f, z)
    diff = z - ref
    dist = np.linalg.norm(diff, axis=1)
    keep = dist >= _DIST_CUTOFF
    num = np.abs(np.einsum("ij,ij->i", fz, diff))
    idx = np.arange(1, z.shape[0] + 1)
    return RatioSeries(index=idx[keep], values=num[keep] / dist[keep] ** (2.0 + eps))


def fejer_audit(trace, f, u, mu):
    """Worst slack of the per-iteration contraction inequality against u.

    For each step the recorded quantities must satisfy

        ||u_{n+1}-u||^2 <= ||u_n-u||^2
                           - (1 - mu^2 lam_n^2 / lam_{n+1}^2) ||z_n-u_n||^2
                           - 2 lam_n <F(z_n), z_n-u>

    whenever u is feasible and a dual solution. Returns the maximum of
    LHS - RHS over the trace; a correct run keeps this at rounding level.
    """
    n = _steps(trace)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    lam = trace.lam[:n]
    lam_next = trace.lam[1 : n + 1]
    fz = evaluate_batch(f, trace.z)
    # one work buffer: ||u_k - u||^2 for all n+1 iterates, then its first n
    # rows for z_n - u_n and z_n - u
    w = np.subtract(trace.u[: n + 1], u)
    w *= w
    dist_sq = w.sum(axis=1)
    wz = w[:n]
    np.subtract(trace.z, trace.u[:n], out=wz)
    wz *= wz
    shrink = (1.0 - mu**2 * lam**2 / lam_next**2) * wz.sum(axis=1)
    np.subtract(trace.z, u, out=wz)
    pairing = 2.0 * lam * np.einsum("ij,ij->i", fz, wz)
    return float(np.max(dist_sq[1:] - dist_sq[:n] + shrink + pairing))


def step_bound_violation(trace, cfg, lipschitz):
    """Worst violation of the step-size bounds; <= 0 when both hold.

    Lower bound min(lam_1, mu / L), upper bound lam_1 plus the accumulated
    perturbations; L is the operator's Lipschitz constant over the region
    the trace visits.
    """
    if not lipschitz > 0:
        raise ValueError("lipschitz must be positive")
    lam = trace.lam
    lower = min(cfg.lambda1, cfg.mu / lipschitz)
    upper = cfg.lambda1 + cfg.xi_params.prefix_sums(lam.shape[0])
    return float(max(np.max(lower - lam), np.max(lam - upper)))


def step_rule_slack(trace, cfg):
    """Worst inconsistency of the step update along a trace.

    Each update must either take the additive branch exactly
    (lam_{n+1} = lam_n + xi_n) or satisfy
    lam_{n+1} ||F(u_n)-F(z_n)|| <= mu ||u_n-z_n||, evaluated on the norms
    the update itself used (recorded in the trace).
    """
    n = _steps(trace)
    lam = trace.lam[:n]
    lam_next = trace.lam[1 : n + 1]
    xi_vals = np.array([cfg.xi_params.value(k) for k in range(1, n + 1)])
    additive = lam_next == lam + xi_vals
    slack = lam_next * trace.operator_diffs - cfg.mu * trace.residuals
    slack[additive] = -np.inf
    return float(np.max(slack)) if np.any(~additive) else -np.inf


def realized_lipschitz(trace, f):
    """Max ratio ||F(u_n)-F(z_n)|| / ||u_n-z_n|| realized along a trace.

    Near a solution the computed operator values quantize at machine
    precision, so this can exceed the analytic Lipschitz constant by a few
    parts in 1e9; the step-size induction sees exactly these ratios.
    """
    n = _steps(trace)
    fu = evaluate_batch(f, trace.u[:n])
    fz = evaluate_batch(f, trace.z)
    # row norms as sqrt of summed squares, which is what np.linalg.norm
    # computes along an axis, in one work buffer
    w = np.subtract(fu, fz)
    w *= w
    df = np.sqrt(w.sum(axis=1))
    np.subtract(trace.u[:n], trace.z, out=w)
    w *= w
    res = np.sqrt(w.sum(axis=1))
    keep = res > 0
    if not np.any(keep):
        return 0.0
    return float(np.max(df[keep] / res[keep]))


def tseng_identity_error(trace, f):
    """Max componentwise error of u_{n+1} - z_n = lam_n (F(u_n) - F(z_n))."""
    n = _steps(trace)
    fu = evaluate_batch(f, trace.u[:n])
    fz = evaluate_batch(f, trace.z)
    rhs = np.subtract(fu, fz)
    rhs *= trace.lam[:n, None]
    w = np.subtract(trace.u[1 : n + 1], trace.z)
    np.subtract(w, rhs, out=w)
    np.abs(w, out=w)
    return float(np.max(w))


@np.errstate(over="ignore")  # an overflowing distance is rejected below
def build_separation_certificate(points):
    """Slab certificate from a finite point set.

    delta is a quarter of the minimum pairwise distance; the direction for
    each ordered pair is the normalized difference. Duplicate points are
    rejected since their separation is zero, and so are non-finite ones and
    pairs whose distance overflows.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] < 2:
        raise ValueError("need at least two points")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    m, d = pts.shape
    directions = np.zeros((m, m, d))
    dmin = np.inf
    for i, j in itertools.combinations(range(m), 2):
        diff = pts[j] - pts[i]
        dist = float(np.linalg.norm(diff))
        if dist == 0.0:
            raise ValueError(f"duplicate points at indices {i} and {j}")
        if not math.isfinite(dist):
            raise ValueError(f"distance between points {i} and {j} is not finite")
        directions[i, j] = diff / dist
        directions[j, i] = -diff / dist
        dmin = min(dmin, dist)
    return SeparationCertificate(points=pts, delta=0.25 * dmin, directions=directions)


def verify_disjointness(cert, samples=10_000, seed=0):
    """Check that the certificate's slabs are pairwise disjoint.

    Verifies the defining margin ||y_j - y_i|| >= 4 delta for every pair,
    then samples points inside each slab (offsets along the pair direction,
    strictly within the half-width) and confirms none lands inside another
    slab along the corresponding pair direction. Returns True iff no
    violation is found.
    """
    pts = cert.points
    delta = cert.delta
    m = pts.shape[0]
    scale = max(1.0, float(np.abs(pts).max()))
    for i, j in itertools.combinations(range(m), 2):
        if np.linalg.norm(pts[j] - pts[i]) < 4.0 * delta - 1e-12 * scale:
            return False
    rng = np.random.default_rng(seed)
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            r = cert.directions[i, j]
            offs = rng.uniform(-delta, delta, size=samples)
            x = pts[i] + offs[:, None] * r
            for k in range(m):
                if k == i:
                    continue
                # Cauchy-Schwarz keeps |<r_ik, x - y_i>| <= |offset| < delta,
                # so x stays inside slab i; it must not enter slab k.
                along = x @ cert.directions[i, k] - pts[k] @ cert.directions[i, k]
                if np.any(np.abs(along) < delta):
                    return False
    return True


def estimate_rates(errors, tail_window=20):
    """Tail convergence-rate summary of a positive error sequence.

    q_factor is the median ratio of successive errors over the last
    tail_window entries; sublinear_order is the negated slope of log(error)
    against log(n) over the same tail.
    """
    e = np.asarray(errors, dtype=np.float64)
    if tail_window < 3:
        raise ValueError("tail_window must be at least 3")
    if e.ndim != 1 or e.shape[0] < tail_window:
        raise ValueError(f"need at least {tail_window} error samples")
    if not np.all((e > 0) & (e < np.inf)):
        raise ValueError("errors must be finite and strictly positive")
    tail = e[-tail_window:]
    n = np.arange(e.shape[0] - tail_window + 1, e.shape[0] + 1, dtype=np.float64)
    q = float(np.median(tail[1:] / tail[:-1]))
    slope = np.polyfit(np.log(n), np.log(tail), 1)[0]
    return RateEstimate(q_factor=q, sublinear_order=float(-slope), tail_window=tail_window)
