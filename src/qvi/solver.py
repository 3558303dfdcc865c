"""Tseng extragradient iteration with a non-monotone self-adaptive step.

Each iteration performs one projection and one explicit correction:

    z_n     = P_C(u_n - lam_n F(u_n))
    u_{n+1} = z_n + lam_n (F(u_n) - F(z_n))

and then updates the step size

    lam_{n+1} = min(mu ||u_n - z_n|| / ||F(u_n) - F(z_n)||, lam_n + xi_n)

falling back to lam_n + xi_n when the operator values coincide. The
perturbations xi_n = a / (n+1)^p are summable (p > 1), so the step sequence
converges while being allowed to grow between iterations.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .geometry import Box, HalfSpaceRelaxedL1Ball, ProjectionContext, project


class NumericError(RuntimeError):
    """Non-finite values encountered during iteration."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class XiSequence:
    """Summable step perturbations xi_n = scale / (n+1)**exponent."""

    scale: float = 100.0
    exponent: float = 1.1

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        if not self.exponent > 1:
            raise ValueError("exponent must exceed 1 for summability")

    def value(self, n):
        return self.scale / (n + 1) ** self.exponent

    def prefix_sums(self, count):
        """Array [0, xi_1, xi_1+xi_2, ...] of length count."""
        if count < 1:
            return np.zeros(0)
        vals = self.scale / (np.arange(2, count + 1, dtype=np.float64) ** self.exponent)
        return np.concatenate([[0.0], np.cumsum(vals)])

    def total(self, horizon):
        """Upper bound on the full series: partial sum plus an integral tail."""
        partial = float(self.prefix_sums(horizon + 1)[-1])
        p = self.exponent
        tail = self.scale * p / ((p - 1.0) * (horizon + 1) ** (p - 1.0))
        return partial + tail


def xi(n, params):
    """Perturbation xi_n for iteration n >= 1."""
    if n < 1:
        raise ValueError("iteration index starts at 1")
    return params.value(n)


@dataclass(frozen=True)
class SquaredStep:
    """Stop once ||u_{n+1} - u_n||^2 drops below tol."""

    tol: float

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class ExactTermination:
    """Stop once ||u_n - z_n|| or ||F(z_n)|| reaches tol_z (z_n solves the problem)."""

    tol_z: float = 0.0

    def __post_init__(self):
        if self.tol_z < 0:
            raise ValueError("tol_z must be nonnegative")


@dataclass(eq=False)
class MseToReference:
    """Stop once the mean squared error to a reference point drops below tol."""

    reference: np.ndarray
    tol: float

    def __post_init__(self):
        self.reference = np.atleast_1d(np.asarray(self.reference, dtype=np.float64))
        if not self.tol > 0:
            raise ValueError("tol must be positive")


StoppingRule = SquaredStep | ExactTermination | MseToReference


@dataclass(eq=False)
class SolverConfig:
    lambda1: float = 1.0
    mu: float = 0.3
    xi_params: XiSequence = field(default_factory=XiSequence)
    stop: StoppingRule = field(default_factory=lambda: SquaredStep(1e-12))
    max_iters: int = 500
    trace_level: str = "full"

    def __post_init__(self):
        if not self.lambda1 > 0:
            raise ValueError("lambda1 must be positive")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.trace_level not in ("final", "full"):
            raise ValueError("trace_level must be 'final' or 'full'")


@dataclass(eq=False)
class SolveTrace:
    """Per-iteration record of a run.

    With n executed steps: u has shape (n+1, d) holding u_1..u_{n+1}, z has
    shape (n, d), lam has length n+1 holding lam_1..lam_{n+1}, and errors /
    residuals / operator_diffs have length n. residual_n = ||u_n - z_n|| and
    operator_diff_n = ||F(u_n) - F(z_n)|| as computed inside the loop, so
    audits of the step update can reuse the exact values the update saw.
    """

    u: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    errors: np.ndarray
    residuals: np.ndarray
    operator_diffs: np.ndarray

    @property
    def iterations(self):
        return self.z.shape[0]


@dataclass(eq=False)
class SolveResult:
    final_point: np.ndarray
    iterations: int
    status: str  # converged | terminated_exact | max_iters
    wall_time: float
    trace: SolveTrace | None = None


def update_stepsize(lam, xi_n, u, z, fu, fz, mu):
    """Step-size update: min(mu ||u-z|| / ||F(u)-F(z)||, lam + xi_n)."""
    u = np.asarray(u, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    df = float(np.linalg.norm(np.asarray(fu, dtype=np.float64) - np.asarray(fz, dtype=np.float64)))
    if df == 0.0:
        return lam + xi_n
    return min(mu * float(np.linalg.norm(u - z)) / df, lam + xi_n)


def _check_finite(values, n, what):
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite {what} at iteration {n}", iteration=n)


def _project_step(feasible_set, u, w):
    if isinstance(feasible_set, HalfSpaceRelaxedL1Ball):
        return project(feasible_set, w, ProjectionContext(u))
    return project(feasible_set, w)


def _step(u, lam, f, feasible_set, n, cfg):
    """One iteration; returns everything downstream bookkeeping needs."""
    fu = np.asarray(f(u), dtype=np.float64)
    _check_finite(fu, n, "operator value F(u_n)")
    z = _project_step(feasible_set, u, u - lam * fu)
    fz = np.asarray(f(z), dtype=np.float64)
    u_next, res, df, err_sq = kernels.correction_and_norms(u, z, fu, fz, lam)
    # with F(u_n) finite, a non-finite entry of F(z_n) makes df non-finite
    # and one of u_{n+1} makes err_sq non-finite; the array checks then
    # name which value failed
    if not (math.isfinite(df) and math.isfinite(err_sq)):
        _check_finite(fz, n, "operator value F(z_n)")
        _check_finite(u_next, n, "iterate u_{n+1}")
    xi_n = cfg.xi_params.value(n)
    lam_next = lam + xi_n if df == 0.0 else min(cfg.mu * res / df, lam + xi_n)
    return u_next, z, lam_next, fz, res, df, err_sq


def tseng_step(u, lam, f, feasible_set, n, cfg):
    """Single iteration: returns (u_{n+1}, z_n, lam_{n+1})."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    u_next, z, lam_next, *_ = _step(u, lam, f, feasible_set, n, cfg)
    return u_next, z, lam_next


def solve(f, feasible_set, u1, cfg):
    """Run the iteration from u1 until the stopping rule fires or max_iters.

    The stopping rule is evaluated after each completed step; the reported
    iteration count is the number of executed steps. The exact-termination
    rule returns z_n as the final point, the others return the latest
    iterate.
    """
    u = np.atleast_1d(np.asarray(u1, dtype=np.float64)).copy()
    if not np.all(np.isfinite(u)):
        raise ValueError("initial point must be finite")
    lam = float(cfg.lambda1)
    stop = cfg.stop
    full = cfg.trace_level == "full"

    us = [u.copy()]
    zs = []
    lams = [lam]
    errors = []
    residuals = []
    operator_diffs = []

    status = "max_iters"
    final = u
    iterations = 0
    t0 = time.perf_counter()
    for n in range(1, cfg.max_iters + 1):
        u_next, z, lam_next, fz, res, df, err_sq = _step(u, lam, f, feasible_set, n, cfg)
        if isinstance(stop, SquaredStep):
            error = err_sq
            done = error < stop.tol
        elif isinstance(stop, MseToReference):
            error = float(np.mean((u_next - stop.reference) ** 2))
            done = error < stop.tol
        else:
            fz_norm = float(np.linalg.norm(fz))
            error = min(res, fz_norm)
            done = res <= stop.tol_z or fz_norm <= stop.tol_z
        if full:
            us.append(u_next)
            zs.append(z)
            lams.append(lam_next)
        errors.append(error)
        residuals.append(res)
        operator_diffs.append(df)
        iterations = n
        if done:
            status = "terminated_exact" if isinstance(stop, ExactTermination) else "converged"
            final = z if isinstance(stop, ExactTermination) else u_next
            break
        u, lam = u_next, lam_next
        final = u
    wall = time.perf_counter() - t0

    trace = None
    if full:
        trace = SolveTrace(
            u=np.stack(us),
            z=np.stack(zs) if zs else np.zeros((0, u.shape[0])),
            lam=np.asarray(lams),
            errors=np.asarray(errors),
            residuals=np.asarray(residuals),
            operator_diffs=np.asarray(operator_diffs),
        )
    return SolveResult(
        final_point=final,
        iterations=iterations,
        status=status,
        wall_time=wall,
        trace=trace,
    )
