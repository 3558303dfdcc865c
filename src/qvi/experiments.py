"""Problem instances and reproducible experiment runners.

Two scalar benchmark problems (a cubic quasimonotone operator on [-1, 1]
and a shifted sine on the nonnegative ray) are run over grids of initial
points and tolerances, reporting iteration counts and identified limits.
The sparse signal-recovery study solves a least-squares problem over the
l1 ball via its halfspace relaxation, tracking the mean squared error to
the planted signal.
"""

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .diagnostics import RatioSeries, ratio_series
from .geometry import Box, HalfSpaceRelaxedL1Ball
from .operators import CubicQuasi, LeastSquares, Mapping, PiecewiseQuad, SinePlusOne
from .solver import (
    MseToReference,
    SolveResult,
    SolverConfig,
    SquaredStep,
    XiSequence,
    solve,
)

#: snap a final iterate to a known solution when it lands this close
LIMIT_SNAP_TOL = 1e-2


# one (operator, Box) pair per problem: neither changes once built, and a Box
# costs microseconds to validate, a few percent of a one-start table op
@functools.cache
def cubic_problem():
    return CubicQuasi(), Box(-1.0, 1.0)


@functools.cache
def sine_problem():
    return SinePlusOne(), Box(0.0, np.inf)


@functools.cache
def piecewise_problem():
    return PiecewiseQuad(), Box(-1.0, 1.0)


PROBLEMS = {
    "cubic": cubic_problem,
    "sine": sine_problem,
    "piecewise": piecewise_problem,
}


def mse(u, reference):
    """Mean squared error (1/N) sum (u_i - ref_i)^2."""
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    reference = np.atleast_1d(np.asarray(reference, dtype=np.float64))
    if u.shape != reference.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {reference.shape}")
    return float(np.mean((u - reference) ** 2))


@dataclass(eq=False)
class RecoveryInstance:
    """Planted sparse-recovery problem: observe y = T u* without noise."""

    mat: np.ndarray
    signal: np.ndarray
    observed: np.ndarray
    omega: float
    seed: int


def gen_recovery(m, n, k, seed):
    """Random sensing matrix (standard normal) and a k-sparse +-1 signal.

    Deterministic for a fixed seed: the same (m, n, k, seed) always
    produces the identical instance.
    """
    if k > n:
        raise ValueError("sparsity k cannot exceed the signal length")
    if k < 0:
        raise ValueError("sparsity k must be nonnegative")
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n))
    signal = np.zeros(n)
    if k > 0:
        support = rng.choice(n, size=k, replace=False)
        signal[support] = rng.choice([-1.0, 1.0], size=k)
    observed = mat @ signal
    return RecoveryInstance(
        mat=mat, signal=signal, observed=observed, omega=float(k), seed=seed
    )


@dataclass(eq=False)
class TableSpec:
    """Grid of runs for one scalar benchmark problem."""

    problem: str
    initial_points: tuple
    lambda1: float = 1.0
    mu: float = 0.3
    xi_params: XiSequence = field(default_factory=XiSequence)
    tolerances: tuple = (1e-6, 1e-8)
    max_iters: int = 500

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}; choose from {sorted(PROBLEMS)}")
        if len(self.initial_points) == 0:
            raise ValueError("initial_points must be nonempty")
        if len(self.tolerances) == 0:
            raise ValueError("tolerances must be nonempty")
        if not all(0 < tol < math.inf for tol in self.tolerances):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class TableRow:
    u1: float
    tol: float
    iterations: int
    cpu_seconds: float
    limit: float
    status: str


def _snap_limit(f: Mapping, final):
    nearest = f.nearest_solution(final)
    if nearest is not None and np.linalg.norm(final - nearest) < LIMIT_SNAP_TOL:
        return float(nearest[0])
    return float(np.atleast_1d(final)[0])


def run_example_table(spec, keep_traces=False):
    """One solve per initial point, at the tightest tolerance.

    The tolerance bounds the step norm ||u_{n+1} - u_n||, matching the
    reported iteration counts; the squared-step stopping rule therefore
    receives tol**2. The stopping rule does not steer the iteration, so a
    run at a looser tolerance is a prefix of the run at the tightest one:
    each row stops at the first step of the trace SquaredStep(tol**2) accepts,
    or takes the solve's own count and status when no step passes. Rows are
    start-major with the tolerances in the given order. cpu_seconds is the
    solve loop's wall_time scaled by row.iterations / result.iterations, the
    time to the row's stop at the solve's mean cost per iteration. Returns
    TableRow records; with keep_traces the (row, SolveResult) pairs are
    returned instead, and the rows of one start share one SolveResult.
    """
    f, feasible = PROBLEMS[spec.problem]()
    tightest = min(spec.tolerances)
    cfg = SolverConfig(
        lambda1=spec.lambda1,
        mu=spec.mu,
        xi_params=spec.xi_params,
        stop=SquaredStep(tightest * tightest),
        max_iters=spec.max_iters,
    )
    out = []
    for u1 in spec.initial_points:
        result = solve(f, feasible, u1, cfg)
        trace = result.trace
        for tol in spec.tolerances:
            done = SquaredStep(tol * tol).converged(trace.errors, trace.residuals, trace.lam[:-1])
            crossed = np.flatnonzero(done)
            if crossed.size:
                iterations, status = int(crossed[0]) + 1, "converged"
            else:
                iterations, status = result.iterations, result.status
            row = TableRow(
                u1=float(u1),
                tol=float(tol),
                iterations=iterations,
                cpu_seconds=result.wall_time * iterations / result.iterations,
                limit=_snap_limit(f, trace.u[iterations]),
                status=status,
            )
            out.append((row, result) if keep_traces else row)
    return out


def random_initial_points(count, seed):
    """Initial points drawn uniformly from (0, 1), one per row."""
    rng = np.random.default_rng(seed)
    return tuple(float(v) for v in rng.uniform(0.0, 1.0, size=count))


def default_recovery_config(instance):
    """Solver parameters for the recovery study: small initial step, MSE stop."""
    return SolverConfig(
        lambda1=0.1,
        mu=0.3,
        xi_params=XiSequence(100.0, 1.1),
        stop=MseToReference(instance.signal, 1e-6),
        max_iters=2000,
    )


class RecoveryOutput(NamedTuple):
    result: SolveResult
    ratio_series: RatioSeries


def run_recovery(instance, cfg=None):
    """Solve a recovery instance from the zero vector.

    Returns the solve result, whose ``trace.errors`` is the per-iteration MSE
    trajectory, and the eps = 1 sharpness-ratio series against the planted
    signal.
    """
    if cfg is None:
        cfg = default_recovery_config(instance)
    if not isinstance(cfg.stop, MseToReference):
        raise ValueError("recovery runs stop on mean squared error to the signal")
    f = LeastSquares(
        instance.mat, instance.observed, known_solutions=(instance.signal,)
    )
    feasible = HalfSpaceRelaxedL1Ball(instance.omega)
    u1 = np.zeros(instance.mat.shape[1])
    result = solve(f, feasible, u1, cfg)
    ratios = ratio_series(result.trace, f, instance.signal, eps=1.0)
    return RecoveryOutput(result=result, ratio_series=ratios)
