"""Tseng extragradient iteration with a non-monotone self-adaptive step.

Each iteration performs one projection and one explicit correction:

    z_n     = P_C(u_n - lam_n F(u_n))
    u_{n+1} = z_n + lam_n (F(u_n) - F(z_n))

and then updates the step size

    lam_{n+1} = min(mu ||u_n - z_n|| / ||F(u_n) - F(z_n)||, lam_n + xi_n)

falling back to lam_n + xi_n when the operator values coincide. The
perturbations xi_n = a / (n+1)^p are summable (p > 1), so the step sequence
converges while being allowed to grow between iterations.

Tseng's method stops at u_n = z_n, a solution. ``SquaredStep`` asks for a
small step and a small residual ||u_n - z_n||, since a correction can return
u_{n+1} to about u_n while z_n lies far from it; ``MseToReference`` stops on
the mean squared error to a reference point.

The loop of ``solve`` owns the step-size rule, the stop rule's ``check`` and
the record of each step; the two steps keep only Tseng's arithmetic.

``solve`` picks its step once per call from the feasible set and the start.
A start of shape (1,) in a Box runs the step on Python floats, where numpy
calls on one-element arrays would cost about ten times the arithmetic; it
calls F on a fresh float64 array of shape (1,) and clamps with the tie rule
of np.maximum / np.minimum, so its traces equal the array step's bit for
bit. Every other start runs the array step, which projects through the
closure ``geometry.projector`` resolves once per call.

Every solve returns its status, its loop's wall time and its full trace.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import Box, _as_vector, _frozen_vector, projector


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
        if not 0 <= self.scale < math.inf:
            raise ValueError("scale must be nonnegative and finite")
        if not self.exponent > 1:
            raise ValueError("exponent must exceed 1 for summability")

    def value(self, n):
        """Perturbation xi_n for iteration n >= 1."""
        return self.scale / (n + 1) ** self.exponent

    def prefix_sums(self, count):
        """Array [0, xi_1, xi_1+xi_2, ...] of length count."""
        if count < 1:
            return np.zeros(0)
        vals = self.scale / (np.arange(2, count + 1, dtype=np.float64) ** self.exponent)
        return np.concatenate([[0.0], np.cumsum(vals)])


#: bound on ||u_n - z_n|| / (lam_n sqrt(tol)); the scalar grids' multi-step stops reach 4.76
CERTIFICATE = 10.0


@dataclass(frozen=True)
class SquaredStep:
    """Stop once ||u_{n+1} - u_n||^2 drops below tol at a certified point."""

    tol: float

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def converged(self, err_sq, res, lam):
        """Whether step n stops the solve; elementwise on arrays of trace values."""
        return (err_sq < self.tol) & (res <= lam * (CERTIFICATE * math.sqrt(self.tol)))

    def check(self, u_next, err_sq, res, lam):
        """(error, done) of a step with step size lam; the cheap test rules out most steps first."""
        return err_sq, err_sq < self.tol and self.converged(err_sq, res, lam)


def _mean_squared_error(u, reference):
    """np.mean((u - reference) ** 2) without its dispatch; a float u broadcasts to a (1,) reference."""
    d = u - reference
    return float(np.add.reduce(d * d, axis=None)) / d.size


@dataclass(frozen=True, eq=False)
class MseToReference:
    """Stop once the mean squared error to a reference point drops below tol."""

    reference: np.ndarray
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "reference", _frozen_vector(self.reference, "reference"))
        if not np.all(np.isfinite(self.reference)):
            raise ValueError("reference must be finite")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")

    def check(self, u_next, err_sq, res, lam):
        """(error, done) of one step, the error being the MSE of u_{n+1}."""
        error = _mean_squared_error(u_next, self.reference)
        return error, error < self.tol


StoppingRule = SquaredStep | MseToReference


@dataclass(eq=False, frozen=True)
class SolverConfig:
    lambda1: float = 1.0
    mu: float = 0.3
    xi_params: XiSequence = field(default_factory=XiSequence)
    stop: StoppingRule = field(default_factory=lambda: SquaredStep(1e-12))
    max_iters: int = 500

    def __post_init__(self):
        if not 0 < self.lambda1 < math.inf:
            raise ValueError("lambda1 must be positive and finite")
        if not isinstance(self.stop, StoppingRule):
            raise ValueError(f"stop must be SquaredStep or MseToReference, got {self.stop!r}")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if isinstance(self.max_iters, bool) or not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


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
    status: str  # converged | max_iters
    wall_time: float
    trace: SolveTrace

    @property
    def iterations(self):
        return self.trace.iterations

    @property
    def final_point(self):
        """A copy of the latest iterate u_{n+1}."""
        return self.trace.u[-1].copy()


def _next_step(lam, xi_n, res, df, mu):
    """The step rule: min(mu res / df, lam + xi_n), or lam + xi_n when df is 0."""
    if df == 0.0:
        return lam + xi_n
    return min(mu * res / df, lam + xi_n)


def _non_finite(what, n):
    return NumericError(f"non-finite {what} at iteration {n}", iteration=n)


def _check_finite(values, n, what):
    if not np.isfinite(values).all():
        raise _non_finite(what, n)


def _step(project, u, lam, f, n):
    """Tseng's step n from u_n with step size lam; returns (u_{n+1}, z_n, res, df, err_sq)."""
    fu = np.asarray(f(u), dtype=np.float64)
    if fu.shape != u.shape:
        raise ValueError(f"dimension mismatch: F(u_n) {fu.shape}, u_n {u.shape}")
    w = u - lam * fu
    # a NaN or inf entry makes the square sum non-finite; the array check
    # then tells it from an overflow of finite entries
    if not math.isfinite(fu.dot(fu)):
        _check_finite(fu, n, "operator value F(u_n)")
    try:
        z = project(u, w)
    except RuntimeError as exc:
        # at a zero anchor an overflowed u_n - lam F(u_n) leaves the relaxed
        # halfspace test NaN, which the projection reports this way
        raise NumericError(f"{exc} at iteration {n}", iteration=n) from exc
    fz = np.asarray(f(z), dtype=np.float64)
    if fz.shape != z.shape:
        raise ValueError(f"dimension mismatch: F(z_n) {fz.shape}, z_n {z.shape}")
    # sqrt(d.dot(d)) is what np.linalg.norm computes for a real vector
    dfv = fu - fz
    duz = u - z
    u_next = z + lam * dfv
    res = math.sqrt(duz.dot(duz))
    df = math.sqrt(dfv.dot(dfv))
    d = u_next - u
    err_sq = float(np.add.reduce(d * d))
    # with F(u_n) finite, a non-finite entry of F(z_n) makes df non-finite
    # and one of u_{n+1} makes err_sq non-finite; the array checks then
    # name which value failed
    if not (math.isfinite(df) and math.isfinite(err_sq)):
        _check_finite(fz, n, "operator value F(z_n)")
        _check_finite(u_next, n, "iterate u_{n+1}")
    return u_next, z, res, df, err_sq


def _scalar_step(lo, hi, u, lam, f, n):
    """_step on Python floats, for a start of shape (1,) in the box [lo, hi].

    Each float operation is the one IEEE operation the array step applies to
    its single entry, so both steps give the same bits.
    """
    fu = np.asarray(f(np.array((u,))), dtype=np.float64)
    if fu.shape != (1,):
        raise ValueError(f"dimension mismatch: F(u_n) {fu.shape}, u_n (1,)")
    fu = fu.item()
    if not math.isfinite(fu):
        raise _non_finite("operator value F(u_n)", n)
    w = u - lam * fu
    # np.maximum and np.minimum return their second argument on a tie,
    # which decides the sign of a zero clamped to a zero bound
    w = w if w > lo else lo
    z = w if w < hi else hi
    fz = np.asarray(f(np.array((z,))), dtype=np.float64)
    if fz.shape != (1,):
        raise ValueError(f"dimension mismatch: F(z_n) {fz.shape}, z_n (1,)")
    fz = fz.item()
    dfv = fu - fz
    duz = u - z
    u_next = z + lam * dfv
    res = math.sqrt(duz * duz)
    df = math.sqrt(dfv * dfv)
    d = u_next - u
    err_sq = d * d
    # an overflow of err_sq alone, with u_{n+1} finite, is no failure
    if not math.isfinite(fz):
        raise _non_finite("operator value F(z_n)", n)
    if not math.isfinite(u_next):
        raise _non_finite("iterate u_{n+1}", n)
    return u_next, z, res, df, err_sq


# numpy's overflow and invalid-value warnings are silenced once per call:
# the finiteness checks in the steps report such a failure as NumericError
@np.errstate(over="ignore", invalid="ignore")
def solve(f, feasible_set, u1, cfg):
    """Run the iteration from u1 until the stopping rule fires or max_iters.

    The stopping rule is evaluated after each completed step; the reported
    iteration count is the number of executed steps, and the final point is
    the latest iterate.
    """
    start = _as_vector(u1, "initial point")
    if not np.isfinite(start).all():
        raise ValueError("initial point must be finite")
    # projector checks only the start's shape: starts outside the set are allowed
    project = projector(feasible_set, start, start)
    if isinstance(feasible_set, Box) and start.shape == (1,):
        step = partial(_scalar_step, feasible_set.lo.item(), feasible_set.hi.item())
        first = start.item()
    else:
        step, first = partial(_step, project), start
    stop = cfg.stop
    if isinstance(stop, MseToReference) and stop.reference.shape != start.shape:
        raise ValueError(f"reference shape {stop.reference.shape} does not match u1 {start.shape}")
    # bound once: attribute lookups cost a measurable share of a float step
    check, xi, mu = stop.check, cfg.xi_params.value, cfg.mu

    u, lam = first, float(cfg.lambda1)
    records = []
    status = "max_iters"
    t0 = time.perf_counter()
    for n in range(1, cfg.max_iters + 1):
        u_next, z, res, df, err_sq = step(u, lam, f, n)
        error, done = check(u_next, err_sq, res, lam)
        u, lam = u_next, _next_step(lam, xi(n), res, df, mu)
        records.append((u, z, lam, error, res, df))
        if done:
            status = "converged"
            break
    wall = time.perf_counter() - t0

    # the loop runs at least once, so records is never empty; np.array
    # stacks float and array iterates alike
    us, zs, lams, errors, residuals, operator_diffs = zip(*records)
    dim = start.shape[0]
    trace = SolveTrace(
        u=np.array((first, *us)).reshape(-1, dim),
        z=np.array(zs).reshape(-1, dim),
        lam=np.array((float(cfg.lambda1), *lams)),
        errors=np.array(errors),
        residuals=np.array(residuals),
        operator_diffs=np.array(operator_diffs),
    )
    return SolveResult(status=status, wall_time=wall, trace=trace)
