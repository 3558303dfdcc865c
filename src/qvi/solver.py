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
the record of each step. It builds the one step function, Tseng's
arithmetic and its checks, once per call in one of two forms. A start of
shape (1,) in a Box takes the float form, where numpy calls on one-element
arrays would cost about ten times the arithmetic: it calls F on a fresh
float64 array of shape (1,) and clamps with the tie rule of np.maximum /
np.minimum, so its traces equal the array form's bit for bit. Every other
start takes the array form, which projects through the closure
``geometry.projector`` resolves once per call. Either form computes only
the error its stop rule reads: the squared step ||u_{n+1} - u_n||^2 for
``SquaredStep``, the mean squared error of u_{n+1} for ``MseToReference``.

Every solve returns its status, its loop's wall time and its full trace.
"""

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Box, _as_vector, _frozen_vector, projector


class NumericError(RuntimeError):
    """Non-finite values encountered during iteration."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


def _float(x):
    """float(x), with an integer past the float range taken as an infinity of its sign."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


@dataclass(frozen=True)
class XiSequence:
    """Summable step perturbations xi_n = scale / (n+1)**exponent."""

    scale: float = 100.0
    exponent: float = 1.1

    def __post_init__(self):
        # stored as floats: an integer exponent would take an exact integer power
        for name in ("scale", "exponent"):
            object.__setattr__(self, name, _float(getattr(self, name)))
        if not 0 <= self.scale < math.inf:
            raise ValueError("scale must be nonnegative and finite")
        # an exponent above 1 makes the perturbations summable
        if not 1 < self.exponent < math.inf:
            raise ValueError("exponent must be above 1 and finite")

    def value(self, n):
        """Perturbation xi_n for iteration n >= 1."""
        try:
            return self.scale / (n + 1) ** self.exponent
        except OverflowError:
            # past the float range; the reciprocal power underflows instead
            return self.scale * (n + 1) ** -self.exponent

    def prefix_sums(self, count):
        """[0, xi_1, xi_1+xi_2, ...] of length count (empty below 1), summing value(n) itself."""
        return np.cumsum([0.0, *map(self.value, range(1, count))])[:count]


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

    def check(self, err_sq, res, lam):
        """Whether a step with step size lam stops the solve; the cheap test rules out most steps first."""
        return err_sq < self.tol and self.converged(err_sq, res, lam)


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

    def check(self, error, res, lam):
        """Whether a step whose u_{n+1} has the mean squared error `error` stops the solve."""
        return error < self.tol


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


def _check_finite(values, n, what):
    if not np.isfinite(values).all():
        raise NumericError(f"non-finite {what} at iteration {n}", iteration=n)


def _evaluate(f, x, n, name):
    """F(x) for an array x, checked for shape and finiteness."""
    out = np.asarray(f(x), dtype=np.float64)
    if out.shape != x.shape:
        raise ValueError(f"dimension mismatch: F({name}) {out.shape}, {name} {x.shape}")
    # a NaN or inf entry makes the square sum non-finite; the array check
    # then tells it from an overflow of finite entries
    if not math.isfinite(out.dot(out)):
        _check_finite(out, n, f"operator value F({name})")
    return out


def _evaluate_float(f, x, n, name):
    """F(x) for a float x, called on a fresh float64 array of shape (1,)."""
    out = np.asarray(f(np.array((x,))), dtype=np.float64)
    if out.shape != (1,):
        raise ValueError(f"dimension mismatch: F({name}) {out.shape}, {name} (1,)")
    out = out.item()
    if not math.isfinite(out):
        raise NumericError(f"non-finite operator value F({name}) at iteration {n}", iteration=n)
    return out


def _clamp(lo, hi):
    """The projection of a float onto [lo, hi]."""

    def clamp(u, w):
        # np.maximum and np.minimum return their second argument on a tie,
        # which decides the sign of a zero clamped to a zero bound
        w = w if w > lo else lo
        return w if w < hi else hi

    return clamp


def _float_squared_step(u_next, u):
    d = u_next - u
    return d * d


def _array_squared_step(u_next, u):
    d = u_next - u
    # np.add.reduce sums pairwise, as dot does not; float keeps it a Python float
    return float(np.add.reduce(d * d))


def _tseng_step(f, evaluate, project, dot, error):
    """step(u_n, lam, n) -> (u_{n+1}, z_n, res, df, error) on float64 arrays or on floats.

    evaluate gives the checked F(x), project(u_n, w) projects w, dot takes the
    norms and error(u_{n+1}, u_n) is the stop rule's error of the step.
    """

    def step(u, lam, n):
        fu = evaluate(f, u, n, "u_n")
        try:
            z = project(u, u - lam * fu)
        except RuntimeError as exc:
            # at a zero anchor an overflowed u_n - lam F(u_n) leaves the relaxed
            # halfspace test NaN, which the projection reports this way
            raise NumericError(f"{exc} at iteration {n}", iteration=n) from exc
        fz = evaluate(f, z, n, "z_n")
        dfv = fu - fz
        duz = u - z
        u_next = z + lam * dfv
        err = error(u_next, u)
        # a non-finite u_{n+1} makes the error non-finite; an overflow of the
        # error alone, with u_{n+1} finite, is no failure
        if not math.isfinite(err):
            _check_finite(u_next, n, "iterate u_{n+1}")
        # sqrt(d.dot(d)) is what np.linalg.norm computes for a real vector
        return u_next, z, math.sqrt(dot(duz, duz)), math.sqrt(dot(dfv, dfv)), err

    return step


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
    float_form = isinstance(feasible_set, Box) and start.shape == (1,)
    stop = cfg.stop
    if isinstance(stop, MseToReference):
        if stop.reference.shape != start.shape:
            raise ValueError(f"reference shape {stop.reference.shape} does not match u1 {start.shape}")
        reference = stop.reference

        def error(u_next, u):
            return _mean_squared_error(u_next, reference)

    else:
        error = _float_squared_step if float_form else _array_squared_step
    if float_form:
        clamp = _clamp(feasible_set.lo.item(), feasible_set.hi.item())
        step, first = _tseng_step(f, _evaluate_float, clamp, operator.mul, error), start.item()
    else:
        step, first = _tseng_step(f, _evaluate, project, np.ndarray.dot, error), start
    # bound once: attribute lookups cost a measurable share of a float step
    check, xi, mu = stop.check, cfg.xi_params.value, cfg.mu

    u, lam = first, float(cfg.lambda1)
    records = []
    status = "max_iters"
    t0 = time.perf_counter()
    for n in range(1, cfg.max_iters + 1):
        u_next, z, res, df, err = step(u, lam, n)
        done = check(err, res, lam)
        # the step-size rule: min(mu res / df, lam + xi_n), or lam + xi_n when df is 0
        grown = lam + xi(n)
        u, lam = u_next, (grown if df == 0.0 else min(mu * res / df, grown))
        records.append((u, z, lam, err, res, df))
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
