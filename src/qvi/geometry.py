"""Feasible sets and metric / relaxed projections.

Two set variants are supported: axis-aligned boxes (closed-form clamping,
possibly unbounded on either side) and the l1 ball handled through its
supporting-halfspace relaxation built from a subgradient of
``c(u) = ||u||_1 - omega`` at an anchor point. Projections satisfy the
standard obtuse-angle and nonexpansiveness identities, which the test suite
checks by sampling.
"""

from dataclasses import dataclass, field

import numpy as np


def _as_vector(x, name="x"):
    v = np.atleast_1d(np.asarray(x, dtype=np.float64))
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}; bounds may be +-inf."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_vector(self.lo, "lo")
        hi = _as_vector(self.hi, "hi")
        if lo.shape != hi.shape:
            raise ValueError(f"bound shapes differ: {lo.shape} vs {hi.shape}")
        # lo = +inf or hi = -inf leaves no real point in the box
        if not (lo < np.inf).all():
            raise ValueError("box bound lo must be below +inf and not NaN")
        if not (hi > -np.inf).all():
            raise ValueError("box bound hi must be above -inf and not NaN")
        if (lo > hi).any():
            raise ValueError("box requires lo[i] <= hi[i] for all i")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self):
        return self.lo.shape[0]

    @property
    def is_bounded(self):
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))

    def sample(self, count, rng):
        """Uniform samples of shape (count, dim); requires finite bounds."""
        if not self.is_bounded:
            raise ValueError("cannot sample an unbounded box; supply a bounded window")
        return rng.uniform(self.lo, self.hi, size=(count, self.dim))


@dataclass(frozen=True)
class HalfSpaceRelaxedL1Ball:
    """l1 ball {x : ||x||_1 <= radius}, projected via halfspace relaxation."""

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not (self.radius >= 0.0):
            raise ValueError("radius must be nonnegative")


FeasibleSet = Box | HalfSpaceRelaxedL1Ball


@dataclass(eq=False)
class ProjectionContext:
    """Anchor point and cached subgradient tau = sign(anchor) componentwise."""

    anchor: np.ndarray
    tau: np.ndarray = field(default=None)

    def __post_init__(self):
        self.anchor = _as_vector(self.anchor, "anchor")
        if self.tau is None:
            self.tau = np.sign(self.anchor)
        else:
            self.tau = _as_vector(self.tau, "tau")
            if not np.array_equal(self.tau, np.sign(self.anchor)):
                raise ValueError("tau must equal sign(anchor) componentwise")


def box_clamp(x, lo, hi):
    """Clamp x into [lo, hi] componentwise; the caller matches the shapes."""
    return np.minimum(np.maximum(x, lo), hi)


def relaxed_l1_step(x, anchor, tau, omega):
    """Relaxed l1 projection of x at anchor, with tau = sign(anchor) given."""
    c = np.abs(anchor).sum() - omega
    s = tau @ (anchor - x)
    if c <= s:
        return x.copy()
    nsq = tau @ tau
    if nsq == 0.0:
        raise RuntimeError(
            "relaxed l1 projection: zero subgradient with violated halfspace"
        )
    return x + ((s - c) / nsq) * tau


def _box_vector(box, x):
    x = _as_vector(x)
    if x.shape != box.lo.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, box dim {box.dim}")
    return x


def project_box(x, lo, hi):
    """Clamp x into [lo, hi] componentwise (the metric projection)."""
    x = _as_vector(x)
    lo = _as_vector(lo, "lo")
    hi = _as_vector(hi, "hi")
    if x.shape != lo.shape or x.shape != hi.shape:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, lo {lo.shape}, hi {hi.shape}"
        )
    return box_clamp(x, lo, hi)


def project_relaxed_l1(x, ctx, omega):
    """Project x onto the halfspace {v : c(anchor) <= <tau, anchor - v>}.

    c(u) = ||u||_1 - omega and tau = sign(anchor). Points already in the
    halfspace pass through unchanged; otherwise x moves along tau by
    (<tau, anchor - x> - c) / ||tau||^2.
    """
    x = _as_vector(x)
    if x.shape != ctx.anchor.shape:
        raise ValueError(
            f"dimension mismatch: x {x.shape}, anchor {ctx.anchor.shape}"
        )
    if omega < 0:
        raise ValueError("omega must be nonnegative")
    return relaxed_l1_step(x, ctx.anchor, ctx.tau, float(omega))


def project(feasible_set, x, ctx=None):
    """Metric projection onto a Box, or relaxed projection for the l1 ball.

    The relaxed variant needs a ProjectionContext carrying the anchor point
    the halfspace is built at; a Box ignores ctx.
    """
    if isinstance(feasible_set, Box):
        # the bounds were validated when the Box was built
        x = _box_vector(feasible_set, x)
        return box_clamp(x, feasible_set.lo, feasible_set.hi)
    if isinstance(feasible_set, HalfSpaceRelaxedL1Ball):
        if ctx is None:
            raise ValueError("relaxed l1 projection requires a ProjectionContext")
        return project_relaxed_l1(x, ctx, feasible_set.radius)
    raise ValueError(f"unsupported feasible set {type(feasible_set).__name__}")
