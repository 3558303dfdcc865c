"""Feasible sets and metric / relaxed projections.

Two set variants are supported: axis-aligned boxes (closed-form clamping,
possibly unbounded on either side) and the l1 ball handled through its
supporting-halfspace relaxation built from a subgradient of
``c(u) = ||u||_1 - omega`` at an anchor point. ``projector`` alone picks a
set's projection; ``solve`` and ``project`` both run the closure it returns.
Projections satisfy the standard obtuse-angle and nonexpansiveness
identities, which the test suite checks by sampling.
"""

from dataclasses import dataclass

import numpy as np


def _as_vector(x, name="x"):
    """A float64 copy of x, which must be a scalar or a vector."""
    v = np.array(x, dtype=np.float64, ndmin=1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a vector, got shape {v.shape}")
    return v


def _frozen_vector(x, name):
    """A read-only _as_vector(x): later writes to x cannot reach it."""
    v = _as_vector(x, name)
    v.flags.writeable = False
    return v


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}; bounds may be +-inf."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _frozen_vector(self.lo, "lo")
        hi = _frozen_vector(self.hi, "hi")
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


@dataclass(frozen=True, eq=False)
class ProjectionContext:
    """Anchor point the relaxed l1 halfspace is built at; tau = sign(anchor)."""

    anchor: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "anchor", _frozen_vector(self.anchor, "anchor"))


def box_clamp(x, lo, hi):
    """Clamp x into [lo, hi] componentwise; the caller matches the shapes."""
    return np.minimum(np.maximum(x, lo), hi)


def relaxed_l1_step(x, anchor, omega):
    """Project x onto the halfspace {v : c(anchor) <= <tau, anchor - v>}.

    c(u) = ||u||_1 - omega and tau = sign(anchor). Points already in the
    halfspace pass through unchanged; otherwise x moves along tau by
    (<tau, anchor - x> - c) / ||tau||^2.
    """
    tau = np.sign(anchor)
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


def projector(feasible_set, x, anchor):
    """Check x against feasible_set once and return its projection project(u, w).

    project(u, w) projects a point w shaped like x. A Box ignores u; the
    relaxed l1 ball builds its halfspace at the anchor u, so it needs a first
    anchor, shaped like x.
    """
    if isinstance(feasible_set, Box):
        if x.shape != feasible_set.lo.shape:
            raise ValueError(f"dimension mismatch: x {x.shape}, box dim {feasible_set.dim}")
        lo, hi = feasible_set.lo, feasible_set.hi
        return lambda u, w: box_clamp(w, lo, hi)
    if isinstance(feasible_set, HalfSpaceRelaxedL1Ball):
        if anchor is None:
            raise ValueError("relaxed l1 projection requires a ProjectionContext")
        if x.shape != anchor.shape:
            raise ValueError(f"dimension mismatch: x {x.shape}, anchor {anchor.shape}")
        omega = feasible_set.radius
        return lambda u, w: relaxed_l1_step(w, u, omega)
    raise ValueError(f"unsupported feasible set {type(feasible_set).__name__}")


def project(feasible_set, x, ctx=None):
    """Metric projection onto a Box, or relaxed projection for the l1 ball.

    The relaxed variant needs a ProjectionContext carrying the anchor point
    the halfspace is built at; a Box ignores ctx. This is the projection
    ``solve`` runs, resolved for the one point x.
    """
    x = _as_vector(x)
    anchor = None if ctx is None else ctx.anchor
    return projector(feasible_set, x, anchor)(anchor, x)
