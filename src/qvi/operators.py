"""Test operators with known solution sets, plus sampling-based checks.

The zoo covers four mappings used throughout the experiments and
diagnostics:

* ``CubicQuasi``     F(z) = (1 - |z|) z on the line; zeros at -1, 0, 1.
* ``SinePlusOne``    F(z) = 1 + sin(z); nonnegative with infinitely many
  zeros at 3*pi/2 + 2*k*pi.
* ``PiecewiseQuad``  F(z) = z^2 on [-1, 1] extended linearly outside so the
  map is globally 2-Lipschitz.
* ``LeastSquares``   F(u) = T'(Tu - y), the gradient of 0.5*||Tu - y||^2.

All mappings evaluate on arrays of shape (..., dim): the solver passes
single points, the sampling checks pass batches.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import Box


class Mapping:
    """Base class: an evaluatable operator with optional known structure."""

    dim = None
    lipschitz_hint = None
    known_solutions = ()
    known_dual_solutions = ()
    #: bounded box used when sampling checks get an unbounded domain
    default_window = None

    def __call__(self, x):
        raise NotImplementedError

    def nearest_solution(self, x):
        """Member of the known solution set closest to x, or None."""
        if not self.known_solutions:
            return None
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        sols = np.asarray(self.known_solutions, dtype=np.float64)
        d = x - sols.reshape(len(sols), -1)
        # argmin takes the first of equal distances, as min() over the tuple did
        best = np.sqrt(np.add.reduce(d * d, axis=1)).argmin()
        return np.asarray(self.known_solutions[best], dtype=np.float64)


def _scalar_solutions(values):
    return tuple(np.array([v], dtype=np.float64) for v in values)


class CubicQuasi(Mapping):
    """F(z) = (1 - |z|) z, quasimonotone and 1-Lipschitz on [-1, 1]."""

    dim = 1
    known_solutions = _scalar_solutions([-1.0, 0.0, 1.0])
    known_dual_solutions = _scalar_solutions([0.0])

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return (1.0 - np.abs(x)) * x

    def lipschitz_on(self, lo, hi):
        """sup |F'| over [lo, hi]; F'(z) = 1 - 2|z| so the sup sits at the
        endpoints of the |z| range."""
        tmax = max(abs(lo), abs(hi))
        tmin = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
        return max(abs(1.0 - 2.0 * tmin), abs(1.0 - 2.0 * tmax))


class SinePlusOne(Mapping):
    """F(z) = 1 + sin(z), nonnegative and globally 1-Lipschitz."""

    dim = 1
    # zeros 3*pi/2 + 2*k*pi; the stored prefix covers the default window
    known_solutions = _scalar_solutions(
        [0.0] + [2.0 * k * np.pi + 1.5 * np.pi for k in range(5)]
    )
    known_dual_solutions = _scalar_solutions([0.0])
    default_window = Box(0.0, 8.0 * np.pi)

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 1.0 + np.sin(x)

    def lipschitz_on(self, lo, hi):
        return 1.0


class PiecewiseQuad(Mapping):
    """F(z) = z^2 on [-1, 1], 2z - 1 for z > 1, -2z - 1 for z < -1.

    Continuous at +-1, globally 2-Lipschitz, nonnegative. On the box
    [-1, 1] the solutions are {0, -1} and the dual solution set is {-1}.
    """

    dim = 1
    known_solutions = _scalar_solutions([0.0, -1.0])
    known_dual_solutions = _scalar_solutions([-1.0])

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.where(x > 1.0, 2.0 * x - 1.0, np.where(x < -1.0, -2.0 * x - 1.0, x * x))

    def lipschitz_on(self, lo, hi):
        tmax = max(abs(lo), abs(hi))
        return 2.0 if tmax >= 1.0 else 2.0 * tmax


class LeastSquares(Mapping):
    """F(u) = T'(Tu - y): monotone gradient of the least-squares loss.

    Only the one matrix ``mat`` is stored; ``mat_t`` is the view ``mat.T``,
    not a copy, so an evaluation streams a single matrix's memory twice.
    """

    def __init__(self, mat, rhs, known_solutions=()):
        self.mat = np.ascontiguousarray(mat, dtype=np.float64)
        if self.mat.ndim != 2:
            raise ValueError("mat must be a 2-d array")
        if not np.isfinite(self.mat).all():
            raise ValueError("mat must be finite")
        self.rhs = np.ascontiguousarray(rhs, dtype=np.float64)
        if self.rhs.shape != (self.mat.shape[0],):
            raise ValueError(
                f"rhs shape {self.rhs.shape} does not match mat rows {self.mat.shape[0]}"
            )
        if not np.isfinite(self.rhs).all():
            raise ValueError("rhs must be finite")
        self.mat_t = self.mat.T
        self.dim = self.mat.shape[1]
        self.known_solutions = tuple(
            np.asarray(s, dtype=np.float64) for s in known_solutions
        )
        self.known_dual_solutions = self.known_solutions

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: x {x.shape}, operator dim {self.dim}")
        if x.ndim == 1:
            return self.mat_t @ (self.mat @ x - self.rhs)
        return (x @ self.mat_t - self.rhs) @ self.mat


def gram_norm(mat):
    """Largest eigenvalue of T'T: the Lipschitz constant of ``LeastSquares``.

    T'T and TT' share their nonzero eigenvalues, so one dense symmetric
    eigensolve of the smaller of the two gives the value exactly, at a cost
    that does not depend on the spectral gap. A matrix with a zero dimension
    gives 0.0.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2:
        raise ValueError(f"mat must be a 2-d array, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("mat must be finite")
    if 0 in mat.shape:
        return 0.0
    gram = mat @ mat.T if mat.shape[0] <= mat.shape[1] else mat.T @ mat
    return float(np.linalg.eigvalsh(gram)[-1])


#: former name of ``gram_norm``, still called by perfbench/workloads.py
power_iteration_gram_norm = gram_norm


@dataclass(frozen=True)
class QuasimonotoneReport:
    """Outcome of the sampled quasimonotonicity check."""

    pairs: int
    seed: int
    tolerance: float
    violations: int
    witnesses: tuple

    @property
    def ok(self):
        return self.violations == 0


_QM_TOL = 1e-12  # dead zone: the defining implication uses strict inequalities


def _sampling_box(f, domain):
    if domain.is_bounded:
        return domain
    default = getattr(f, "default_window", None)
    if default is not None:
        return default
    raise ValueError("unbounded domain and the operator has no default_window")


def _eval_batch(f, points):
    out = np.asarray(f(points), dtype=np.float64)
    if out.shape != points.shape:
        raise ValueError(
            f"operator returned shape {out.shape} for batch {points.shape}"
        )
    return out


def check_quasimonotone(f, domain, pairs, seed, tolerance=_QM_TOL):
    """Sample (u, z) pairs and test <F(u), z-u> > 0  =>  <F(z), z-u> >= 0.

    Reports every sampled pair where the premise holds beyond the dead zone
    while the conclusion fails beyond it. Genuinely quasimonotone mappings
    produce zero violations.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    box = _sampling_box(f, domain)
    rng = np.random.default_rng(seed)
    u = box.sample(pairs, rng)
    z = box.sample(pairs, rng)
    fu = _eval_batch(f, u)
    fz = _eval_batch(f, z)
    d = z - u
    premise = np.einsum("ij,ij->i", fu, d)
    conclusion = np.einsum("ij,ij->i", fz, d)
    bad = (premise > tolerance) & (conclusion < -tolerance)
    idx = np.flatnonzero(bad)
    witnesses = tuple((u[i].copy(), z[i].copy()) for i in idx[:10])
    return QuasimonotoneReport(
        pairs=pairs,
        seed=seed,
        tolerance=tolerance,
        violations=int(bad.sum()),
        witnesses=witnesses,
    )


def lipschitz_estimate(f, domain, pairs, seed):
    """Max sampled ratio ||F(u)-F(z)|| / ||u-z||; a lower bound on L."""
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    box = _sampling_box(f, domain)
    rng = np.random.default_rng(seed)
    u = box.sample(pairs, rng)
    z = box.sample(pairs, rng)
    du = np.linalg.norm(u - z, axis=1)
    keep = du > 0
    if not np.any(keep):
        raise ValueError("no sampled pair has u != z")
    df = np.linalg.norm(_eval_batch(f, u) - _eval_batch(f, z), axis=1)
    return float(np.max(df[keep] / du[keep]))
