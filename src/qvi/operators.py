"""Test operators with known solution sets, plus a sampled hypotheses check.

The zoo covers four mappings used throughout the experiments and
diagnostics:

* ``CubicQuasi``     F(z) = (1 - |z|) z on the line; zeros at -1, 0, 1.
* ``SinePlusOne``    F(z) = 1 + sin(z); nonnegative with infinitely many
  zeros at 3*pi/2 + 2*k*pi.
* ``PiecewiseQuad``  F(z) = z^2 on [-1, 1] extended linearly outside so the
  map is globally 2-Lipschitz.
* ``LeastSquares``   F(u) = T'(Tu - y), the gradient of 0.5*||Tu - y||^2.

All mappings evaluate on arrays of shape (..., dim): the solver passes
single points, the sampled hypotheses check passes batches.
"""

from dataclasses import dataclass

import numpy as np


class Mapping:
    """Base class: an evaluatable operator with optional known structure."""

    dim = None
    #: read only by perfbench's TimedMapping, which copies it
    lipschitz_hint = None
    known_solutions = ()
    known_dual_solutions = ()
    #: read only by perfbench's TimedMapping, which copies it
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


def _sine_zero(k):
    return 2.0 * k * np.pi + 1.5 * np.pi


class SinePlusOne(Mapping):
    """F(z) = 1 + sin(z), nonnegative and globally 1-Lipschitz."""

    dim = 1
    # the stored prefix covers [0, 8*pi]
    known_solutions = _scalar_solutions([0.0] + [_sine_zero(k) for k in range(5)])
    known_dual_solutions = _scalar_solutions([0.0])

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        return 1.0 + np.sin(x)

    def nearest_solution(self, x):
        """The zero nearest to a finite x, beyond the stored prefix too; ties take the smaller."""
        x = np.asarray(x, dtype=np.float64).item()
        k = max(int((x - 1.5 * np.pi) // (2.0 * np.pi)), 0)
        zeros = [0.0, _sine_zero(k), _sine_zero(k + 1)]
        return np.array([min(zeros, key=lambda zero: abs(x - zero))])

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


#: byte budget of one row block of a LeastSquares matrix: half of a 2 MiB
#: per-core L2 cache, so a block stays cached between its two products
_BLOCK_BYTES = 1 << 20


class LeastSquares(Mapping):
    """F(u) = T'(Tu - y): monotone gradient of the least-squares loss.

    Only the one matrix ``mat`` is stored; ``mat_t`` is the view ``mat.T``.
    A single point is evaluated block by block over row blocks (T_b, y_b) of
    at most ``_BLOCK_BYTES`` (1 MiB) each, as the sum of T_b'(T_b u - y_b):
    each block is read from memory once for T_b u and reused from cache for
    the transpose product. A matrix that fits one block, such as 256x512,
    runs exactly the two products T'(Tu - y), bit for bit. A batch of points
    runs as two matrix products, which block internally.
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
        m, self.dim = self.mat.shape
        rows = max(1, _BLOCK_BYTES // max(1, self.mat.itemsize * self.dim))
        # views, not copies; a matrix without rows still gets one (empty) block
        self._blocks = [
            (self.mat[i : i + rows], self.mat_t[:, i : i + rows], self.rhs[i : i + rows])
            for i in range(0, max(m, 1), rows)
        ]
        self.known_solutions = tuple(
            np.asarray(s, dtype=np.float64) for s in known_solutions
        )
        self.known_dual_solutions = self.known_solutions

    def __call__(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: x {x.shape}, operator dim {self.dim}")
        if x.ndim > 1:
            return (x @ self.mat_t - self.rhs) @ self.mat
        (mat, mat_t, rhs), *rest = self._blocks
        out = mat_t @ (mat @ x - rhs)
        for mat, mat_t, rhs in rest:
            out += mat_t @ (mat @ x - rhs)
        return out


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
class HypothesisReport:
    """Sampled evidence on the two hypotheses of the convergence results.

    ``violations`` counts the sampled pairs that break quasimonotonicity and
    ``witnesses`` holds the first ten of them as (u, z). ``lipschitz`` is the
    largest sampled ratio ||F(u)-F(z)|| / ||u-z||, a lower bound on L.
    """

    violations: int
    witnesses: tuple
    lipschitz: float


def evaluate_batch(f, x):
    """F over a batch of points, which must come back in the batch's shape."""
    out = np.asarray(f(x), dtype=np.float64)
    if out.shape != x.shape:
        raise ValueError(f"operator returned shape {out.shape} for batch {x.shape}")
    return out


_QM_TOL = 1e-12  # dead zone: the defining implication uses strict inequalities


def check_hypotheses(f, box, pairs, seed):
    """Sample (u, z) pairs from a bounded box; test quasimonotonicity and bound L.

    A violation is a pair where the premise of <F(u), z-u> > 0  =>
    <F(z), z-u> >= 0 holds beyond the dead zone while the conclusion fails
    beyond it; genuinely quasimonotone mappings produce none.
    """
    if pairs < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(seed)
    u = box.sample(pairs, rng)
    z = box.sample(pairs, rng)
    fu = evaluate_batch(f, u)
    fz = evaluate_batch(f, z)
    d = z - u
    dist = np.linalg.norm(d, axis=1)
    keep = dist > 0
    if not np.any(keep):
        raise ValueError("no sampled pair has u != z")
    premise = np.einsum("ij,ij->i", fu, d)
    conclusion = np.einsum("ij,ij->i", fz, d)
    bad = (premise > _QM_TOL) & (conclusion < -_QM_TOL)
    witnesses = tuple((u[i].copy(), z[i].copy()) for i in np.flatnonzero(bad)[:10])
    ratios = np.linalg.norm(fu - fz, axis=1)[keep] / dist[keep]
    return HypothesisReport(int(bad.sum()), witnesses, float(np.max(ratios)))
