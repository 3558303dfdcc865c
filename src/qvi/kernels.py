"""Numeric kernels used by the solver inner loop.

Two interchangeable backends are provided for every kernel: a numba
``@njit`` version (explicit loops, single pass, no temporaries) and a pure
numpy version. The numba backend is the default when numba imports; set the
environment variable ``QVI_PURE_NUMPY=1`` before import to select the numpy
backend, or call :func:`use_backend` at runtime. Both backends compute the
same quantities and are held to agreement in the test suite.
"""

import math
import os

import numpy as np

try:
    from numba import njit
except ImportError:  # pragma: no cover - numba is a declared dependency
    njit = None


# ---------------------------------------------------------------------------
# numpy backend

def _box_project_np(x, lo, hi):
    return np.minimum(np.maximum(x, lo), hi)


def _relaxed_l1_project_np(x, anchor, omega):
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


def _correction_and_norms_np(u, z, fu, fz, lam):
    # sqrt(d.dot(d)) is what np.linalg.norm computes for a real vector
    dfv = fu - fz
    duz = u - z
    u_next = z + lam * dfv
    res = math.sqrt(duz.dot(duz))
    df = math.sqrt(dfv.dot(dfv))
    err_sq = float(((u_next - u) ** 2).sum())
    return u_next, res, df, err_sq


# ---------------------------------------------------------------------------
# numba backend

if njit is not None:

    @njit(cache=True)
    def _box_project_nb(x, lo, hi):
        out = np.empty_like(x)
        for i in range(x.shape[0]):
            v = x[i]
            if v < lo[i]:
                v = lo[i]
            elif v > hi[i]:
                v = hi[i]
            out[i] = v
        return out

    @njit(cache=True)
    def _relaxed_l1_project_nb(x, anchor, omega):
        n = x.shape[0]
        c = -omega
        s = 0.0
        nsq = 0.0
        for i in range(n):
            a = anchor[i]
            c += abs(a)
            t = 1.0 if a > 0.0 else (-1.0 if a < 0.0 else 0.0)
            s += t * (a - x[i])
            nsq += t * t
        if c <= s:
            return x.copy()
        if nsq == 0.0:
            raise RuntimeError(
                "relaxed l1 projection: zero subgradient with violated halfspace"
            )
        coef = (s - c) / nsq
        out = np.empty_like(x)
        for i in range(n):
            a = anchor[i]
            t = 1.0 if a > 0.0 else (-1.0 if a < 0.0 else 0.0)
            out[i] = x[i] + coef * t
        return out

    @njit(cache=True)
    def _correction_and_norms_nb(u, z, fu, fz, lam):
        n = u.shape[0]
        u_next = np.empty_like(u)
        res = 0.0
        df = 0.0
        err_sq = 0.0
        for i in range(n):
            duz = u[i] - z[i]
            dfi = fu[i] - fz[i]
            un = z[i] + lam * dfi
            u_next[i] = un
            res += duz * duz
            df += dfi * dfi
            err_sq += (un - u[i]) * (un - u[i])
        return u_next, res ** 0.5, df ** 0.5, err_sq


_BACKENDS = {
    "numpy": {
        "box_project": _box_project_np,
        "relaxed_l1_project": _relaxed_l1_project_np,
        "correction_and_norms": _correction_and_norms_np,
    }
}
if njit is not None:
    _BACKENDS["numba"] = {
        "box_project": _box_project_nb,
        "relaxed_l1_project": _relaxed_l1_project_nb,
        "correction_and_norms": _correction_and_norms_nb,
    }

AVAILABLE_BACKENDS = tuple(sorted(_BACKENDS))
ACTIVE_BACKEND = ""

box_project = None
relaxed_l1_project = None
correction_and_norms = None


def use_backend(name):
    """Bind the module-level kernel names to the given backend."""
    global ACTIVE_BACKEND, box_project, relaxed_l1_project, correction_and_norms
    if name not in _BACKENDS:
        raise ValueError(f"unknown kernel backend {name!r}; available: {AVAILABLE_BACKENDS}")
    impls = _BACKENDS[name]
    box_project = impls["box_project"]
    relaxed_l1_project = impls["relaxed_l1_project"]
    correction_and_norms = impls["correction_and_norms"]
    ACTIVE_BACKEND = name
    return name


def _default_backend():
    if os.environ.get("QVI_PURE_NUMPY", "").strip().lower() in ("1", "true", "yes"):
        return "numpy"
    return "numba" if "numba" in _BACKENDS else "numpy"


use_backend(_default_backend())
