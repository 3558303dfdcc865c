"""Backend parity and selection for the numeric kernels."""

import os
import subprocess
import sys

import numpy as np
import pytest

from qvi import kernels

needs_numba = pytest.mark.skipif(
    "numba" not in kernels.AVAILABLE_BACKENDS, reason="numba backend unavailable"
)

rng = np.random.default_rng(42)


def _impl(backend, name):
    return kernels._BACKENDS[backend][name]


@needs_numba
@pytest.mark.parametrize("n", [1, 7, 512])
def test_box_project_parity(n):
    x = rng.standard_normal(n) * 3
    lo = np.where(rng.random(n) < 0.3, -np.inf, -1.0)
    hi = np.where(rng.random(n) < 0.3, np.inf, 1.0)
    a = _impl("numpy", "box_project")(x, lo, hi)
    b = _impl("numba", "box_project")(x, lo, hi)
    np.testing.assert_array_equal(a, b)


@needs_numba
@pytest.mark.parametrize("n", [1, 7, 512])
def test_relaxed_l1_parity(n):
    for omega in (0.5, 5.0):
        x = rng.standard_normal(n)
        anchor = rng.standard_normal(n) * 2
        a = _impl("numpy", "relaxed_l1_project")(x, anchor, omega)
        b = _impl("numba", "relaxed_l1_project")(x, anchor, omega)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)


@needs_numba
@pytest.mark.parametrize("n", [1, 9, 300])
def test_correction_parity(n):
    u, z, fu, fz = (rng.standard_normal(n) for _ in range(4))
    a = _impl("numpy", "correction_and_norms")(u, z, fu, fz, 0.37)
    b = _impl("numba", "correction_and_norms")(u, z, fu, fz, 0.37)
    np.testing.assert_allclose(a[0], b[0], rtol=0, atol=1e-14)
    for left, right in zip(a[1:], b[1:]):
        assert left == pytest.approx(right, rel=1e-12, abs=1e-14)


@pytest.mark.parametrize("backend", kernels.AVAILABLE_BACKENDS)
def test_relaxed_l1_zero_subgradient_guard(backend):
    # only reachable with a negative radius: anchor 0 makes c = -omega
    impl = _impl(backend, "relaxed_l1_project")
    with pytest.raises(RuntimeError):
        impl(np.array([1.0]), np.array([0.0]), -1.0)


def test_use_backend_rebinds_and_rejects():
    active = kernels.ACTIVE_BACKEND
    try:
        for backend in kernels.AVAILABLE_BACKENDS:
            kernels.use_backend(backend)
            assert kernels.ACTIVE_BACKEND == backend
            assert kernels.box_project is _impl(backend, "box_project")
    finally:
        kernels.use_backend(active)
    with pytest.raises(ValueError):
        kernels.use_backend("fortran")


def test_env_flag_selects_numpy_backend():
    # the child imports the qvi this process imported, also when pytest's
    # pythonpath setting, not the environment, put it on sys.path
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, QVI_PURE_NUMPY="1", PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", "from qvi import kernels; print(kernels.ACTIVE_BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "numpy"
