import numpy as np
import pytest

import qvi


@pytest.fixture(scope="session", autouse=True)
def warm_up():
    """Run one scalar and one recovery solve so timed tests measure steady state."""
    f, box = qvi.cubic_problem()
    cfg = qvi.SolverConfig(stop=qvi.SquaredStep(1e-12), max_iters=5)
    qvi.solve(f, box, 0.6, cfg)
    instance = qvi.gen_recovery(8, 16, 2, seed=0)
    qvi.run_recovery(instance, qvi.SolverConfig(
        lambda1=0.1, mu=0.3, stop=qvi.MseToReference(instance.signal, 1e-6),
        max_iters=3,
    ))
    yield


def scalar_config(mu, col_tol, max_iters=500):
    """Solver config for the scalar benchmarks: col_tol bounds the step norm."""
    return qvi.SolverConfig(
        lambda1=1.0,
        mu=mu,
        xi_params=qvi.XiSequence(100.0, 1.1),
        stop=qvi.SquaredStep(col_tol * col_tol),
        max_iters=max_iters,
    )


def hull_lipschitz(f, trace):
    """Lipschitz constant governing a trace's step-size bounds.

    The analytic constant over the visited hull, or the ratio the computed
    operator values actually realized, whichever is larger (double rounding
    can push realized ratios a few 1e-9 past the analytic constant near a
    solution).
    """
    pts = np.concatenate([trace.u.ravel(), trace.z.ravel()])
    analytic = f.lipschitz_on(float(pts.min()), float(pts.max()))
    return max(analytic, qvi.realized_lipschitz(trace, f))
