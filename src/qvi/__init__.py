"""Solver toolkit for quasimonotone variational inequalities.

Tseng-style extragradient iteration with a non-monotone self-adaptive step
size, feasible-set projections (boxes and the halfspace-relaxed l1 ball), a
zoo of quasimonotone test operators with known solution sets, convergence
diagnostics, and reproducible experiment runners.
"""

from .diagnostics import (
    RateEstimate,
    RatioSeries,
    SeparationCertificate,
    build_separation_certificate,
    estimate_rates,
    fejer_audit,
    ratio_series,
    realized_lipschitz,
    step_bound_violation,
    step_rule_slack,
    tseng_identity_error,
    verify_disjointness,
)
from .experiments import (
    RecoveryInstance,
    RecoveryOutput,
    TableRow,
    TableSpec,
    cubic_problem,
    gen_recovery,
    mse,
    piecewise_problem,
    run_example_table,
    run_recovery,
    sine_problem,
)
from .geometry import (
    Box,
    HalfSpaceRelaxedL1Ball,
    ProjectionContext,
    project,
)
from .operators import (
    CubicQuasi,
    HypothesisReport,
    LeastSquares,
    Mapping,
    PiecewiseQuad,
    SinePlusOne,
    check_hypotheses,
    gram_norm,
    power_iteration_gram_norm,
)
from .solver import (
    MseToReference,
    NumericError,
    SolveResult,
    SolveTrace,
    SolverConfig,
    SquaredStep,
    XiSequence,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "CubicQuasi",
    "HalfSpaceRelaxedL1Ball",
    "HypothesisReport",
    "LeastSquares",
    "Mapping",
    "MseToReference",
    "NumericError",
    "PiecewiseQuad",
    "ProjectionContext",
    "RateEstimate",
    "RatioSeries",
    "RecoveryInstance",
    "RecoveryOutput",
    "SeparationCertificate",
    "SinePlusOne",
    "SolveResult",
    "SolveTrace",
    "SolverConfig",
    "SquaredStep",
    "TableRow",
    "TableSpec",
    "XiSequence",
    "build_separation_certificate",
    "check_hypotheses",
    "cubic_problem",
    "estimate_rates",
    "fejer_audit",
    "gen_recovery",
    "gram_norm",
    "mse",
    "piecewise_problem",
    "power_iteration_gram_norm",
    "project",
    "ratio_series",
    "realized_lipschitz",
    "run_example_table",
    "run_recovery",
    "sine_problem",
    "solve",
    "step_bound_violation",
    "step_rule_slack",
    "tseng_identity_error",
    "verify_disjointness",
]
