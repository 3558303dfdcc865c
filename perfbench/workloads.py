"""The benchmark's four workloads: scalar_grid, recovery_ensemble,
recovery_large and audit.

A workload builds its inputs from the benchmark seed in ``setup`` and
returns its ops. ``run`` is the call into qvi's public API, ``run_traced``
the same call on a traced pass, and ``outcome`` checks a result against the
acceptance values. The runner times ``run`` and ``run_traced`` only; checks
happen outside the timed region. Every op of a traced pass must record a
span whose name starts with the workload's ``traced_layer``.
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

import qvi
from qvi.experiments import (
    TableSpec,
    default_recovery_config,
    random_initial_points,
    run_example_table,
    run_recovery,
)
from tracing import TimedMapping

PROBLEMS = {"cubic": qvi.cubic_problem, "sine": qvi.sine_problem}
#: every recovery solve must end this close to the planted signal
RECOVERY_MSE = 1e-6
#: tail window of the rate estimate; shorter traces are not rate-audited
RATE_WINDOW = 20
#: contraction-audit slack allowed on a recovery trace, relative to the
#: largest term of the inequality. The first step's shrink term reaches
#: ~1e9 there, so its rounding alone exceeds the 1e-9 that criterion 5
#: applies to the scalar tables; observed slack stays below 5e-16 x scale.
FEJER_RTOL = 1e-14


class Outcome(NamedTuple):
    #: solver iterations executed (trace iterations audited, on audit)
    iterations: int
    #: per-op iteration counts and results; repeated passes and the traced
    #: run must reproduce them exactly
    counts: tuple
    errors: list


@dataclass(eq=False)
class Op:
    label: str
    data: object


class Runner:
    """A workload whose ops call one of qvi's experiment runners.

    A traced pass runs inside ``tracing.instrument``, so the runner's own
    solve and ratio_series calls record the spans.
    """

    traced_layer = "solver.solve"

    def run_traced(self, op, tracer):
        return self.run(op)


# ---------------------------------------------------------------------------
# scalar_grid


@dataclass(eq=False)
class ScalarGrid(Runner):
    """Table runner over the table1/table2 grids plus seeded random starts.

    One op is one initial point with all its tolerances. Executed iterations
    sum over the distinct SolveResult objects the runner returns, so a runner
    that serves several tolerances from one solve is credited with one solve.
    """

    name = "scalar_grid"
    tables = (
        ("cubic", 0.3, (0.6, 0.9, 2.0, 3.0, -3.0)),
        ("sine", 0.5, (2.0, 0.1, -0.5, 4.0, -2.0)),
    )
    random_rows = (("cubic", 0.3, 30), ("sine", 0.5, 10))
    gen_recovery_s = 0.0
    #: acceptance values: (problem, u1, tol) -> (min iterations, max iterations, limit)
    expect: dict = field(default_factory=lambda: {
        ("cubic", 2.0, 1e-6): (2, 2, -1.0), ("cubic", 2.0, 1e-8): (2, 2, -1.0),
        ("cubic", 3.0, 1e-6): (3, 3, 1.0), ("cubic", 3.0, 1e-8): (3, 3, 1.0),
        ("cubic", -3.0, 1e-6): (3, 3, -1.0), ("cubic", -3.0, 1e-8): (3, 3, -1.0),
        ("cubic", 0.6, 1e-6): (51, 57, 0.0), ("cubic", 0.6, 1e-8): (70, 76, 0.0),
        ("cubic", 0.9, 1e-6): (79, 85, 0.0), ("cubic", 0.9, 1e-8): (98, 104, 0.0),
        ("sine", 2.0, 1e-6): (20, 26, 0.0), ("sine", 2.0, 1e-8): (26, 32, 0.0),
        ("sine", 0.1, 1e-6): (15, 21, 0.0), ("sine", -0.5, 1e-6): (17, 23, 0.0),
        ("sine", 4.0, 1e-6): (30, 36, 0.0), ("sine", -2.0, 1e-6): (19, 25, 0.0),
    })
    negative_control = (("cubic", 2.0, 1e-6), (3, 3, -1.0))

    def setup(self, seed):
        ops = [
            Op(f"{problem} u1={u1:g}", (problem, mu, u1))
            for problem, mu, points in self.tables
            for u1 in points
        ]
        total = sum(count for _, _, count in self.random_rows)
        points = iter(random_initial_points(total, seed))
        for problem, mu, count in self.random_rows:
            for _ in range(count):
                u1 = next(points)
                ops.append(Op(f"{problem} u1={u1:.6f}", (problem, mu, u1)))
        return ops

    def run(self, op):
        problem, mu, u1 = op.data
        return run_example_table(TableSpec(problem, (u1,), mu=mu), keep_traces=True)

    def outcome(self, op, pairs):
        problem, _, u1 = op.data
        f, _ = PROBLEMS[problem]()
        solutions = {float(s[0]) for s in f.known_solutions}
        distinct = {id(result): result for _, result in pairs}
        errors = []
        for row, _ in pairs:
            where = f"{op.label} tol={row.tol:g}"
            if row.status != "converged":
                errors.append(f"{where}: status {row.status}")
            if row.limit not in solutions:
                errors.append(f"{where}: limit {row.limit} is not a known solution")
            expected = self.expect.get((problem, u1, row.tol))
            if expected is not None:
                lo, hi, limit = expected
                if not lo <= row.iterations <= hi:
                    errors.append(f"{where}: {row.iterations} iterations, expected {lo}..{hi}")
                if row.limit != limit:
                    errors.append(f"{where}: limit {row.limit}, expected {limit}")
        counts = tuple((row.iterations, row.status) for row, _ in pairs)
        iterations = sum(result.iterations for result in distinct.values())
        return Outcome(iterations, counts, errors)


# ---------------------------------------------------------------------------
# recovery_ensemble and recovery_large


@dataclass(eq=False)
class Recovery(Runner):
    """Sparse-recovery solves through run_recovery, one op per instance.

    groups holds (m, n, k, instance count). With seeded instances the
    instance seeds start at 100 x the benchmark seed, otherwise at 0.
    """

    name: str
    groups: tuple
    seeded_instances: bool
    #: time the last setup spent in gen_recovery
    gen_recovery_s: float = 0.0
    expect: dict = field(default_factory=lambda: {"status": "converged"})
    negative_control = ("status", "max_iters")

    def setup(self, seed):
        ops = []
        base = 100 * seed if self.seeded_instances else 0
        start = time.perf_counter()
        for m, n, k, count in self.groups:
            for s in range(base, base + count):
                instance = qvi.gen_recovery(m, n, k, seed=s)
                ops.append(Op(f"{m}x{n} K={k} seed={s}", instance))
        self.gen_recovery_s = time.perf_counter() - start
        return ops

    def run(self, op):
        return run_recovery(op.data)

    def outcome(self, op, output):
        result = output.result
        errors = []
        if result.status != self.expect["status"]:
            errors.append(f"{op.label}: status {result.status}, expected {self.expect['status']}")
        final_mse = qvi.mse(result.final_point, op.data.signal)
        if not final_mse < RECOVERY_MSE:
            errors.append(f"{op.label}: final MSE {final_mse:.3e} >= {RECOVERY_MSE:g}")
        return Outcome(result.iterations, ((result.iterations, result.status),), errors)


# ---------------------------------------------------------------------------
# audit


class AuditTrace(NamedTuple):
    trace: qvi.SolveTrace
    f: qvi.Mapping
    reference: np.ndarray
    cfg: qvi.SolverConfig
    #: sensing matrix for the power-iteration Lipschitz value; None for the
    #: scalar tables, which take the analytic constant over the visited hull
    mat: np.ndarray | None


class AuditValues(NamedTuple):
    ratio_min: float
    fejer: float
    step_bound: float
    step_rule: float
    realized: float
    lipschitz: float
    identity: float
    q_factor: float | None


CERTIFICATE_POINTS = (
    [0.0, 3.0],
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    [0.0] + [2 * k * np.pi + 1.5 * np.pi for k in range(4)],
)


def direct_call(name, fn, *args, calls=None):
    return fn(*args)


def audit_trace(item, f, call):
    """Every post-hoc diagnostic on one trace; call(name, fn, *args) runs each."""
    trace, cfg = item.trace, item.cfg
    ratios = call("ratio_series", qvi.ratio_series, trace, f, item.reference, 1.0, calls=1)
    fejer = call("fejer_audit", qvi.fejer_audit, trace, f, item.reference, cfg.mu, calls=1)
    realized = call("realized_lipschitz", qvi.realized_lipschitz, trace, f, calls=2)
    if item.mat is not None:
        lipschitz = call("power_iteration", qvi.power_iteration_gram_norm, item.mat)
        bound_lipschitz = lipschitz
    else:
        hull = np.concatenate([trace.u.ravel(), trace.z.ravel()])
        lipschitz = item.f.lipschitz_on(float(hull.min()), float(hull.max()))
        # rounding near a solution can push realized ratios a few 1e-9 past
        # the analytic constant; the step-size induction sees those ratios
        bound_lipschitz = max(lipschitz, realized)
    step_bound = call(
        "step_bound_violation", qvi.step_bound_violation, trace, cfg, bound_lipschitz, calls=0
    )
    step_rule = call("step_rule_slack", qvi.step_rule_slack, trace, cfg, calls=0)
    identity = call("tseng_identity_error", qvi.tseng_identity_error, trace, f, calls=2)
    q_factor = None
    if trace.iterations >= RATE_WINDOW:
        rates = call("estimate_rates", qvi.estimate_rates, trace.errors, RATE_WINDOW, calls=0)
        q_factor = rates.q_factor
    ratio_min = float(ratios.values.min()) if ratios.values.size else np.inf
    return AuditValues(
        ratio_min, fejer, step_bound, step_rule, realized, lipschitz, identity, q_factor
    )


def fejer_scale(item):
    """Largest term of the contraction inequality that fejer_audit sums."""
    trace, mu = item.trace, item.cfg.mu
    n = trace.iterations
    lam, lam_next = trace.lam[:n], trace.lam[1 : n + 1]
    step_sq = np.sum((trace.z - trace.u[:n]) ** 2, axis=1)
    shrink = np.abs(1.0 - mu**2 * lam**2 / lam_next**2) * step_sq
    dist_sq = np.sum((trace.u - item.reference) ** 2, axis=1)
    return float(max(dist_sq.max(), shrink.max()))


class Certificates(NamedTuple):
    #: sampling seed of verify_disjointness
    seed: int


def certificates(item, call):
    verified = []
    for points in CERTIFICATE_POINTS:
        cert = call("build_separation_certificate", qvi.build_separation_certificate, points)
        verified.append(call(
            "verify_disjointness", qvi.verify_disjointness, cert, 10_000, item.seed
        ))
    return tuple(verified)


@dataclass(eq=False)
class Audit:
    """Post-hoc diagnostics over traces made in set-up.

    The traces are the acceptance ensemble (the recovery_ensemble solves)
    and the table1/table2 rows, whatever the benchmark seed. Power iteration
    dominates the pass and its cost varies 20x between instances (17-363 ms
    at 256x512), so seeded instances would make the pass cost a property of
    the seed. The seed drives the certificates' sampling instead.

    One op audits one recovery trace or all ten rows of one table; one more
    op builds and verifies the criterion-9 separation certificates. Grouping
    the sub-millisecond table audits keeps the median op inside the
    recovery audits instead of at the edge of the table cluster.
    """

    name = "audit"
    traced_layer = "diagnostics."
    ensemble: Recovery
    expect: dict = field(default_factory=lambda: {
        "fejer": 1e-9, "step_rule": 1e-12, "step_bound": 1e-9, "identity": 1e-9,
        "realized_rtol": 1e-8, "certificates": (True, True, True),
    })
    negative_control = ("certificates", (True, False, True))

    @property
    def gen_recovery_s(self):
        return self.ensemble.gen_recovery_s

    def setup(self, seed):
        ops = []
        for op in self.ensemble.setup(0):
            instance = op.data
            output = run_recovery(instance)
            item = AuditTrace(
                output.result.trace,
                qvi.LeastSquares(instance.mat, instance.observed),
                instance.signal,
                default_recovery_config(instance),
                instance.mat,
            )
            ops.append(Op(f"audit {op.label}", ((op.label, item),)))
        zero = np.zeros(1)
        for problem, mu, points in ScalarGrid.tables:
            spec = TableSpec(problem, points, mu=mu)
            f, _ = PROBLEMS[problem]()
            items = []
            for row, result in run_example_table(spec, keep_traces=True):
                cfg = qvi.SolverConfig(
                    lambda1=spec.lambda1,
                    mu=spec.mu,
                    xi_params=spec.xi_params,
                    stop=qvi.SquaredStep(row.tol * row.tol),
                    max_iters=spec.max_iters,
                )
                label = f"{problem} u1={row.u1:g} tol={row.tol:g}"
                items.append((label, AuditTrace(result.trace, f, zero, cfg, None)))
            ops.append(Op(f"audit {problem} table", tuple(items)))
        ops.append(Op("certificates", Certificates(seed)))
        return ops

    def run(self, op):
        if isinstance(op.data, Certificates):
            return certificates(op.data, direct_call)
        return tuple(audit_trace(item, item.f, direct_call) for _, item in op.data)

    def run_traced(self, op, tracer):
        def call(name, fn, *args, calls=None):
            layer = "operators" if name == "power_iteration" else "diagnostics"
            with tracer.span(f"{layer}.{name}") as span:
                out = fn(*args)
            span.expect_calls = calls
            return out

        if isinstance(op.data, Certificates):
            return certificates(op.data, call)
        return tuple(audit_trace(item, TimedMapping(item.f, tracer), call) for _, item in op.data)

    def outcome(self, op, values):
        if isinstance(op.data, Certificates):
            errors = []
            if values != self.expect["certificates"]:
                errors.append(f"certificates verified {values}, expected {self.expect['certificates']}")
            return Outcome(0, values, errors)
        errors = []
        for (label, item), v in zip(op.data, values):
            errors.extend(self.check_trace(label, item, v))
        iterations = sum(item.trace.iterations for _, item in op.data)
        return Outcome(iterations, values, errors)

    def check_trace(self, label, item, v):
        limits = self.expect
        recovery = item.mat is not None
        fejer_limit = FEJER_RTOL * fejer_scale(item) if recovery else limits["fejer"]
        errors = [
            f"{label}: {name} {value:.3e} exceeds {limit:g}"
            for name, value, limit in (
                ("fejer_audit", v.fejer, fejer_limit),
                ("step_rule_slack", v.step_rule, limits["step_rule"]),
                ("step_bound_violation", v.step_bound, limits["step_bound"]),
                ("tseng_identity_error", v.identity, limits["identity"]),
            )
            if not value <= limit
        ]
        if not v.realized <= v.lipschitz * (1.0 + limits["realized_rtol"]):
            errors.append(f"{label}: realized Lipschitz {v.realized!r} > {v.lipschitz!r}")
        if recovery and not 0.0 < v.ratio_min < np.inf:
            errors.append(f"{label}: sharpness ratios not positive (min {v.ratio_min})")
        if not recovery and not v.ratio_min >= 0.0:
            errors.append(f"{label}: negative or non-finite sharpness ratio {v.ratio_min}")
        if item.trace.iterations >= RATE_WINDOW and not v.q_factor < 1.0:
            errors.append(f"{label}: tail Q-factor {v.q_factor} >= 1")
        return errors


def build(name):
    # The acceptance-criterion-3 ensemble, whatever the seed: its iteration
    # total ranges over 4936..5715 between seeded draws, which would show
    # in every timing metric as noise that no code change caused.
    ensemble = Recovery(
        "recovery_ensemble", ((256, 512, 20, 10), (256, 512, 40, 5)), seeded_instances=False
    )
    workloads = {
        "scalar_grid": ScalarGrid(),
        "recovery_ensemble": ensemble,
        "recovery_large": Recovery(
            "recovery_large", ((1024, 2048, 80, 4),), seeded_instances=True
        ),
        "audit": Audit(ensemble),
    }
    return workloads[name]
