"""Layered benchmark for qvi: four solve/audit workloads in one command.

    python3 perfbench/run.py --workload scalar_grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. A run sets the workload up from the seed (three times, to
report the fastest set-up), then repeats passes over the workload's ops
until ``--seconds`` are spent, checking every result. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` spends half the time untraced and half
traced and prints the per-layer metrics. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it show every metric with its unit, the failure fraction and
the run record (versions, BLAS, CPUs, seed, per-op iteration counts).
``--negative-control`` corrupts one expected value, so the run must report
failures. Metric definitions and the reasons for each workload are in
perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("scalar_grid", "recovery_ensemble", "recovery_large", "audit")
#: one BLAS thread: on a shared two-core machine threaded GEMV varied by
#: +-30% from run to run
BLAS_THREADS = 1
#: setup_s takes the fastest set-up and the fastest import, because
#: co-tenants on a shared machine only ever slow a sample down. Import
#: probes are spread over the run like the passes, so that a slow phase of
#: the machine at the start of a run does not set the value.
SETUP_REPEATS = 3
#: import probes per measured budget, on top of the in-process import
IMPORT_REPEATS = 10
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import qvi; print(time.perf_counter() - start)"
)
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "us_per_iter": "us",
    "iterations": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
DIAGNOSTICS = (
    "ratio_series",
    "fejer_audit",
    "step_bound_violation",
    "step_rule_slack",
    "realized_lipschitz",
    "tseng_identity_error",
    "estimate_rates",
)
PER_LAYER = {
    "solver.calls": "count",
    "solver.self_s": "s",
    "solver.self_us_per_iter": "us",
    "operators.calls": "count",
    "operators.rows": "count",
    "operators.busy_s": "s",
    "operators.us_per_call": "us",
    "operators.share": "ratio",
    "operators.bytes_per_call_computed": "B",
    "operators.gbps_computed": "GB/s",
    "operators.power_iteration_s": "s",
    "geometry.project_box_us": "us",
    "geometry.project_l1_us_n512": "us",
    "geometry.project_l1_us_n2048": "us",
    "geometry.projections": "count",
    "diagnostics.busy_s": "s",
    **{f"diagnostics.{name}_s": "s" for name in DIAGNOSTICS},
    "diagnostics.certificates_s": "s",
    "experiments.gen_recovery_s": "s",
    "trace.overhead_frac": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="corrupt one expected value; the run must then fail ops")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def import_qvi():
    """Import qvi from this checkout's src/; returns the seconds it took."""
    if not (SRC / "qvi" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package sources at {SRC / 'qvi'}")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qvi  # noqa: F401  (src/ is first on sys.path, so this is the checkout's copy)

    return time.perf_counter() - start


def time_import():
    """Seconds a fresh interpreter takes to import qvi from this checkout."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(probe.stdout)


class Pass:
    """One pass over a workload's ops: latencies, counts and failures."""

    def __init__(self, workload, ops, tracer=None):
        #: op index -> seconds, for the ops that ran without an exception
        self.latencies = {}
        self.iterations = 0
        self.counts = [None] * len(ops)
        self.op_iterations = [None] * len(ops)
        self.errors = []
        self.tracer = tracer
        for index, op in enumerate(ops):
            try:
                if tracer is None:
                    start = time.perf_counter()
                    raw = workload.run(op)
                    seconds = time.perf_counter() - start
                else:
                    tracer.op = index
                    start = time.perf_counter()
                    raw = workload.run_traced(op, tracer)
                    seconds = time.perf_counter() - start
                outcome = workload.outcome(op, raw)
            except Exception as exc:  # a failing op is counted, the run goes on
                self.errors.append((index, f"{op.label}: {type(exc).__name__}: {exc}"))
                continue
            self.latencies[index] = seconds
            self.iterations += outcome.iterations
            self.counts[index] = outcome.counts
            self.op_iterations[index] = outcome.iterations
            self.errors.extend((index, message) for message in outcome.errors)
        if tracer is not None:
            self.errors.extend(tracer.errors())
            layer = workload.traced_layer
            traced_ops = {span.op for span in tracer.spans if span.name.startswith(layer)}
            self.errors.extend(
                (index, f"{op.label}: no {layer} span recorded")
                for index, op in enumerate(ops)
                if index not in traced_ops
            )
        self.seconds = sum(self.latencies.values())

    def compare(self, reference, ops):
        """Record an error for every op whose counts differ from the reference pass."""
        for index, (mine, theirs) in enumerate(zip(self.counts, reference.counts)):
            if mine is not None and theirs is not None and mine != theirs:
                self.errors.append((
                    index, f"{ops[index].label}: counts {mine} differ from first pass {theirs}"
                ))

    @property
    def failed(self):
        return len({index for index, _ in self.errors})


def measure(workload, ops, budget, imports, traced=False):
    """Passes until the next one would overrun budget seconds (at least one).

    Before a pass that starts budget / IMPORT_REPEATS seconds or more after
    the last import probe, a fresh import is timed and appended to imports,
    so the import samples spread over the run like the passes do.
    """
    from tracing import Tracer, instrument

    passes = []
    start = time.perf_counter()
    probed = -math.inf
    while True:
        if time.perf_counter() - probed >= budget / IMPORT_REPEATS:
            probed = time.perf_counter()
            imports.append(time_import())
        began = time.perf_counter()
        if traced:
            tracer = Tracer()
            with instrument(tracer):
                passes.append(Pass(workload, ops, tracer))
        else:
            passes.append(Pass(workload, ops))
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > budget:
            return passes


def set_up(workload, seed):
    """SETUP_REPEATS set-ups, each with one warm-up op; returns the last ops
    and the seconds of every set-up and of the gen_recovery calls in each."""
    durations, generation = [], []
    ops = None
    for _ in range(SETUP_REPEATS):
        ops = None  # release the previous inputs before building new ones
        start = time.perf_counter()
        ops = workload.setup(seed)
        workload.run(ops[0])
        durations.append(time.perf_counter() - start)
        generation.append(workload.gen_recovery_s)
    return ops, durations, generation


def per_call_us(fn, number, repeats=5):
    """Median over repeats of the mean per-call time of fn, in microseconds."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - start) / number * 1e6)
    return statistics.median(samples)


def geometry_probe(seed):
    """Projection cost in isolation at the workloads' shapes, as the solver calls it."""
    import numpy as np

    import qvi

    rng = np.random.default_rng(seed)
    box = qvi.Box(-1.0, 1.0)
    point = np.array([1.7])
    out = {"geometry.project_box_us": per_call_us(lambda: qvi.project(box, point), 2000)}
    for n, k in ((512, 20), (2048, 80)):
        ball = qvi.HalfSpaceRelaxedL1Ball(k)
        anchor = rng.standard_normal(n)
        step = anchor - 0.1 * rng.standard_normal(n)
        out[f"geometry.project_l1_us_n{n}"] = per_call_us(
            lambda: qvi.project(ball, step, qvi.ProjectionContext(anchor)), 500
        )
    return out


def us_per_iter(passes):
    """Best pass. Co-tenants on a shared machine only ever slow a pass down;
    over three sets of scalar_grid runs the median pass ranged over 33-47 us
    per iteration and the best pass over 28-29 us."""
    return min(p.seconds / p.iterations * 1e6 for p in passes)


def best_latencies_ms(passes):
    """Each op's fastest latency over the passes, sorted. On a shared machine
    the speed of a fixed Python loop switched between about 18 and 31 ms from
    one second to the next, so the latency of every op of a run mixed both
    speeds in a share that no code change caused."""
    best = {}
    for p in passes:
        for index, seconds in p.latencies.items():
            best[index] = min(seconds, best.get(index, seconds))
    return sorted(seconds * 1e3 for seconds in best.values())


def end_to_end(passes, setup_s):
    latencies_ms = best_latencies_ms(passes)
    return {
        "ops_per_s": max(len(p.latencies) / p.seconds for p in passes),
        "op_ms_p50": statistics.median(latencies_ms),
        "op_ms_p90": statistics.quantiles(latencies_ms, n=10, method="inclusive")[-1],
        "us_per_iter": us_per_iter(passes),
        "iterations": passes[0].iterations,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_values(p):
    """Per-layer metrics of one traced pass."""
    tracer = p.tracer
    solves = [s for s in tracer.spans if s.name == "solver.solve"]
    solver_iterations = sum(s.iterations for s in solves)
    solver_self = sum(s.self_s for s in solves)
    calls = tracer.operator_calls
    busy = tracer.operator_s
    values = {
        "solver.calls": len(solves),
        "solver.self_s": solver_self,
        "solver.self_us_per_iter": solver_self / solver_iterations * 1e6 if solves else 0.0,
        "operators.calls": calls,
        "operators.rows": tracer.operator_rows,
        "operators.busy_s": busy,
        "operators.us_per_call": busy / calls * 1e6 if calls else 0.0,
        "operators.share": busy / p.seconds,
        "operators.bytes_per_call_computed": tracer.operator_bytes / calls if calls else 0.0,
        "operators.gbps_computed": tracer.operator_bytes / busy / 1e9 if calls else 0.0,
        "operators.power_iteration_s": tracer.total("operators.power_iteration"),
        "geometry.projections": solver_iterations,
        "diagnostics.busy_s": tracer.total("diagnostics."),
        "diagnostics.certificates_s": tracer.total("diagnostics.build_separation_certificate")
        + tracer.total("diagnostics.verify_disjointness"),
    }
    for name in DIAGNOSTICS:
        values[f"diagnostics.{name}_s"] = tracer.total(f"diagnostics.{name}")
    return values


def per_layer(untraced, traced, gen_recovery_s, seed):
    rows = [layer_values(p) for p in traced]
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values.update(geometry_probe(seed))
    values["experiments.gen_recovery_s"] = gen_recovery_s
    values["trace.overhead_frac"] = us_per_iter(traced) / us_per_iter(untraced) - 1.0
    return values


def git_sha():
    """Commit of the checkout, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def main(argv=None):
    args = parse_args(argv)
    imports = [import_qvi()]
    cpus = len(os.sched_getaffinity(0))

    import numpy as np

    import workloads

    workload = workloads.build(args.workload)
    if args.negative_control:
        key, wrong = workload.negative_control
        workload.expect[key] = wrong
    ops, setups, generation = set_up(workload, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = measure(workload, ops, budget, imports)
    traced = measure(workload, ops, budget, imports, traced=True) if args.trace else []

    reference = untraced[0]
    for p in untraced[1:] + traced:
        p.compare(reference, ops)
    passes = untraced + traced
    attempted = len(ops) * len(passes)
    failed = sum(p.failed for p in passes)
    errors = [message for p in passes for _, message in p.errors]
    if not all(p.latencies and p.iterations for p in passes):
        print("\n".join(f"error: {message}" for message in errors[:20]), file=sys.stderr)
        raise SystemExit("perfbench: a pass completed no iteration, so no metric can be computed")

    if args.trace:
        metrics = per_layer(untraced, traced, min(generation), args.seed)
        units = PER_LAYER
    else:
        metrics = end_to_end(untraced, min(imports) + min(setups))
        units = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "negative_control": args.negative_control,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": BLAS_THREADS,
        "cpu_count": os.cpu_count(),
        "cpus_usable": cpus,
        "setup_repeats": SETUP_REPEATS,
        "import_s": imports,
        "setup_s": setups,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops_per_pass": len(ops),
        "op_samples": sum(len(p.latencies) for p in untraced),
        "pass_seconds": [p.seconds for p in untraced],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors[:20],
        "per_op_iterations": {op.label: n for op, n in zip(ops, reference.op_iterations)},
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    for name, unit in units.items():
        print(f"{args.workload:18s} {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"{args.workload:18s} {'fail_frac':36s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted} ops; {record['op_samples']} timed samples)")
    for message in errors[:5]:
        print(f"error: {message}")
    print("record " + json.dumps(record))
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
