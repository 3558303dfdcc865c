"""Command-line front end: experiment dispatch, CSV and SVG emission.

Commands: solve, table1, table2, recovery, rates, ratio, certify. Shared
flags control the solver parameters; a flat JSON config file may supply any
of them, with explicit flags taking precedence. The environment variable
QVI_SEED provides the seed when no flag or file value is given.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import diagnostics, experiments, plots
from .solver import (
    MseToReference,
    NumericError,
    SolverConfig,
    SquaredStep,
    XiSequence,
    solve,
)

COMMANDS = ("solve", "table1", "table2", "recovery", "rates", "ratio", "certify")

_COMMON_DEFAULTS = dict(
    lambda1=1.0,
    mu=0.3,
    xi_scale=100.0,
    xi_exp=1.1,
    tol=(1e-6,),
    max_iters=500,
    out=".",
    plot=False,
    problem="cubic",
    u1=0.6,
    ref=None,
    m=256,
    n=512,
    k=20,
    random_rows=0,
    tail_window=20,
)

_COMMAND_DEFAULTS = {
    "table1": dict(problem="cubic", tol=(1e-6, 1e-8)),
    "table2": dict(problem="sine", mu=0.5, tol=(1e-6, 1e-8)),
    "recovery": dict(lambda1=0.1, max_iters=2000),
    "ratio": dict(problem="piecewise", max_iters=2000),
    "rates": dict(problem="cubic"),
}

_TABLE_POINTS = {
    "table1": (0.6, 0.9, 2.0, 3.0, -3.0),
    "table2": (2.0, 0.1, -0.5, 4.0, -2.0),
}


@dataclass(frozen=True)
class RunConfig:
    command: str
    lambda1: float
    mu: float
    xi_scale: float
    xi_exp: float
    tol: tuple
    max_iters: int
    seed: int
    out: str
    plot: bool
    problem: str
    u1: float
    ref: float | None
    m: int
    n: int
    k: int
    random_rows: int
    tail_window: int

    def xi_params(self):
        return XiSequence(self.xi_scale, self.xi_exp)

    def solver_config(self, stop, trace_level="full"):
        return SolverConfig(
            lambda1=self.lambda1,
            mu=self.mu,
            xi_params=self.xi_params(),
            stop=stop,
            max_iters=self.max_iters,
            trace_level=trace_level,
        )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qvi",
        description="Quasimonotone variational-inequality solver and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON file of flag values")
        p.add_argument("--lambda1", type=float, default=None)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--xi-scale", dest="xi_scale", type=float, default=None)
        p.add_argument("--xi-exp", dest="xi_exp", type=float, default=None)
        p.add_argument(
            "--tol", action="append", type=float, default=None,
            help="stopping tolerance; repeat for several columns",
        )
        p.add_argument("--max-iters", dest="max_iters", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--plot", action="store_true", default=None)
        if name in ("solve", "rates", "ratio"):
            p.add_argument("--problem", choices=sorted(experiments.PROBLEMS), default=None)
            p.add_argument("--u1", type=float, default=None)
        if name == "ratio":
            p.add_argument("--ref", type=float, default=None)
        if name == "rates":
            p.add_argument("--tail-window", dest="tail_window", type=int, default=None)
        if name in ("table1", "table2"):
            p.add_argument(
                "--random-rows", dest="random_rows", type=int, default=None,
                help="append this many uniform(0,1) initial points",
            )
        if name == "recovery":
            p.add_argument("--M", dest="m", type=int, default=None)
            p.add_argument("--N", dest="n", type=int, default=None)
            p.add_argument("--K", dest="k", type=int, default=None)
    return parser


_NUMBER = ((int, float), "a number")
_INTEGER = ((int,), "an integer")
_STRING = ((str,), "a string")
#: JSON types a config-file value may take, by key; tol may also be a list
_FILE_TYPES = {
    **dict.fromkeys(("lambda1", "mu", "xi_scale", "xi_exp", "u1"), _NUMBER),
    **dict.fromkeys(("max_iters", "seed", "m", "n", "k", "random_rows", "tail_window"), _INTEGER),
    **dict.fromkeys(("out", "problem", "command"), _STRING),
    "tol": ((int, float), "a number or a nonempty list of numbers"),
    "ref": ((int, float, type(None)), "a number or null"),
    "plot": ((bool,), "true or false"),
}


def _has_type(value, types):
    # JSON true and false load as bool, a subclass of int
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a flat JSON object")
    for key, value in data.items():
        if key not in _FILE_TYPES:
            raise ValueError(f"config file {path}: unknown key {key!r}")
        types, expected = _FILE_TYPES[key]
        items = value if key == "tol" and isinstance(value, list) and value else [value]
        if not all(_has_type(item, types) for item in items):
            raise ValueError(f"config file {path}: {key} must be {expected}, got {value!r}")
    return data


#: flag names of the solver-object fields that error messages start with
_FLAG_NAMES = {"scale": "xi-scale", "exponent": "xi-exp", "max_iters": "max-iters"}


def _validate(cfg):
    # the solver objects check their own parameters when they are built
    try:
        for tol in cfg.tol:
            cfg.solver_config(SquaredStep(tol))
    except ValueError as exc:
        field, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_FLAG_NAMES.get(field, field)} {rest}") from exc
    if cfg.problem not in experiments.PROBLEMS:
        raise ValueError(f"unknown problem {cfg.problem!r}; choose from {sorted(experiments.PROBLEMS)}")
    if cfg.k < 0 or cfg.k > cfg.n:
        raise ValueError("K must satisfy 0 <= K <= N")
    if cfg.m < 1 or cfg.n < 1:
        raise ValueError("M and N must be positive")
    if cfg.random_rows < 0:
        raise ValueError("random-rows must be nonnegative")
    if cfg.tail_window < 3:
        raise ValueError("tail-window must be at least 3")


def parse_config(argv):
    """Resolve a RunConfig from argv, a config file, and built-in defaults."""
    args = _build_parser().parse_args(argv)
    command = args.command
    merged = dict(_COMMON_DEFAULTS)
    merged.update(_COMMAND_DEFAULTS.get(command, {}))
    merged["seed"] = None
    if args.config is not None:
        file_values = _load_config_file(args.config)
        file_values.pop("command", None)
        merged.update(file_values)
    for key in list(merged):
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    if merged["seed"] is None:
        env = os.environ.get("QVI_SEED")
        try:
            merged["seed"] = int(env) if env else 0
        except ValueError as exc:
            raise ValueError(f"QVI_SEED must be an integer, got {env!r}") from exc
    merged["tol"] = tuple(float(t) for t in np.atleast_1d(merged["tol"]))
    merged["plot"] = bool(merged["plot"])
    cfg = RunConfig(command=command, **merged)
    _validate(cfg)
    return cfg


def write_config(cfg, path):
    """Serialize a RunConfig as a flat JSON document (the --config format)."""
    data = asdict(cfg)
    data["tol"] = list(data["tol"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def emit_csv(rows, schema, path):
    """Write rows under a header; floats carry 17 significant digits."""
    for row in rows:
        if len(row) != len(schema):
            raise ValueError(f"row width {len(row)} does not match schema {schema}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(schema)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _outpath(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


def _scalar_trace_rows(result):
    trace = result.trace
    rows = []
    for i in range(trace.iterations):
        rows.append(
            (
                i + 1,
                float(trace.u[i, 0]),
                float(trace.z[i, 0]),
                float(trace.lam[i]),
                float(trace.errors[i]),
                float(trace.residuals[i]),
            )
        )
    return rows


def _cmd_solve(cfg):
    f, feasible = experiments.PROBLEMS[cfg.problem]()
    tol = cfg.tol[0]
    solver_cfg = cfg.solver_config(SquaredStep(tol * tol))
    result = solve(f, feasible, cfg.u1, solver_cfg)
    path = _outpath(cfg, "solve.csv")
    emit_csv(
        _scalar_trace_rows(result),
        ["n", "u", "z", "lambda", "error", "residual"],
        path,
    )
    if cfg.plot:
        idx = np.arange(1, result.iterations + 1)
        errs = result.trace.errors
        keep = errs > 0
        plots.emit_svg_plot(
            [("error", idx[keep], errs[keep])],
            "error_vs_iter_loglog",
            _outpath(cfg, "solve_error.svg"),
        )
    print(
        f"solve: problem={cfg.problem} u1={cfg.u1:g} iterations={result.iterations} "
        f"status={result.status} final={float(result.final_point[0]):.10g} -> {path}"
    )
    return 0


def _table_spec(cfg):
    points = _TABLE_POINTS[cfg.command]
    if cfg.random_rows:
        points = points + experiments.random_initial_points(cfg.random_rows, cfg.seed)
    return experiments.TableSpec(
        problem=cfg.problem,
        initial_points=points,
        lambda1=cfg.lambda1,
        mu=cfg.mu,
        xi_params=cfg.xi_params(),
        tolerances=cfg.tol,
        max_iters=cfg.max_iters,
    )


def _cmd_table(cfg):
    rows = experiments.run_example_table(_table_spec(cfg))
    path = _outpath(cfg, f"{cfg.command}.csv")
    emit_csv(
        [(r.u1, r.tol, r.iterations, r.cpu_seconds, r.limit) for r in rows],
        ["u1", "tol", "iterations", "cpu_seconds", "limit"],
        path,
    )
    print(f"{cfg.command}: {len(rows)} rows -> {path}")
    return 0


def _cmd_recovery(cfg):
    instance = experiments.gen_recovery(cfg.m, cfg.n, cfg.k, cfg.seed)
    solver_cfg = cfg.solver_config(MseToReference(instance.signal, cfg.tol[0]))
    t0 = time.perf_counter()
    out = experiments.run_recovery(instance, solver_cfg)
    cpu = time.perf_counter() - t0
    ratio_by_n = dict(zip(out.ratio_series.index.tolist(), out.ratio_series.values))
    rows = [
        (i + 1, float(out.mse_series[i]), ratio_by_n.get(i + 1))
        for i in range(out.result.iterations)
    ]
    path = _outpath(cfg, "recovery.csv")
    emit_csv(rows, ["n", "mse", "ratio"], path)
    if cfg.plot:
        idx = np.arange(1, out.result.iterations + 1)
        plots.emit_svg_plot(
            [("mse", idx, out.mse_series)],
            "error_vs_iter_loglog",
            _outpath(cfg, "recovery_error.svg"),
        )
        plots.emit_svg_plot(
            [("ratio", out.ratio_series.index, out.ratio_series.values)],
            "ratio_vs_iter",
            _outpath(cfg, "recovery_ratio.svg"),
        )
        coords = np.arange(instance.signal.shape[0])
        plots.emit_svg_plot(
            [
                ("original", coords, instance.signal),
                ("recovered", coords, out.result.final_point),
            ],
            "signal_stem",
            _outpath(cfg, "recovery_signals.svg"),
        )
    print(
        f"recovery: M={cfg.m} N={cfg.n} K={cfg.k} seed={cfg.seed} "
        f"iterations={out.result.iterations} status={out.result.status} "
        f"final_mse={float(out.mse_series[-1]):.6g} cpu={cpu:.3f}s -> {path}"
    )
    return 0


def _run_scalar(cfg):
    f, feasible = experiments.PROBLEMS[cfg.problem]()
    tol = cfg.tol[0]
    solver_cfg = cfg.solver_config(SquaredStep(tol * tol))
    return f, solve(f, feasible, cfg.u1, solver_cfg)


def _cmd_rates(cfg):
    f, result = _run_scalar(cfg)
    limit = f.nearest_solution(result.final_point)
    if limit is None:
        limit = result.final_point
    errors = np.linalg.norm(result.trace.u - limit, axis=1)
    keep = errors > 0
    idx = np.arange(1, errors.shape[0] + 1)[keep]
    errors = errors[keep]
    estimate = diagnostics.estimate_rates(errors, tail_window=cfg.tail_window)
    path = _outpath(cfg, "rates.csv")
    emit_csv(list(zip(idx, errors)), ["n", "error"], path)
    if cfg.plot:
        plots.emit_svg_plot(
            [("error", idx, errors)], "error_vs_iter_loglog", _outpath(cfg, "rates.svg")
        )
    print(
        f"rates: problem={cfg.problem} u1={cfg.u1:g} q_factor={estimate.q_factor:.6g} "
        f"sublinear_order={estimate.sublinear_order:.6g} "
        f"tail_window={estimate.tail_window} -> {path}"
    )
    return 0


def _cmd_ratio(cfg):
    f, result = _run_scalar(cfg)
    if cfg.ref is not None:
        reference = np.array([cfg.ref], dtype=np.float64)
    else:
        reference = f.nearest_solution(result.final_point)
        if reference is None:
            reference = result.final_point
    series = diagnostics.ratio_series(result.trace, f, reference, eps=1.0)
    path = _outpath(cfg, "ratio.csv")
    emit_csv(list(zip(series.index, series.values)), ["n", "ratio"], path)
    if cfg.plot:
        plots.emit_svg_plot(
            [("ratio", series.index, series.values)],
            "ratio_vs_iter",
            _outpath(cfg, "ratio.svg"),
        )
    print(
        f"ratio: problem={cfg.problem} u1={cfg.u1:g} ref={float(reference[0]):g} "
        f"retained={series.values.size} min={series.min_ratio:.6g} -> {path}"
    )
    return 0


def _certificate_sets():
    gaps = [2.0 * k * np.pi + 1.5 * np.pi for k in range(4)]
    return {
        "pair_line": np.array([0.0, 3.0]),
        "unit_triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "sine_zero_lattice": np.array([0.0] + gaps),
    }


def _cmd_certify(cfg):
    rows = []
    for name, pts in _certificate_sets().items():
        cert = diagnostics.build_separation_certificate(pts)
        ok = diagnostics.verify_disjointness(cert, samples=10_000, seed=cfg.seed)
        rows.append((name, pts.shape[0], cert.delta, ok))
        print(f"certify: {name} points={pts.shape[0]} delta={cert.delta:.6g} verified={ok}")
    path = _outpath(cfg, "certify.csv")
    emit_csv(rows, ["set", "points", "delta", "verified"], path)
    return 0


_DISPATCH = {
    "solve": _cmd_solve,
    "table1": _cmd_table,
    "table2": _cmd_table,
    "recovery": _cmd_recovery,
    "rates": _cmd_rates,
    "ratio": _cmd_ratio,
    "certify": _cmd_certify,
}


def main(argv=None):
    try:
        cfg = parse_config(argv if argv is not None else sys.argv[1:])
        return _DISPATCH[cfg.command](cfg)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
