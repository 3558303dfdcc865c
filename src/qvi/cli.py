"""Command-line front end: experiment dispatch, CSV and SVG emission.

Commands: solve, table1, table2, recovery, rates, ratio, certify. The fields
of RunConfig are the one place where an option is defined: each states its
default, its per-command defaults, its flag and the commands that take it,
and the parser, the defaults and the config-file type check are read from
them. A flat JSON config file may supply any field, with explicit flags
taking precedence. The environment variable QVI_SEED provides the seed when
no flag or file value is given.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields

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

_TABLE_POINTS = {
    "table1": (0.6, 0.9, 2.0, 3.0, -3.0),
    "table2": (2.0, 0.1, -0.5, 4.0, -2.0),
}


def _option(default, commands=COMMANDS, *, flag=None, help=None, choices=None, **per_command):
    """A RunConfig field taken as a flag by `commands`; keywords named after a
    command give that command's default. The flag defaults to --field-name."""
    meta = dict(commands=commands, flag=flag, help=help, choices=choices, per_command=per_command)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class RunConfig:
    command: str
    lambda1: float = _option(1.0, recovery=0.1)
    mu: float = _option(0.3, table2=0.5)
    xi_scale: float = _option(100.0)
    xi_exp: float = _option(1.1)
    tol: tuple = _option(
        (1e-6,), help="stopping tolerance; repeat for several columns",
        table1=(1e-6, 1e-8), table2=(1e-6, 1e-8),
    )
    max_iters: int = _option(500, recovery=2000, ratio=2000)
    seed: int = _option(0)
    out: str = _option(".", help="output directory")
    plot: bool = _option(False)
    problem: str = _option(
        "cubic", ("solve", "rates", "ratio"), choices=sorted(experiments.PROBLEMS),
        table2="sine", ratio="piecewise",
    )
    u1: float = _option(0.6, ("solve", "rates", "ratio"))
    ref: float | None = _option(None, ("ratio",))
    m: int = _option(256, ("recovery",), flag="--M")
    n: int = _option(512, ("recovery",), flag="--N")
    k: int = _option(20, ("recovery",), flag="--K")
    random_rows: int = _option(
        0, ("table1", "table2"), help="append this many uniform(0,1) initial points"
    )
    tail_window: int = _option(20, ("rates",))

    def xi_params(self):
        return XiSequence(self.xi_scale, self.xi_exp)

    def solver_config(self, stop):
        return SolverConfig(
            lambda1=self.lambda1,
            mu=self.mu,
            xi_params=self.xi_params(),
            stop=stop,
            max_iters=self.max_iters,
        )


#: the RunConfig fields that are options, in flag order
_OPTIONS = [f for f in fields(RunConfig) if f.metadata]


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qvi",
        description="Quasimonotone variational-inequality solver and diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat JSON file of flag values")
        for opt in _OPTIONS:
            meta = opt.metadata
            if name not in meta["commands"]:
                continue
            kwargs = dict(dest=opt.name, default=None, help=meta["help"])
            if opt.type is bool:
                kwargs["action"] = "store_true"
            elif opt.type is tuple:
                kwargs.update(action="append", type=float)
            else:
                kwargs.update(type=float if opt.type == float | None else opt.type, choices=meta["choices"])
            p.add_argument(meta["flag"] or "--" + opt.name.replace("_", "-"), **kwargs)
    return parser


#: JSON types a config-file value may take, by field annotation; tol may also be a list
_JSON_TYPES = {
    float: ((int, float), "a number"),
    int: ((int,), "an integer"),
    str: ((str,), "a string"),
    bool: ((bool,), "true or false"),
    tuple: ((int, float), "a number or a nonempty list of numbers"),
    float | None: ((int, float, type(None)), "a number or null"),
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
    annotations = {f.name: f.type for f in fields(RunConfig)}
    for key, value in data.items():
        if key not in annotations:
            raise ValueError(f"config file {path}: unknown key {key!r}")
        types, expected = _JSON_TYPES[annotations[key]]
        listed = annotations[key] is tuple and isinstance(value, list) and value
        if not all(_has_type(item, types) for item in (value if listed else [value])):
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
        field_name, _, rest = str(exc).partition(" ")
        raise ValueError(f"{_FLAG_NAMES.get(field_name, field_name)} {rest}") from exc
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
    if cfg.seed < 0:
        raise ValueError("seed must be nonnegative")
    if cfg.ref is not None and not math.isfinite(cfg.ref):
        raise ValueError("ref must be finite")


def parse_config(argv):
    """Resolve a RunConfig from argv, a config file, and built-in defaults."""
    args = _build_parser().parse_args(argv)
    command = args.command
    merged = {f.name: f.metadata["per_command"].get(command, f.default) for f in _OPTIONS}
    given = _load_config_file(args.config) if args.config is not None else {}
    given.pop("command", None)
    given.update((key, value) for key, value in vars(args).items() if key in merged and value is not None)
    env = os.environ.get("QVI_SEED")
    if "seed" not in given and env:
        try:
            given["seed"] = int(env)
        except ValueError as exc:
            raise ValueError(f"QVI_SEED must be an integer, got {env!r}") from exc
    merged.update(given)
    merged["tol"] = tuple(float(t) for t in np.atleast_1d(merged["tol"]))
    cfg = RunConfig(command=command, **merged)
    _validate(cfg)
    return cfg


def write_config(cfg, path):
    """Serialize a RunConfig as a flat JSON document (the --config format)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
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


def _run_scalar(cfg):
    f, feasible = experiments.PROBLEMS[cfg.problem]()
    tol = cfg.tol[0]
    solver_cfg = cfg.solver_config(SquaredStep(tol * tol))
    return f, solve(f, feasible, cfg.u1, solver_cfg)


def _cmd_solve(cfg):
    _, result = _run_scalar(cfg)
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
        (i + 1, float(out.result.trace.errors[i]), ratio_by_n.get(i + 1))
        for i in range(out.result.iterations)
    ]
    path = _outpath(cfg, "recovery.csv")
    emit_csv(rows, ["n", "mse", "ratio"], path)
    if cfg.plot:
        idx = np.arange(1, out.result.iterations + 1)
        plots.emit_svg_plot(
            [("mse", idx, out.result.trace.errors)],
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
        f"final_mse={float(out.result.trace.errors[-1]):.6g} cpu={cpu:.3f}s -> {path}"
    )
    return 0


def _cmd_rates(cfg):
    f, result = _run_scalar(cfg)
    limit = f.nearest_solution(result.final_point)
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
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"--out {cfg.out}: cannot create the output directory: {exc}") from exc
        return _DISPATCH[cfg.command](cfg)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
