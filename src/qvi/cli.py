"""Command-line front end: experiment dispatch, CSV and SVG emission.

Commands: solve, table1, table2, recovery, rates, ratio, certify. Each
command only computes: it returns an Output holding its CSV name, header and
rows, its summary and its plots. `main` is the one writer: it writes the CSV
under --out, each SVG under --plot, and prints the summary followed by
` -> <csv path>`.

The fields of RunConfig are the one place where an option is defined: each
states its default, its per-command defaults, its flag and the commands that
read it, and the parser, the defaults and the config-file type check are read
from them. A flat JSON config file may supply any field, with explicit flags
taking precedence; every key is type-checked, but only the fields a command
reads are range-checked. The environment variable QVI_SEED provides the seed
of the commands that take --seed when no flag or file value is given.

Exit codes: 0 success, 2 input error, 3 numeric failure.
"""

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import diagnostics, experiments, plots
from .operators import SinePlusOne
from .solver import (
    MseToReference,
    NumericError,
    SolverConfig,
    SquaredStep,
    XiSequence,
    solve,
)

COMMANDS = ("solve", "table1", "table2", "recovery", "rates", "ratio", "certify")

#: the problem each table solves, and its initial points
_TABLE_POINTS = {
    "table1": ("cubic", (0.6, 0.9, 2.0, 3.0, -3.0)),
    "table2": ("sine", (2.0, 0.1, -0.5, 4.0, -2.0)),
}


def _option(default, commands=COMMANDS, *, flag=None, help=None, choices=None, **per_command):
    """A RunConfig field taken as a flag by `commands`; keywords named after a
    command give that command's default. The flag defaults to --field-name."""
    meta = dict(commands=commands, flag=flag, help=help, choices=choices, per_command=per_command)
    return field(default=default, metadata=meta)


#: the commands that run the solver, and so read the six solver flags
_SOLVING = ("solve", "table1", "table2", "recovery", "rates", "ratio")


@dataclass(frozen=True)
class RunConfig:
    command: str
    lambda1: float = _option(1.0, _SOLVING, recovery=0.1)
    mu: float = _option(0.3, _SOLVING, table2=0.5)
    xi_scale: float = _option(100.0, _SOLVING)
    xi_exp: float = _option(1.1, _SOLVING)
    tol: tuple = _option(
        (1e-6,), _SOLVING,
        help="stopping tolerance; table1 and table2 give one column per value, other commands use the first",
        table1=(1e-6, 1e-8), table2=(1e-6, 1e-8),
    )
    max_iters: int = _option(500, _SOLVING, recovery=2000, ratio=2000)
    seed: int = _option(0, ("table1", "table2", "recovery", "certify"))
    out: str = _option(".", help="output directory")
    plot: bool = _option(False, ("solve", "recovery", "rates", "ratio"))
    problem: str = _option(
        "cubic", ("solve", "rates", "ratio"), choices=sorted(experiments.PROBLEMS),
        ratio="piecewise",
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


def _reads(command):
    """Names of the fields `command` reads, one per flag it takes."""
    return {f.name for f in _OPTIONS if command in f.metadata["commands"]}


def _validate(cfg, reads):
    if "tol" in reads:
        # the solver objects check their own parameters when they are built
        try:
            for tol in cfg.tol:
                cfg.solver_config(SquaredStep(tol))
                # all but recovery bound the step norm by tol, so their stop rule receives tol**2
                if cfg.command != "recovery":
                    experiments.check_step_tolerance(tol)
        except ValueError as exc:
            field_name, _, rest = str(exc).partition(" ")
            raise ValueError(f"{_FLAG_NAMES.get(field_name, field_name)} {rest}") from exc
    checks = (
        ("problem", cfg.problem in experiments.PROBLEMS,
         f"unknown problem {cfg.problem!r}; choose from {sorted(experiments.PROBLEMS)}"),
        ("k", 0 <= cfg.k <= cfg.n, "K must satisfy 0 <= K <= N"),
        ("m", cfg.m >= 1 and cfg.n >= 1, "M and N must be positive"),
        ("random_rows", cfg.random_rows >= 0, "random-rows must be nonnegative"),
        ("tail_window", cfg.tail_window >= 3, "tail-window must be at least 3"),
        ("seed", cfg.seed >= 0, "seed must be nonnegative"),
        ("ref", cfg.ref is None or math.isfinite(cfg.ref), "ref must be finite"),
    )
    for name, ok, message in checks:
        if name in reads and not ok:
            raise ValueError(message)


def parse_config(argv):
    """Resolve a RunConfig from argv, a config file, and built-in defaults."""
    args = _build_parser().parse_args(argv)
    command = args.command
    merged = {f.name: f.metadata["per_command"].get(command, f.default) for f in _OPTIONS}
    given = _load_config_file(args.config) if args.config is not None else {}
    given.pop("command", None)
    given.update((key, value) for key, value in vars(args).items() if key in merged and value is not None)
    reads = _reads(command)
    env = os.environ.get("QVI_SEED")
    if "seed" not in given and env and "seed" in reads:
        try:
            given["seed"] = int(env)
        except ValueError as exc:
            raise ValueError(f"QVI_SEED must be an integer, got {env!r}") from exc
    merged.update(given)
    merged["tol"] = tuple(float(t) for t in np.atleast_1d(merged["tol"]))
    cfg = RunConfig(command=command, **merged)
    _validate(cfg, reads)
    return cfg


def write_config(cfg, path):
    """Serialize a RunConfig as a flat JSON document (the --config format)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_cell(value):
    # rows hold None, bool, int, str and float values; np.float64 is a float
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
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


class Output(NamedTuple):
    """What a command produces; `main` writes it.

    The CSV `csv` under --out holds `rows` below `header`; `plots` holds
    (svg name, kind, series) triples for plots.emit_svg_plot, drawn under
    --plot; `summary` is printed with the CSV path appended.
    """

    csv: str
    header: list
    rows: list
    summary: str
    plots: tuple = ()


def _run_scalar(cfg):
    f, feasible = experiments.PROBLEMS[cfg.problem]()
    tol = cfg.tol[0]
    solver_cfg = cfg.solver_config(SquaredStep(tol * tol))
    return f, solve(f, feasible, cfg.u1, solver_cfg)


def _cmd_solve(cfg):
    _, result = _run_scalar(cfg)
    trace, n = result.trace, result.iterations
    columns = (trace.u[:n, 0], trace.z[:, 0], trace.lam[:n], trace.errors, trace.residuals)
    idx = np.arange(1, n + 1)
    return Output(
        "solve.csv",
        ["n", "u", "z", "lambda", "error", "residual"],
        list(zip(idx.tolist(), *(c.tolist() for c in columns))),
        f"solve: problem={cfg.problem} u1={cfg.u1:g} iterations={n} "
        f"status={result.status} final={float(result.final_point[0]):.10g}",
        [("solve_error.svg", "error_vs_iter_loglog", [("error", idx, trace.errors)])],
    )


def _table_spec(cfg):
    problem, points = _TABLE_POINTS[cfg.command]
    if cfg.random_rows:
        points = points + experiments.random_initial_points(cfg.random_rows, cfg.seed)
    return experiments.TableSpec(
        problem=problem,
        initial_points=points,
        lambda1=cfg.lambda1,
        mu=cfg.mu,
        xi_params=cfg.xi_params(),
        tolerances=cfg.tol,
        max_iters=cfg.max_iters,
    )


def _cmd_table(cfg):
    rows = experiments.run_example_table(_table_spec(cfg))
    return Output(
        f"{cfg.command}.csv",
        ["u1", "tol", "iterations", "cpu_seconds", "limit"],
        [(r.u1, r.tol, r.iterations, r.cpu_seconds, r.limit) for r in rows],
        f"{cfg.command}: {len(rows)} rows",
    )


def _cmd_recovery(cfg):
    instance = experiments.gen_recovery(cfg.m, cfg.n, cfg.k, cfg.seed)
    solver_cfg = cfg.solver_config(MseToReference(instance.signal, cfg.tol[0]))
    out = experiments.run_recovery(instance, solver_cfg)
    result, series = out.result, out.ratio_series
    ratio_by_n = dict(zip(series.index.tolist(), series.values.tolist()))
    idx = np.arange(1, result.iterations + 1)
    coords = np.arange(instance.signal.shape[0])
    signals = [("original", coords, instance.signal), ("recovered", coords, result.final_point)]
    return Output(
        "recovery.csv",
        ["n", "mse", "ratio"],
        [(n, mse, ratio_by_n.get(n)) for n, mse in zip(idx.tolist(), result.trace.errors.tolist())],
        f"recovery: M={cfg.m} N={cfg.n} K={cfg.k} seed={cfg.seed} "
        f"iterations={result.iterations} status={result.status} "
        f"final_mse={float(result.trace.errors[-1]):.6g} cpu={result.wall_time:.3f}s",
        [
            ("recovery_error.svg", "error_vs_iter_loglog", [("mse", idx, result.trace.errors)]),
            ("recovery_ratio.svg", "ratio_vs_iter", [("ratio", series.index, series.values)]),
            ("recovery_signals.svg", "signal_stem", signals),
        ],
    )


def _cmd_rates(cfg):
    f, result = _run_scalar(cfg)
    limit = f.nearest_solution(result.final_point)
    errors = np.linalg.norm(result.trace.u - limit, axis=1)
    keep = errors > 0
    idx = np.arange(1, errors.shape[0] + 1)[keep]
    errors = errors[keep]
    if errors.size < cfg.tail_window:
        raise ValueError(f"--tail-window {cfg.tail_window} exceeds the run's {errors.size} nonzero errors")
    estimate = diagnostics.estimate_rates(errors, tail_window=cfg.tail_window)
    return Output(
        "rates.csv",
        ["n", "error"],
        list(zip(idx.tolist(), errors.tolist())),
        f"rates: problem={cfg.problem} u1={cfg.u1:g} q_factor={estimate.q_factor:.6g} "
        f"sublinear_order={estimate.sublinear_order:.6g} tail_window={estimate.tail_window}",
        [("rates.svg", "error_vs_iter_loglog", [("error", idx, errors)])],
    )


def _cmd_ratio(cfg):
    f, result = _run_scalar(cfg)
    if cfg.ref is not None:
        reference = np.array([cfg.ref], dtype=np.float64)
    else:
        reference = f.nearest_solution(result.final_point)
    series = diagnostics.ratio_series(result.trace, f, reference, eps=1.0)
    return Output(
        "ratio.csv",
        ["n", "ratio"],
        list(zip(series.index.tolist(), series.values.tolist())),
        f"ratio: problem={cfg.problem} u1={cfg.u1:g} ref={float(reference[0]):g} "
        f"retained={series.values.size} min={series.values.min(initial=np.inf):.6g}",
        [("ratio.svg", "ratio_vs_iter", [("ratio", series.index, series.values)])],
    )


def _certificate_sets():
    return {
        "pair_line": np.array([0.0, 3.0]),
        "unit_triangle": np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        "sine_zero_lattice": np.concatenate(SinePlusOne.known_solutions[:5]),
    }


def _cmd_certify(cfg):
    rows = []
    for name, pts in _certificate_sets().items():
        cert = diagnostics.build_separation_certificate(pts)
        ok = diagnostics.verify_disjointness(cert, samples=10_000, seed=cfg.seed)
        rows.append((name, pts.shape[0], cert.delta, ok))
    return Output(
        "certify.csv",
        ["set", "points", "delta", "verified"],
        rows,
        "\n".join(
            f"certify: {name} points={points} delta={delta:.6g} verified={ok}"
            for name, points, delta, ok in rows
        ),
    )


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
        out = _DISPATCH[cfg.command](cfg)
        path = os.path.join(cfg.out, out.csv)
        emit_csv(out.rows, out.header, path)
        if cfg.plot:
            for name, kind, series in out.plots:
                plots.emit_svg_plot(series, kind, os.path.join(cfg.out, name))
        print(f"{out.summary} -> {path}")
        return 0
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
