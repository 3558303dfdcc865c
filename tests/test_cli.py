"""Config resolution, CSV fidelity, command outputs, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qvi
from qvi.cli import COMMANDS, _OPTIONS, _table_spec, emit_csv, main, parse_config, write_config
from qvi.plots import emit_svg_plot


# --- configuration ----------------------------------------------------------

def test_defaults_per_command():
    cfg = parse_config(["table1"])
    assert cfg.mu == 0.3 and cfg.tol == (1e-6, 1e-8) and _table_spec(cfg).problem == "cubic"
    cfg = parse_config(["table2"])
    assert cfg.mu == 0.5 and _table_spec(cfg).problem == "sine"
    cfg = parse_config(["recovery"])
    assert cfg.lambda1 == 0.1 and cfg.max_iters == 2000
    cfg = parse_config(["solve"])
    assert cfg.lambda1 == 1.0 and cfg.mu == 0.3 and cfg.tol == (1e-6,)
    cfg = parse_config(["ratio"])
    assert cfg.problem == "piecewise" and cfg.max_iters == 2000 and cfg.ref is None
    cfg = parse_config(["rates"])
    assert cfg.problem == "cubic" and cfg.max_iters == 500 and cfg.tail_window == 20
    cfg = parse_config(["certify"])
    assert cfg.lambda1 == 1.0 and cfg.tol == (1e-6,) and cfg.seed == 0


def test_repeated_tol_flag_builds_columns():
    cfg = parse_config(["table1", "--tol", "1e-5", "--tol", "1e-7"])
    assert cfg.tol == (1e-5, 1e-7)


def test_recovery_case_flags():
    cfg = parse_config(["recovery", "--M", "512", "--N", "1024", "--K", "60", "--seed", "3"])
    assert (cfg.m, cfg.n, cfg.k, cfg.seed) == (512, 1024, 60, 3)


_SOLVER_FLAGS = [
    "-h", "--config", "--lambda1", "--mu", "--xi-scale", "--xi-exp", "--tol", "--max-iters",
]
#: the flags each command takes, in the order its --help lists them
_FLAGS = {
    "solve": _SOLVER_FLAGS + ["--out", "--plot", "--problem", "--u1"],
    "table1": _SOLVER_FLAGS + ["--seed", "--out", "--random-rows"],
    "table2": _SOLVER_FLAGS + ["--seed", "--out", "--random-rows"],
    "recovery": _SOLVER_FLAGS + ["--seed", "--out", "--plot", "--M", "--N", "--K"],
    "rates": _SOLVER_FLAGS + ["--out", "--plot", "--problem", "--u1", "--tail-window"],
    "ratio": _SOLVER_FLAGS + ["--out", "--plot", "--problem", "--u1", "--ref"],
    "certify": ["-h", "--config", "--seed", "--out"],
}
#: a value for each flag that differs from every command's default
_NON_DEFAULT = {
    "--lambda1": ["0.5"], "--mu": ["0.4"], "--xi-scale": ["50"], "--xi-exp": ["1.5"],
    "--tol": ["1e-5", "--tol", "1e-7"], "--max-iters": ["123"], "--seed": ["7"],
    "--out": ["results"], "--plot": [], "--problem": ["sine"], "--u1": ["1.5"],
    "--ref": ["0.25"], "--M": ["16"], "--N": ["32"], "--K": ["3"],
    "--random-rows": ["3"], "--tail-window": ["9"],
}


def test_help_lists_each_commands_flags(capsys):
    for command, flags in _FLAGS.items():
        with pytest.raises(SystemExit):
            main([command, "--help"])
        help_text = capsys.readouterr().out
        assert re.findall(r"^  (-[-\w]+)", help_text, re.MULTILINE) == flags, command
    assert sum(len(flags) - 2 for flags in _FLAGS.values()) == 64


@pytest.mark.parametrize(
    "argv", [["certify", "--tol", "5"], ["table1", "--plot"], ["solve", "--seed", "3"]]
)
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_config_round_trip(tmp_path):
    cfg = parse_config(["table1"])
    path = tmp_path / "run.json"
    write_config(cfg, path)
    again = parse_config(["table1", "--config", str(path)])
    assert again == cfg
    for command, flags in _FLAGS.items():
        argv = [command]
        for flag in flags[2:]:
            argv += [flag] + _NON_DEFAULT[flag]
        cfg = parse_config(argv)
        default = parse_config([command])
        changed = [k for k, v in vars(cfg).items() if getattr(default, k) != v]
        assert len(changed) == len(flags) - 2, command
        write_config(cfg, path)
        assert parse_config([command, "--config", str(path)]) == cfg, command


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"mu": 0.4, "max_iters": 77}))
    cfg = parse_config(["solve", "--config", str(path)])
    assert cfg.mu == 0.4 and cfg.max_iters == 77
    cfg = parse_config(["solve", "--config", str(path), "--mu", "0.45"])
    assert cfg.mu == 0.45 and cfg.max_iters == 77


def test_config_file_errors(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError):
        parse_config(["solve", "--config", str(path)])
    path.write_text(json.dumps({"unknown_key": 1}))
    with pytest.raises(ValueError, match="unknown_key"):
        parse_config(["solve", "--config", str(path)])
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        parse_config(["solve", "--config", str(path)])


@pytest.mark.parametrize(
    "values, field",
    [
        ({"max_iters": "5"}, "max_iters"),
        ({"mu": "0.3"}, "mu"),
        ({"lambda1": True}, "lambda1"),
        ({"k": 2.5}, "k"),
        ({"tol": [1e-6, "x"]}, "tol"),
        ({"tol": []}, "tol"),
        ({"plot": 1}, "plot"),
        ({"out": 3}, "out"),
        ({"problem": "quartic"}, "problem"),
    ],
)
def test_config_file_value_of_wrong_type_exits_2(tmp_path, capsys, values, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(values))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and field in err
    assert not (tmp_path / "solve.csv").exists()


@pytest.mark.parametrize("field, flag", [("xi_scale", "xi-scale"), ("xi_exp", "xi-exp")])
def test_config_file_integer_past_the_float_range_exits_2(tmp_path, capsys, field, flag):
    # JSON keeps a 401-digit integer exact; as a float it is an infinity
    path = tmp_path / "big.json"
    path.write_text(json.dumps({field: 10**400}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert re.fullmatch(f"input error: {flag} must be .* finite\n", capsys.readouterr().err)
    assert not (tmp_path / "solve.csv").exists()


def test_config_file_accepts_json_numbers_lists_and_null(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"lambda1": 2, "tol": [1e-5, 1e-7], "ref": None, "plot": True}))
    cfg = parse_config(["ratio", "--config", str(path)])
    assert (cfg.lambda1, cfg.tol, cfg.ref, cfg.plot) == (2, (1e-5, 1e-7), None, True)
    path.write_text(json.dumps({"mu": 1}))
    with pytest.raises(ValueError, match="mu must lie in"):
        parse_config(["solve", "--config", str(path)])


def test_out_of_range_values_are_named():
    with pytest.raises(ValueError, match="mu"):
        parse_config(["solve", "--mu", "1.5"])
    with pytest.raises(ValueError, match="tol"):
        parse_config(["solve", "--tol", "0"])
    with pytest.raises(ValueError, match="xi-exp"):
        parse_config(["solve", "--xi-exp", "0.9"])
    with pytest.raises(ValueError, match="max-iters must be positive"):
        parse_config(["solve", "--max-iters", "0"])
    flags = (("--tol", "tol"), ("--lambda1", "lambda1"), ("--xi-scale", "xi-scale"), ("--xi-exp", "xi-exp"))
    for flag, name in flags:
        for bad in ("inf", "nan"):
            with pytest.raises(ValueError, match=f"{name} must be .* finite"):
                parse_config(["table1", flag, bad])
    for bad in ("inf", "-inf", "nan"):
        with pytest.raises(ValueError, match="ref must be finite"):
            parse_config(["ratio", f"--ref={bad}"])
    for command in (c for c, flags in _FLAGS.items() if "--seed" in flags):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            parse_config([command, "--seed", "-1"])


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("QVI_SEED", "99")
    assert parse_config(["recovery"]).seed == 99
    assert parse_config(["recovery", "--seed", "5"]).seed == 5
    monkeypatch.setenv("QVI_SEED", "zzz")
    with pytest.raises(ValueError, match="QVI_SEED"):
        parse_config(["recovery"])
    parse_config(["solve"])  # solve takes no seed, so QVI_SEED is not read
    monkeypatch.delenv("QVI_SEED")
    assert parse_config(["recovery"]).seed == 0


@pytest.mark.parametrize(
    "argv, values, env, message",
    [
        (["ratio"], {"ref": 1e400}, None, "ref must be finite"),  # JSON reads 1e400 as inf
        (["table1", "--random-rows", "2"], {"seed": -1}, None, "seed must be nonnegative"),
        (["recovery", "--M", "8", "--N", "16", "--K", "2"], {}, "-4", "seed must be nonnegative"),
        # a value the command does not read is not range-checked: solve takes
        # no seed and table1 no tail window, so both run
        (["solve"], {}, "-4", None),
        (["table1"], {"tail_window": 2}, None, None),
    ],
    ids=["file-ref", "file-seed", "env-seed-recovery", "env-seed-solve", "file-tail-window-table1"],
)
def test_file_and_env_values_out_of_range_exit_2(tmp_path, capsys, monkeypatch, argv, values, env, message):
    if env is None:
        monkeypatch.delenv("QVI_SEED", raising=False)
    else:
        monkeypatch.setenv("QVI_SEED", env)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(values))
    code = main(argv + ["--config", str(path), "--out", str(tmp_path)])
    csvs = [name for name in os.listdir(tmp_path) if name.endswith(".csv")]
    if message is None:
        assert code == 0 and capsys.readouterr().err == ""
        assert csvs == [f"{argv[0]}.csv"]
    else:
        assert code == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert csvs == []


def test_out_that_is_not_a_directory_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("qvi.cli.solve", lambda *args: pytest.fail("solve ran"))
    target = tmp_path / "taken"
    target.write_text("")
    assert main(["solve", "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: --out") and str(target) in err
    assert target.read_text() == ""


# --- CSV ---------------------------------------------------------------------

def test_csv_round_trips_doubles(tmp_path):
    rng = np.random.default_rng(0)
    values = list(rng.standard_normal(50)) + [1.0 / 3.0, 1e-300, 123456.789]
    path = tmp_path / "vals.csv"
    emit_csv([(i, v) for i, v in enumerate(values)], ["i", "value"], path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    parsed = [float(r["value"]) for r in rows]
    assert parsed == [float(v) for v in values]


def test_csv_header_only_and_schema_mismatch(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], ["a", "b"], path)
    assert path.read_text() == "a,b\n"
    with pytest.raises(ValueError):
        emit_csv([(1, 2, 3)], ["a", "b"], path)


def test_csv_uses_lf_and_dot_decimal(tmp_path):
    path = tmp_path / "x.csv"
    emit_csv([(0.5,)], ["v"], path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw == b"v\n0.5\n"


# --- commands ------------------------------------------------------------------

def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name, kind=float):
    return [kind(r[name]) for r in rows]


def _library_scalar_run(problem, u1, max_iters=500):
    """The solve a scalar command runs, called through the library at its defaults."""
    f, box = getattr(qvi, f"{problem}_problem")()
    cfg = qvi.SolverConfig(stop=qvi.SquaredStep(1e-6 * 1e-6), max_iters=max_iters)
    return f, qvi.solve(f, box, u1, cfg)


#: the extra arguments each command is run with, and the files it leaves in --out
_OUTPUTS = {
    "solve": (["--plot"], ["solve.csv", "solve_error.svg"]),
    "table1": ([], ["table1.csv"]),
    "table2": ([], ["table2.csv"]),
    "recovery": (
        ["--M", "32", "--N", "64", "--K", "4", "--seed", "8", "--plot"],
        ["recovery.csv", "recovery_error.svg", "recovery_ratio.svg", "recovery_signals.svg"],
    ),
    "rates": (["--plot"], ["rates.csv", "rates.svg"]),
    "ratio": (["--plot"], ["ratio.csv", "ratio.svg"]),
    "certify": ([], ["certify.csv"]),
}


@pytest.mark.parametrize("command", _OUTPUTS)
def test_each_command_writes_its_files_and_prints_its_csv_path(tmp_path, capsys, command):
    extra, files = _OUTPUTS[command]
    assert main([command, *extra, "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == sorted(files)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1].endswith(f" -> {tmp_path / files[0]}")
    assert not any(" -> " in line for line in lines[:-1])
    for name in files[1:]:
        assert ET.parse(tmp_path / name).getroot().tag.endswith("svg")


@pytest.mark.parametrize("argv, summary", [
    (["solve", "--problem", "cubic", "--u1", "0"], "iterations=1 status=converged final=0 "),
    (["recovery", "--M", "5", "--N", "10", "--K", "0"], "iterations=1 status=converged final_mse=0 "),
    (["ratio", "--problem", "sine", "--u1", "0.003734"], "ref=0 retained=0 min=inf "),
])
def test_a_run_whose_series_has_no_plottable_point_exits_0(tmp_path, capsys, argv, summary):
    # the error, the MSE or every ratio is zero, so a log plot has no point
    # to draw and the ratio series is empty
    assert main([*argv, "--plot", "--out", str(tmp_path)]) == 0
    assert summary in capsys.readouterr().out
    files = _OUTPUTS[argv[0]][1]
    assert sorted(os.listdir(tmp_path)) == sorted(files)
    for name in files[1:]:
        assert ET.parse(tmp_path / name).getroot().tag.endswith("svg")
    if argv[0] == "ratio":
        assert (tmp_path / "ratio.csv").read_text() == "n,ratio\n"


def test_table1_command(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "table1.csv")
    assert {float(r["u1"]) for r in rows} == {0.6, 0.9, 2.0, 3.0, -3.0}
    assert set(rows[0]) == {"u1", "tol", "iterations", "cpu_seconds", "limit"}
    by_key = {(float(r["u1"]), float(r["tol"])): r for r in rows}
    assert by_key[(2.0, 1e-6)]["iterations"] == "2"
    assert float(by_key[(2.0, 1e-6)]["limit"]) == -1.0


def test_solve_command_with_plot(tmp_path):
    assert main(["solve", "--problem", "cubic", "--u1", "0.6", "--out", str(tmp_path), "--plot"]) == 0
    rows = _read_csv(tmp_path / "solve.csv")
    assert len(rows) >= 50
    assert set(rows[0]) == {"n", "u", "z", "lambda", "error", "residual"}
    svg = tmp_path / "solve_error.svg"
    assert svg.exists()
    root = ET.parse(svg).getroot()
    assert root.tag.endswith("svg")
    _, result = _library_scalar_run("cubic", 0.6)
    trace, n = result.trace, result.iterations
    assert _column(rows, "n", int) == list(range(1, n + 1))
    assert _column(rows, "u") == trace.u[:n, 0].tolist()
    assert _column(rows, "z") == trace.z[:, 0].tolist()
    assert _column(rows, "lambda") == trace.lam[:n].tolist()
    assert _column(rows, "error") == trace.errors.tolist()
    assert _column(rows, "residual") == trace.residuals.tolist()


def test_recovery_command(tmp_path):
    code = main([
        "recovery", "--M", "32", "--N", "64", "--K", "4",
        "--seed", "8", "--out", str(tmp_path), "--plot",
    ])
    assert code == 0
    rows = _read_csv(tmp_path / "recovery.csv")
    assert set(rows[0]) == {"n", "mse", "ratio"}
    assert float(rows[-1]["mse"]) < 1e-6
    for name in ("recovery_error.svg", "recovery_ratio.svg", "recovery_signals.svg"):
        assert (tmp_path / name).exists()
        ET.parse(tmp_path / name)
    instance = qvi.gen_recovery(32, 64, 4, 8)
    cfg = qvi.SolverConfig(
        lambda1=0.1, stop=qvi.MseToReference(instance.signal, 1e-6), max_iters=2000
    )
    out = qvi.run_recovery(instance, cfg)
    assert _column(rows, "n", int) == list(range(1, out.result.iterations + 1))
    assert _column(rows, "mse") == out.result.trace.errors.tolist()
    with_ratio = [r for r in rows if r["ratio"]]
    assert _column(with_ratio, "n", int) == out.ratio_series.index.tolist()
    assert _column(with_ratio, "ratio") == out.ratio_series.values.tolist()


def test_rates_command(tmp_path, capsys):
    assert main(["rates", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "q_factor=" in out
    assert os.listdir(tmp_path) == ["rates.csv"]  # no SVG without --plot
    rows = _read_csv(tmp_path / "rates.csv")
    assert set(rows[0]) == {"n", "error"}
    f, result = _library_scalar_run("cubic", 0.6)
    errors = np.linalg.norm(result.trace.u - f.nearest_solution(result.final_point), axis=1)
    (nonzero,) = np.nonzero(errors)
    assert _column(rows, "n", int) == (nonzero + 1).tolist()
    assert _column(rows, "error") == errors[nonzero].tolist()
    estimate = qvi.estimate_rates(np.array(_column(rows, "error")), tail_window=20)
    assert f"q_factor={estimate.q_factor:.6g} sublinear_order={estimate.sublinear_order:.6g}" in out


@pytest.mark.parametrize("problem, u1, nonzero", [("sine", "2.0", 15), ("cubic", "3.0", 4)])
def test_rates_on_a_run_shorter_than_the_tail_window_names_the_flag(
    tmp_path, capsys, problem, u1, nonzero
):
    argv = ["rates", "--problem", problem, "--u1", u1, "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"input error: --tail-window 20 exceeds the run's {nonzero} nonzero errors\n"
    assert os.listdir(tmp_path) == []
    assert main(argv + ["--tail-window", str(nonzero)]) == 0


def test_ratio_command(tmp_path, capsys):
    assert main(["ratio", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "ratio.csv")
    assert set(rows[0]) == {"n", "ratio"}
    values = np.array([float(r["ratio"]) for r in rows])
    np.testing.assert_allclose(values, 1.0, atol=1e-12)
    f, result = _library_scalar_run("piecewise", 0.6, max_iters=2000)
    series = qvi.ratio_series(result.trace, f, f.nearest_solution(result.final_point), eps=1.0)
    assert _column(rows, "n", int) == series.index.tolist()
    assert values.tolist() == series.values.tolist()


@pytest.mark.parametrize("command", ["rates", "ratio"])
def test_sine_run_beyond_the_stored_zeros_is_measured_against_its_own_limit(tmp_path, capsys, command):
    # from 100 the run ends at the zero 3 pi/2 + 30 pi, past the stored zeros up to 8 pi
    assert main([command, "--problem", "sine", "--u1", "100", "--out", str(tmp_path)]) == 0
    f, result = _library_scalar_run("sine", 100.0, max_iters=2000 if command == "ratio" else 500)
    limit = f.nearest_solution(result.final_point)
    assert limit[0] == 2.0 * 15 * np.pi + 1.5 * np.pi
    assert abs(result.final_point[0] - limit[0]) < 1e-3
    rows = _read_csv(tmp_path / f"{command}.csv")
    if command == "rates":
        errors = np.linalg.norm(result.trace.u - limit, axis=1)
        assert _column(rows, "error") == errors[errors > 0].tolist()
        assert "q_factor=1 " not in capsys.readouterr().out
    else:
        assert "ref=98.9602 " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["solve", "--xi-exp", "2000"],
    ["solve", "--problem", "piecewise", "--xi-exp", "100", "--max-iters", "2000"],
])
def test_a_step_perturbation_whose_power_overflows_runs(tmp_path, capsys, argv):
    # (n + 1) ** xi_exp leaves the float range, at iteration 1 and at 1300
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert "status=converged" in capsys.readouterr().out


def test_ratio_against_a_reference_out_of_float_range_exits_2(tmp_path, capsys):
    for ref in ("1e120", "1e150", "1e200"):
        assert main(["ratio", "--ref", ref, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: reference is too far from the iterates")
        assert "Warning" not in err
    assert os.listdir(tmp_path) == []


def test_a_tol_whose_square_leaves_the_float_range_is_named(tmp_path, capsys):
    cases = [("solve", "1e200", "inf"), ("table1", "1e-170", "0"), ("rates", "1e160", "inf"),
             ("ratio", "1e-200", "0"), ("table2", "1e155", "inf")]
    for command, tol, square in cases:
        message = f"tol {float(tol):g} has the square {square}, which must be positive and finite"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_config([command, "--tol", tol])
        assert main([command, "--tol", tol, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
    assert os.listdir(tmp_path) == []
    # recovery stops on the MSE below tol itself, so its tol is not squared
    assert parse_config(["recovery", "--tol", "1e200"]).tol == (1e200,)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        parse_config(["solve", "--tol=-1e-3"])


def test_a_table_solves_its_own_problem_whatever_the_config_file_says(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"problem": "sine"}))
    tables = []
    for extra in ([], ["--config", str(config)]):
        out = tmp_path / str(len(tables))
        assert main(["table1", *extra, "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("table1: 10 rows -> ")
        rows = _read_csv(out / "table1.csv")
        tables.append([{k: v for k, v in r.items() if k != "cpu_seconds"} for r in rows])
    assert tables[1] == tables[0]
    assert tables[0][0] == {"u1": "0.59999999999999998", "tol": "9.9999999999999995e-07",
                            "iterations": "54", "limit": "0"}


def test_table_random_rows(tmp_path):
    assert main(["table1", "--random-rows", "2", "--tol", "1e-6", "--seed", "1",
                 "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "table1.csv")
    assert len(rows) == 7
    extras = [float(r["u1"]) for r in rows[5:]]
    assert all(0.0 < v < 1.0 for v in extras)


def test_certify_command(tmp_path, capsys):
    assert main(["certify", "--out", str(tmp_path)]) == 0
    rows = _read_csv(tmp_path / "certify.csv")
    assert len(rows) == 3
    assert all(r["verified"] == "True" for r in rows)
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines] == [r["set"] for r in rows]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_exit_codes():
    assert main(["solve", "--mu", "1.5"]) == 2
    # an enormous initial step overflows the least-squares iterates
    code = main([
        "recovery", "--M", "8", "--N", "16", "--K", "2",
        "--lambda1", "1e200", "--max-iters", "5", "--out", "/tmp",
    ])
    assert code == 3
    for flag in ("--tol", "--lambda1", "--xi-scale"):
        assert main(["table1", flag, "inf"]) == 2


def test_relaxed_projection_failure_exits_3_without_traceback(tmp_path):
    src = os.path.dirname(os.path.dirname(qvi.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [
            sys.executable, "-m", "qvi.cli", "recovery", "--lambda1", "1e308",
            "--M", "32", "--N", "64", "--K", "4", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert "RuntimeWarning" not in out.stderr
    assert "numeric failure" in out.stderr


# --- SVG ---------------------------------------------------------------------

def test_svg_plot_validation(tmp_path):
    with pytest.raises(ValueError):
        emit_svg_plot([], "ratio_vs_iter", tmp_path / "x.svg")
    with pytest.raises(ValueError):
        emit_svg_plot([("a", [1], [1])], "pie_chart", tmp_path / "x.svg")


def test_svg_stem_panels(tmp_path):
    x = np.arange(20)
    original = np.zeros(20)
    original[[3, 11]] = (1.0, -1.0)
    recovered = original + 0.01
    path = tmp_path / "stems.svg"
    emit_svg_plot(
        [("original", x, original), ("recovered", x, recovered)], "signal_stem", path
    )
    content = path.read_text()
    assert content.count("original") == 1 and "recovered" in content
    ET.parse(path)


@pytest.mark.parametrize("kind, empty", [
    ("error_vs_iter_loglog", ("zero", [1, 2], [0.0, 0.0])),
    ("ratio_vs_iter", ("none", [], [])),
])
def test_svg_line_plot_draws_a_series_without_plottable_points_as_nothing(tmp_path, kind, empty):
    drawn = ("err", np.arange(1, 10), 2.0 ** -np.arange(9))
    emit_svg_plot([drawn], kind, tmp_path / "alone.svg")
    emit_svg_plot([drawn, empty], kind, tmp_path / "both.svg")
    alone = (tmp_path / "alone.svg").read_text().splitlines()
    both = (tmp_path / "both.svg").read_text().splitlines()
    # the axes are the drawn series' alone; the empty one adds an empty line and its label
    assert both[: len(alone) - 1] == alone[:-1]
    assert both[len(alone) - 1].startswith('<polyline points="" ')
    assert both[len(alone)].endswith(f">{empty[0]}</text>") and both[-1] == "</svg>"
    emit_svg_plot([empty], kind, tmp_path / "empty.svg")
    ET.parse(tmp_path / "empty.svg")


def test_svg_loglog_filters_nonpositive(tmp_path):
    path = tmp_path / "log.svg"
    emit_svg_plot(
        [("err", np.arange(0, 10), np.array([0.0] + [2.0**-k for k in range(9)]))],
        "error_vs_iter_loglog",
        path,
    )
    ET.parse(path)


# --- one property over every argv --------------------------------------------

#: float flag values: finite, extreme, non-finite and negative; the first two
#: ranges hold the valid mu and tol, and the valid lambda1 and xi-exp
_FLOATS = st.one_of(
    st.floats(0.01, 0.99),
    st.floats(1.01, 3.0),
    st.floats(-5.0, 5.0),
    st.sampled_from([
        0.0, -0.0, 5e-324, 1e-170, 1.1, 2.0, 100.0, 2000.0, 1e200, -1e300,
        1.7976931348623157e308, math.inf, -math.inf, math.nan,
    ]),
)
#: only to bound the run time, these flags are always given and drawn at most
#: this large: recovery's M and N and every solving command's max-iters
_CAPS = {"m": 40, "n": 40, "max_iters": 200}


@st.composite
def _argvs(draw):
    """A command and a subset of its own flags from the RunConfig option table; --out is the caller's."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    for opt in _OPTIONS:
        meta = opt.metadata
        if command not in meta["commands"] or opt.name == "out":
            continue
        if opt.name not in _CAPS and not draw(st.sampled_from((True, False, False))):
            continue
        flag = meta["flag"] or "--" + opt.name.replace("_", "-")
        if opt.type is bool:
            argv.append(flag)
        elif opt.type is tuple:
            argv += [f"{flag}={v!r}" for v in draw(st.lists(_FLOATS, min_size=1, max_size=2))]
        elif meta["choices"]:
            argv.append(f"{flag}={draw(st.sampled_from(meta['choices']))}")
        elif opt.type is int:
            argv.append(f"{flag}={draw(st.integers(-2, _CAPS.get(opt.name, 12)))}")
        else:
            argv.append(f"{flag}={draw(_FLOATS)!r}")
    return argv


@settings(
    derandomize=True, deadline=None, database=None, max_examples=300,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argvs())
@example(argv=["solve", "--xi-exp=2000.0", "--max-iters=200"])
def test_every_argv_ends_in_an_exit_code(tmp_path, argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    # a warning is an error here, as in the whole suite, so none can leak
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv + ["--out", str(tmp_path)])
    assert code in (0, 2, 3), argv
    expected = {0: "", 2: "input error: ", 3: "numeric failure: "}[code]
    assert stderr.getvalue().startswith(expected) and stderr.getvalue().count("\n") == (code != 0), argv
