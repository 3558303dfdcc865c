"""The package names, attributes and keywords the benchmark in perfbench/
uses still exist, and each of its calls fits the called function's signature.

perfbench/run.py counts an exception raised inside an op as a failed op, so
a name it calls that the package no longer has would show up as failed ops
rather than as an import error. These tests read perfbench/ and change
nothing there.
"""

import ast
import inspect
from pathlib import Path

import numpy as np

import qvi
from qvi import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"qvi": qvi, "experiments": experiments, "qvi.experiments": experiments}
OPERATORS = {
    "CubicQuasi": qvi.CubicQuasi(),
    "SinePlusOne": qvi.SinePlusOne(),
    "PiecewiseQuad": qvi.PiecewiseQuad(),
    "LeastSquares": qvi.LeastSquares(np.ones((2, 3)), np.zeros(2)),
}


def _parse(name):
    path = PERFBENCH / name
    return ast.parse(path.read_text(), str(path))


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _inner_reads(nodes):
    return {
        node.attr
        for stmt in nodes
        for node in ast.walk(stmt)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "inner"
    }


def _timed_mapping_reads():
    """Attributes ``TimedMapping.__init__`` reads from its ``inner`` operator,
    keyed by the class an ``if isinstance(inner, qvi.<class>)`` guard names,
    or by None for the reads every operator must serve."""
    tracing = _parse("tracing.py")
    cls = next(n for n in tracing.body if isinstance(n, ast.ClassDef) and n.name == "TimedMapping")
    init = next(n for n in cls.body if isinstance(n, ast.FunctionDef) and n.name == "__init__")
    reads = {None: set()}
    for stmt in init.body:
        test = getattr(stmt, "test", None)
        if isinstance(test, ast.Call) and _callee(test) == "isinstance":
            reads.setdefault(test.args[1].attr, set()).update(_inner_reads(stmt.body))
            reads[None] |= _inner_reads(stmt.orelse)
        else:
            reads[None] |= _inner_reads([stmt])
    return reads


def _benchmark_names():
    """(module, name) pairs the benchmark reads: qvi.<name>, experiments.<name>
    and the names of ``from qvi import ...`` and ``from qvi.experiments import ...``."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_parse(path.name)):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in MODULES:
                    names.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
                names.update((node.module, alias.name) for alias in node.names)
    return names


def _qvi_function(node, imported):
    """The package function an expression names: ``qvi.<name>``,
    ``experiments.<name>`` or a name imported from the package; else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        if node.value.id in MODULES:
            return f"{node.value.id}.{node.attr}", getattr(MODULES[node.value.id], node.attr, None)
    elif isinstance(node, ast.Name) and node.id in imported:
        module = imported[node.id]
        return f"{module}.{node.id}", getattr(MODULES[module], node.id, None)
    return None


def _wrappers(tree):
    """Functions that take ``*args``, by name, with their keyword-only
    parameters: the audit's ``call(name, fn, *args, calls=...)`` keeps those
    keywords for itself and passes the rest on to ``fn``."""
    return {
        node.name: {arg.arg for arg in node.args.kwonlyargs}
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.args.vararg is not None
    }


def _benchmark_calls():
    """(where, name, function, positional count, keyword names) for each call
    of a package function in perfbench/: direct calls, and calls of a wrapper
    that is handed the function followed by its arguments."""
    calls = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = _parse(path.name)
        imported = {
            alias.asname or alias.name: node.module
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in MODULES
            for alias in node.names
        }
        wrappers = _wrappers(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            target = _qvi_function(node.func, imported)
            args, keywords = node.args, [k.arg for k in node.keywords]
            if target is None and _callee(node) in wrappers:
                for i, arg in enumerate(node.args):
                    target = _qvi_function(arg, imported)
                    if target is not None:
                        args = node.args[i + 1 :]
                        keywords = [k for k in keywords if k not in wrappers[_callee(node)]]
                        break
            if target is None:
                continue
            # a starred argument or **kwargs cannot be counted; none exist today
            assert not any(isinstance(arg, ast.Starred) for arg in args), f"{path.name}:{node.lineno}"
            assert None not in keywords, f"{path.name}:{node.lineno}"
            calls.append((f"{path.name}:{node.lineno}", *target, len(args), keywords))
    return calls


def test_every_name_the_benchmark_calls_resolves():
    names = _benchmark_names()
    assert ("qvi", "project") in names and ("qvi.experiments", "run_example_table") in names
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(MODULES[module], name))
    assert missing == []


def test_every_benchmark_call_binds_to_its_signature():
    calls = _benchmark_calls()
    called = {name for _, name, *_ in calls}
    # one direct call, one call through the audit's wrappers, one imported name
    assert {"qvi.gen_recovery", "qvi.power_iteration_gram_norm", "qvi.experiments.run_recovery"} <= called
    unbound = []
    for where, name, fn, positional, keywords in calls:
        try:
            inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            unbound.append(f"{where} {name}: {exc}")
    assert unbound == []


def test_every_operator_has_what_the_timed_mapping_reads():
    reads = _timed_mapping_reads()
    assert {"dim", "lipschitz_hint", "known_solutions"} <= reads[None]
    assert {"mat", "mat_t"} <= reads["LeastSquares"]
    missing = sorted(
        f"{name}.{attr}"
        for name, op in OPERATORS.items()
        for attr in reads[None] | reads.get(name, set())
        if not hasattr(op, attr)
    )
    assert missing == []


def test_solver_config_takes_every_keyword_the_workloads_pass():
    passed = {
        keyword.arg
        for node in ast.walk(_parse("workloads.py"))
        if isinstance(node, ast.Call) and _callee(node) == "SolverConfig"
        for keyword in node.keywords
    }
    assert "max_iters" in passed
    accepted = inspect.signature(qvi.SolverConfig).parameters
    assert sorted(passed - set(accepted)) == []


def test_project_takes_the_benchmark_geometry_calls():
    # the two calls perfbench/run.py::geometry_probe times
    out = qvi.project(qvi.Box(-1.0, 1.0), np.array([1.7]))
    np.testing.assert_array_equal(out, [1.0])
    rng = np.random.default_rng(0)
    for n, k in ((512, 20), (2048, 80)):
        anchor = rng.standard_normal(n)
        step = anchor - 0.1 * rng.standard_normal(n)
        out = qvi.project(qvi.HalfSpaceRelaxedL1Ball(k), step, qvi.ProjectionContext(anchor))
        assert out.shape == (n,)
        assert np.abs(anchor).sum() - k <= np.sign(anchor) @ (anchor - out) + 1e-10
