"""The package names the benchmark in perfbench/ calls still exist.

perfbench/run.py counts an exception raised inside an op as a failed op, so
a name it calls that the package no longer has would show up as failed ops
rather than as an import error. These tests read perfbench/ and change
nothing there.
"""

import ast
from pathlib import Path

import numpy as np

import qvi
from qvi import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"qvi": qvi, "experiments": experiments, "qvi.experiments": experiments}


def _benchmark_names():
    """(module, name) pairs the benchmark reads: qvi.<name>, experiments.<name>
    and the names of ``from qvi import ...`` and ``from qvi.experiments import ...``."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in MODULES:
                    names.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module in MODULES:
                names.update((node.module, alias.name) for alias in node.names)
    return names


def test_every_name_the_benchmark_calls_resolves():
    names = _benchmark_names()
    assert ("qvi", "project") in names and ("qvi.experiments", "run_example_table") in names
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(MODULES[module], name))
    assert missing == []


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
