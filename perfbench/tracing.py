"""In-memory spans and a timing operator wrapper for the traced benchmark run.

A span covers one call into a qvi layer: a solve, a diagnostics function or
a power iteration. The benchmark opens spans around the calls it makes
itself; ``instrument`` rebinds the public callees of qvi's experiment
runners so that the unchanged runners open spans too. Spans nest; each
records its parent, and every span carries the index of the benchmark op it
belongs to. Operator evaluations are far too frequent to keep one record
each, so ``TimedMapping`` aggregates them into counters and charges their
time to the innermost open span. A span's self time is its duration minus
the time of its child spans and of the operator calls inside it.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import qvi
from qvi import experiments


@dataclass(eq=False)
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = math.nan
    child_s: float = 0.0
    operator_calls: int = 0
    #: operator calls the span must contain; None leaves the span unchecked
    expect_calls: int | None = None
    #: solver iterations a solve span executed
    iterations: int = 0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    """Span recorder for one benchmark pass."""

    def __init__(self):
        self.spans = []
        self.open_spans = []
        self.op = -1
        self.operator_calls = 0
        self.operator_rows = 0
        self.operator_s = 0.0
        self.operator_bytes = 0

    @contextmanager
    def span(self, name):
        parent = self.open_spans[-1] if self.open_spans else None
        record = Span(name, self.op, parent, time.perf_counter())
        self.open_spans.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.open_spans.pop()
            if parent is not None:
                self.spans[parent].child_s += record.duration

    def operator(self, seconds, rows, nbytes):
        self.operator_calls += 1
        self.operator_rows += rows
        self.operator_s += seconds
        self.operator_bytes += nbytes
        if self.open_spans:
            innermost = self.spans[self.open_spans[-1]]
            innermost.child_s += seconds
            innermost.operator_calls += 1

    def total(self, prefix):
        """Summed duration of the spans whose name starts with prefix."""
        return sum(s.duration for s in self.spans if s.name.startswith(prefix))

    def errors(self):
        """(op, message) for every span whose operator calls differ from its expected count."""
        return [
            (s.op, f"span {s.name} holds {s.operator_calls} operator calls, expected {s.expect_calls}")
            for s in self.spans
            if s.expect_calls is not None and s.operator_calls != s.expect_calls
        ]


class TimedMapping(qvi.Mapping):
    """Operator wrapper that reports every evaluation to a Tracer.

    Bytes are computed from array sizes, not measured: a least-squares
    evaluation reads its matrix and the stored transpose once per call, plus
    the input and output arrays.
    """

    def __init__(self, inner, tracer):
        self.inner = inner
        self.tracer = tracer
        self.dim = inner.dim
        self.lipschitz_hint = inner.lipschitz_hint
        self.known_solutions = inner.known_solutions
        self.known_dual_solutions = inner.known_dual_solutions
        self.default_window = inner.default_window
        self.matrix_bytes = 0
        if isinstance(inner, qvi.LeastSquares):
            self.matrix_bytes = inner.mat.nbytes + inner.mat_t.nbytes

    def __call__(self, x):
        start = time.perf_counter()
        out = self.inner(x)
        seconds = time.perf_counter() - start
        shape = np.shape(x)
        rows = math.prod(shape[:-1]) if len(shape) > 1 else 1
        self.tracer.operator(seconds, rows, self.matrix_bytes + 2 * out.nbytes)
        return out


@contextmanager
def instrument(tracer):
    """Rebind ``solve`` and ``ratio_series`` in ``qvi.experiments`` to wrappers
    that open a span and pass the operator through a TimedMapping.

    The experiment runners look these names up when they call them, so the
    traced run executes the runners themselves. A runner that stops calling
    them records no solve span, which the benchmark reports as an error.
    """
    solve, ratio_series = experiments.solve, experiments.ratio_series

    def traced_solve(f, *args, **kwargs):
        timed = TimedMapping(f, tracer)
        with tracer.span("solver.solve") as span:
            result = solve(timed, *args, **kwargs)
        span.iterations = result.iterations
        span.expect_calls = 2 * result.iterations
        return result

    def traced_ratio_series(trace, f, *args, **kwargs):
        timed = TimedMapping(f, tracer)
        with tracer.span("diagnostics.ratio_series") as span:
            out = ratio_series(trace, timed, *args, **kwargs)
        span.expect_calls = 1
        return out

    experiments.solve, experiments.ratio_series = traced_solve, traced_ratio_series
    try:
        yield
    finally:
        experiments.solve, experiments.ratio_series = solve, ratio_series
