"""Minimal standalone SVG plots for diagnostic output.

Three kinds are supported: log-log error trajectories, linear ratio
series, and stem panels for original/recovered signal pairs. The output is
self-contained SVG with axes and tick labels; no plotting library is used.
"""

import numpy as np

PLOT_KINDS = ("error_vs_iter_loglog", "ratio_vs_iter", "signal_stem")

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _fmt(v):
    return f"{v:.6g}"


def _linear_ticks(lo, hi, count=5):
    if hi <= lo:
        hi = lo + 1.0
    return np.linspace(lo, hi, count)


def _decade_ticks(lo, hi):
    first = int(np.ceil(lo))
    last = int(np.floor(hi))
    if first > last:
        return [lo, hi]
    return list(range(first, last + 1))


class _Canvas:
    def __init__(self, x0, y0, w, h):
        self.x0, self.y0, self.w, self.h = x0, y0, w, h
        self.parts = []

    def x_px(self, t):
        return self.x0 + t * self.w

    def y_px(self, t):
        return self.y0 + (1.0 - t) * self.h

    def line(self, x1, y1, x2, y2, color="#444"):
        self.parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{color}" stroke-width="1.0"/>'
        )

    def text(self, x, y, s, anchor="middle"):
        self.parts.append(
            f'<text x="{x:.2f}" y="{y:.2f}" font-size="12" '
            f'font-family="sans-serif" text-anchor="{anchor}">{s}</text>'
        )

    def polyline(self, xs, ys, color):
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )


def _axes(canvas, xticks, yticks, xvals, yvals, xlabel, ylabel):
    canvas.line(canvas.x0, canvas.y0, canvas.x0, canvas.y0 + canvas.h)
    canvas.line(canvas.x0, canvas.y0 + canvas.h, canvas.x0 + canvas.w, canvas.y0 + canvas.h)
    for t, v in zip(xticks, xvals):
        px = canvas.x_px(t)
        canvas.line(px, canvas.y0 + canvas.h, px, canvas.y0 + canvas.h + 4)
        canvas.text(px, canvas.y0 + canvas.h + 18, _fmt(v))
    for t, v in zip(yticks, yvals):
        py = canvas.y_px(t)
        canvas.line(canvas.x0 - 4, py, canvas.x0, py)
        canvas.text(canvas.x0 - 8, py + 4, _fmt(v), anchor="end")
    canvas.text(canvas.x0 + canvas.w / 2, canvas.y0 + canvas.h + 38, xlabel)
    canvas.text(canvas.x0 - 52, canvas.y0 - 10, ylabel, anchor="start")


def _norm(vals, lo, hi):
    span = hi - lo if hi > lo else 1.0
    return (np.asarray(vals, dtype=np.float64) - lo) / span


def _ticks(lo, hi, log):
    """Tick positions on the plotted scale and the values they label."""
    if log:
        ticks = _decade_ticks(lo, hi)
        return ticks, [10.0**t for t in ticks]
    ticks = _linear_ticks(lo, hi)
    return ticks, ticks


def _line_plot(series, log, ylabel):
    """Line plot against iteration; under `log` both axes are log10. A series
    with no plottable point draws no line; the axes span the other series."""
    canvas = _Canvas(_ML, _MT, _W - _ML - _MR, _H - _MT - _MB)
    clean = []
    for label, x, y in series:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        keep = np.isfinite(x) & np.isfinite(y)
        if log:
            keep &= (x > 0) & (y > 0)
        x, y = x[keep], y[keep]
        if log:
            x, y = np.log10(x), np.log10(y)
        clean.append((label, x, y))
    xs = np.concatenate([x for _, x, _ in clean])
    ys = np.concatenate([y for _, _, y in clean])
    xlo, xhi = (xs.min(), xs.max()) if xs.size else (0.0, 0.0)
    ylo, yhi = (ys.min(), ys.max()) if ys.size else (0.0, 0.0)
    xt, xtv = _ticks(xlo, xhi, log)
    yt, ytv = _ticks(ylo, yhi, log)
    _axes(canvas, _norm(xt, xlo, xhi), _norm(yt, ylo, yhi), xtv, ytv, "iteration", ylabel)
    for idx, (label, x, y) in enumerate(clean):
        color = _COLORS[idx % len(_COLORS)]
        canvas.polyline(canvas.x_px(_norm(x, xlo, xhi)), canvas.y_px(_norm(y, ylo, yhi)), color)
        canvas.text(_W - _MR - 5, _MT + 16 * (idx + 1), label, anchor="end")
    return canvas.parts


def _stem_panels(series):
    parts = []
    panel_h = (_H - _MT - _MB) / len(series) - 24
    for idx, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.size == 0:
            raise ValueError(f"series {label!r} is empty")
        y0 = _MT + idx * (panel_h + 24)
        canvas = _Canvas(_ML, y0, _W - _ML - _MR, panel_h)
        xlo, xhi = float(x.min()), float(x.max())
        ymax = float(np.abs(y).max())
        ymax = ymax if ymax > 0 else 1.0
        ylo, yhi = -1.1 * ymax, 1.1 * ymax
        xt = _linear_ticks(xlo, xhi)
        yt = _linear_ticks(ylo, yhi, 3)
        _axes(canvas, _norm(xt, xlo, xhi), _norm(yt, ylo, yhi), xt, yt, "", "")
        base = canvas.y_px(_norm([0.0], ylo, yhi)[0])
        color = _COLORS[idx % len(_COLORS)]
        for xi_px, yi_px in zip(
            canvas.x_px(_norm(x, xlo, xhi)), canvas.y_px(_norm(y, ylo, yhi))
        ):
            canvas.line(xi_px, base, xi_px, yi_px, color=color)
        canvas.text(_ML + 6, y0 + 14, label, anchor="start")
        parts.extend(canvas.parts)
    return parts


def emit_svg_plot(series, kind, path):
    """Write a standalone SVG for the given series.

    series is a nonempty list of (label, x, y) triples. Kinds:
    error_vs_iter_loglog (both axes log), ratio_vs_iter (linear), and
    signal_stem (one stem panel per series).
    """
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
    if not series:
        raise ValueError("series must be nonempty")
    if kind == "error_vs_iter_loglog":
        parts = _line_plot(series, True, "error")
    elif kind == "ratio_vs_iter":
        parts = _line_plot(series, False, "ratio")
    else:
        parts = _stem_panels(series)
    body = "\n".join(parts)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(svg)
