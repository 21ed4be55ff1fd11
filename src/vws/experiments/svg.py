"""Minimal SVG line plots, written directly without a plotting library.

Good enough for convergence curves: linear or logarithmic axes, one polyline
per series, tick labels, and a text legend.  Deterministic output.
"""

from __future__ import annotations

import math
from pathlib import Path

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 36, 50

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _transform(lo, hi, log):
    if log:
        lo, hi = math.log10(lo), math.log10(hi)
        f = math.log10
    else:
        f = float
    span = hi - lo if hi > lo else 1.0
    return lambda v: (f(v) - lo) / span


def _ticks(lo, hi, log):
    if log:
        a, b = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        decades = range(a, b + 1)
        return [10.0 ** d for d in decades if lo * 0.999 <= 10.0 ** d <= hi * 1.001] \
            or [lo, hi]
    span = hi - lo if hi > lo else 1.0
    step = 10.0 ** math.floor(math.log10(span / 4))
    for mult in (1, 2, 5, 10):
        if span / (step * mult) <= 5.5:
            step *= mult
            break
    start = math.ceil(lo / step) * step
    vals = []
    v = start
    while v <= hi + 1e-12 * span:
        vals.append(v)
        v += step
    return vals or [lo, hi]


def _fmt_tick(v, log):
    if log:
        e = round(math.log10(v))
        return f"1e{e:d}"
    if v == 0:
        return "0"
    if abs(v) >= 1000 or abs(v) < 0.01:
        return f"{v:.1e}"
    return f"{v:g}"


def line_plot(path, series, title="", xlabel="", ylabel="",
              logx=False, logy=False) -> Path:
    """series: iterable of (label, xs, ys).  Writes an .svg file."""
    series = [(label, [float(x) for x in xs], [float(y) for y in ys])
              for label, xs, ys in series]
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)
           if _ok(x, logx) and _ok(y, logy)]
    if not pts:
        pts = [(1.0, 1.0), (2.0, 2.0)]
    xlo = min(p[0] for p in pts)
    xhi = max(p[0] for p in pts)
    ylo = min(p[1] for p in pts)
    yhi = max(p[1] for p in pts)
    if not logx and xhi == xlo:
        xlo, xhi = xlo - 1, xhi + 1
    if not logy and yhi == ylo:
        ylo, yhi = ylo - 1, yhi + 1
    if logx and xhi == xlo:
        xhi = xlo * 10
    if logy and yhi == ylo:
        yhi = ylo * 10
    tx = _transform(xlo, xhi, logx)
    ty = _transform(ylo, yhi, logy)
    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def X(v):
        return MARGIN_L + tx(v) * plot_w

    def Y(v):
        return HEIGHT - MARGIN_B - ty(v) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333"/>',
    ]
    if title:
        parts.append(_text(WIDTH / 2, 20, title, anchor="middle", size=14))
    if xlabel:
        parts.append(_text(MARGIN_L + plot_w / 2, HEIGHT - 12, xlabel,
                           anchor="middle"))
    if ylabel:
        parts.append(
            f'<text x="16" y="{MARGIN_T + plot_h / 2}" font-size="12" '
            f'text-anchor="middle" font-family="monospace" '
            f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">'
            f'{_esc(ylabel)}</text>')
    for v in _ticks(xlo, xhi, logx):
        x = X(v)
        parts.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" '
                     f'x2="{x:.1f}" y2="{HEIGHT - MARGIN_B + 5}" stroke="#333"/>')
        parts.append(_text(x, HEIGHT - MARGIN_B + 18, _fmt_tick(v, logx),
                           anchor="middle", size=10))
    for v in _ticks(ylo, yhi, logy):
        y = Y(v)
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" '
                     f'x2="{MARGIN_L}" y2="{y:.1f}" stroke="#333"/>')
        parts.append(_text(MARGIN_L - 8, y + 3, _fmt_tick(v, logy),
                           anchor="end", size=10))
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = [(X(x), Y(y)) for x, y in zip(xs, ys)
                  if _ok(x, logx) and _ok(y, logy)]
        if len(coords) >= 2:
            d = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            parts.append(f'<polyline points="{d}" fill="none" stroke="{color}" '
                         'stroke-width="1.5"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.5" '
                         f'fill="{color}"/>')
        ly = MARGIN_T + 14 + 14 * i
        lx = MARGIN_L + plot_w - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(_text(lx + 24, ly, label, size=10))
    parts.append("</svg>")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")
    return path


def _ok(v, log):
    return math.isfinite(v) and (not log or v > 0)


def _esc(s):
    return (str(s).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _text(x, y, s, anchor="start", size=12):
    return (f'<text x="{x:.1f}" y="{y:.1f}" font-size="{size}" '
            f'text-anchor="{anchor}" font-family="monospace">{_esc(s)}</text>')
