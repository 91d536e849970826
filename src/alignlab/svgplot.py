"""Dependency-free SVG line plots, rendered as text; `harness._write` writes
them. CSVs are the data contract; these files are a convenience for eyeballing
runs, so the renderer stays deliberately small."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["line_plot"]

_WIDTH, _HEIGHT = 640, 420
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 62, 16, 30, 44
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _fmt(x: float) -> str:
    return format(x, ".6g")


def _transform(values: np.ndarray, log: bool) -> np.ndarray:
    return np.log10(values) if log else values


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        return [float(t) for t in range(math.floor(lo), math.ceil(hi) + 1)]
    if hi == lo:
        return [lo]
    step = 10 ** math.floor(math.log10((hi - lo) / 4))
    for mult in (1, 2, 5, 10):
        if (hi - lo) / (step * mult) <= 6:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(step):
        out.append(t)
        t += step
    return out


def _tick_label(t: float, log: bool) -> str:
    if not log:
        return _fmt(t)
    # a decade past the float range has no float to format
    return _fmt(10.0**t) if t <= 308 else f"1e+{int(t)}"


def line_plot(series, title="", xlabel="", ylabel="", xlog=False, ylog=False) -> str:
    """The text of an SVG polyline plot, one element per line and ending in a
    newline; it opens no file.

    `series` is a list of (x, y, label) with array-likes x and y. Points that
    a log axis cannot show (<= 0) are dropped. The text depends only on the
    inputs.
    """
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    cleaned = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if xlog:
            keep &= x > 0
        if ylog:
            keep &= y > 0
        cleaned.append((x[keep], y[keep], label))

    xs = np.concatenate([c[0] for c in cleaned]) if cleaned else np.empty(0)
    ys = np.concatenate([c[1] for c in cleaned]) if cleaned else np.empty(0)
    if xs.size:
        tx, ty = _transform(xs, xlog), _transform(ys, ylog)
    else:
        # nothing to show: the axes span [0, 1] after their transform
        tx = ty = np.array([0.0, 1.0])
    x_lo, x_hi = float(tx.min()), float(tx.max())
    y_lo, y_hi = float(ty.min()), float(ty.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def px(v):
        return _MARGIN_L + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v):
        return _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{title}</text>'
        )
    for t in _ticks(x_lo, x_hi, xlog):
        if not x_lo <= t <= x_hi:
            continue
        xp = px(t)
        parts.append(
            f'<line x1="{_fmt(xp)}" y1="{_MARGIN_T + plot_h}" x2="{_fmt(xp)}" '
            f'y2="{_MARGIN_T + plot_h + 4}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_fmt(xp)}" y="{_MARGIN_T + plot_h + 17}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_tick_label(t, xlog)}</text>'
        )
    for t in _ticks(y_lo, y_hi, ylog):
        if not y_lo <= t <= y_hi:
            continue
        yp = py(t)
        parts.append(
            f'<line x1="{_MARGIN_L - 4}" y1="{_fmt(yp)}" x2="{_MARGIN_L}" '
            f'y2="{_fmt(yp)}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_L - 7}" y="{_fmt(yp + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_tick_label(t, ylog)}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_MARGIN_L + plot_w // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{xlabel}</text>'
        )
    if ylabel:
        yc = _MARGIN_T + plot_h // 2
        parts.append(
            f'<text x="14" y="{yc}" text-anchor="middle" font-family="sans-serif" '
            f'font-size="11" transform="rotate(-90 14 {yc})">{ylabel}</text>'
        )
    for i, (x, y, label) in enumerate(cleaned):
        if x.size == 0:
            continue
        color = _COLORS[i % len(_COLORS)]
        xp, yp = px(_transform(x, xlog)).tolist(), py(_transform(y, ylog)).tolist()
        pts = " ".join(map("%.6g,%.6g".__mod__, zip(xp, yp)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>')
        if label:
            ly = _MARGIN_T + 14 + 14 * i
            parts.append(
                f'<line x1="{_MARGIN_L + 8}" y1="{ly - 4}" x2="{_MARGIN_L + 28}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.2"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_L + 33}" y="{ly}" font-family="sans-serif" '
                f'font-size="10">{label}</text>'
            )
    parts.append("</svg>\n")
    return "\n".join(parts)
