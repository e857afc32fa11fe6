"""Hand-rolled SVG line charts (no charting dependency, bit-deterministic)."""

from __future__ import annotations

import math

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 34, 44
COLORS = ("#1f6fb4", "#d1491f", "#2d8a41", "#8146af", "#946141", "#d03a82")


def _top(lo: float, hi: float) -> float:
    """hi, or lo + max(1, 64 ulps) if [lo, hi] is empty or too few ulps wide for a tick step."""
    ulp = math.ulp(max(abs(lo), abs(hi)))
    return hi if hi - lo > 16 * ulp else lo + max(1.0, 64 * ulp)


def _ticks(lo: float, hi: float, n: int = 5):
    """Round tick locations covering [lo, hi]."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        return [0.0, 1.0]
    hi = _top(lo, hi)
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def line_chart(series, title: str = "", xlabel: str = "", ylabel: str = "",
               logx: bool = False) -> str:
    """Render (name, xs, ys) series as an SVG 1.1 document string.

    Non-finite points break the polyline; the output depends only on the
    input values, so identical data produces identical bytes.
    """
    xs_all = [float(x) for _, xs, _ in series for x in xs if math.isfinite(x)]
    ys_all = [float(y) for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        # nothing to plot: a unit domain, one decade on a log axis
        xs_all, ys_all = ([1.0, 10.0] if logx else [0.0, 1.0]), [0.0, 1.0]
    fx = (lambda v: math.log10(v)) if logx else (lambda v: v)
    x_lo, x_hi = min(map(fx, xs_all)), max(map(fx, xs_all))
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_hi, y_hi = _top(x_lo, x_hi), _top(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    px = MARGIN_L
    pw = WIDTH - MARGIN_L - MARGIN_R
    py = MARGIN_T
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def sx(v):
        return px + pw * (fx(v) - x_lo) / (x_hi - x_lo)

    def sy(v):
        return py + ph * (1.0 - (v - y_lo) / (y_hi - y_lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
    ]
    # axes and ticks
    parts.append(f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="#333" stroke-width="1"/>')
    x_ticks = _ticks(x_lo, x_hi)
    for t in x_ticks:
        xpix = px + pw * (t - x_lo) / (x_hi - x_lo)
        lab = _fmt(10.0 ** t) if logx else _fmt(t)
        parts.append(f'<line x1="{xpix:.2f}" y1="{py + ph}" x2="{xpix:.2f}" '
                     f'y2="{py + ph + 5}" stroke="#333"/>')
        parts.append(f'<text x="{xpix:.2f}" y="{py + ph + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{lab}</text>')
    for t in _ticks(y_lo, y_hi):
        ypix = sy(t)
        parts.append(f'<line x1="{px - 5}" y1="{ypix:.2f}" x2="{px}" '
                     f'y2="{ypix:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{px - 8}" y="{ypix + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<text x="{px + pw / 2:.1f}" y="{HEIGHT - 8}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{xlabel}</text>')
    parts.append(f'<text x="16" y="{py + ph / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {py + ph / 2:.1f})">{ylabel}</text>')
    # series
    for k, (name, xs, ys) in enumerate(series):
        color = COLORS[k % len(COLORS)]
        segs, cur = [], []
        for x, y in zip(xs, ys):
            if math.isfinite(float(x)) and math.isfinite(float(y)):
                cur.append(f"{sx(float(x)):.2f},{sy(float(y)):.2f}")
            elif cur:
                segs.append(cur)
                cur = []
        if cur:
            segs.append(cur)
        for seg in segs:
            parts.append(f'<polyline points="{" ".join(seg)}" fill="none" '
                         f'stroke="{color}" stroke-width="1.6"/>')
        ly = MARGIN_T + 14 + 15 * k
        parts.append(f'<line x1="{px + pw - 150}" y1="{ly - 4}" x2="{px + pw - 128}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{px + pw - 122}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
