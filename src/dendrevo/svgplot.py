"""Minimal deterministic SVG charts.

Two figures cover the reporting needs: a per-generation trace chart
(mean test error per variant, with mean gate fraction on a secondary
axis) and an input-size sweep chart (mean error with min/max whiskers).
Output is plain SVG text built with fixed number formatting, so the same
inputs always produce byte-identical files.
"""

from __future__ import annotations

import math
from collections import defaultdict

_WIDTH = 720
_HEIGHT = 440
# Edges of the plot rectangle in pixels.
_LEFT = 72
_RIGHT = _WIDTH - 78
_TOP = 46
_BOTTOM = _HEIGHT - 58

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_FONT = 'font-family="Helvetica, Arial, sans-serif"'
_DASH = ' stroke-dasharray="6,4"'


def _coord(x: float) -> str:
    return f"{x:.2f}"


def _label(value: float) -> str:
    return f"{value:.4g}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float) -> list[float]:
    """About five round tick positions covering [lo, hi]: 1/2/5 times a power of ten."""
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [i * step for i in range(first, last + 1)]


def _axis(lo: float, hi: float, start: float, end: float):
    """Map data [lo, hi] onto pixels start..end, with the ticks of that range.

    An empty range widens to one unit, for the map and the ticks alike.
    """
    if hi <= lo:
        hi = lo + 1.0
    return (lambda v: start + (v - lo) / (hi - lo) * (end - start)), _ticks(lo, hi)


def _polyline(points: list[tuple[float, float]], color: str, dashed: bool) -> str:
    coords = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in points)
    dash = _DASH if dashed else ""
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{dash} '
        f'points="{coords}"/>'
    )


def _text(x: float, y: float, s: str, anchor: str = "middle", size: int = 12) -> str:
    return (
        f'<text x="{_coord(x)}" y="{_coord(y)}" {_FONT} font-size="{size}" '
        f'text-anchor="{anchor}">{_esc(s)}</text>'
    )


def _line(x1, y1, x2, y2, color="#333333", width=1.0, dashed=False) -> str:
    dash = _DASH if dashed else ""
    return (
        f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" '
        f'y2="{_coord(y2)}" stroke="{color}" stroke-width="{width}"{dash}/>'
    )


def _tick_column(y, ticks: list[float], x: int, side: int) -> list[str]:
    """Ticks and labels of a y axis at x, facing left (side -1) or right (+1)."""
    anchor = "end" if side < 0 else "start"
    parts = []
    for tick in ticks:
        parts.append(_line(x + 4 * min(side, 0), y(tick), x + 4 * max(side, 0), y(tick)))
        parts.append(_text(x + 8 * side, y(tick) + 4, _label(tick), anchor=anchor, size=11))
    return parts


def _axis_title(x: int, s: str, angle: int) -> str:
    """A y axis title at x (an int, written bare), turned by angle degrees about its centre."""
    mid = _coord((_TOP + _BOTTOM) / 2)
    return (
        f'<text x="{x}" y="{mid}" {_FONT} font-size="12" text-anchor="middle" '
        f'transform="rotate({angle} {x} {mid})">{_esc(s)}</text>'
    )


def _legend(idx: int, color: str, name: str, dashed: bool = False) -> list[str]:
    ly = _TOP + 6 + 16 * idx
    return [
        _line(_LEFT + 8, ly, _LEFT + 30, ly, color, 2.0, dashed),
        _text(_LEFT + 36, ly + 4, name, anchor="start", size=11),
    ]


def _chart(title, x_label, x_ticks, y_label, y, y_ticks, body: list[str]) -> str:
    """The document: head, frame, left y axis, x ticks at (pixel, label), then body."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        _text(_WIDTH / 2, 24, title, size=15),
        _line(_LEFT, _BOTTOM, _RIGHT, _BOTTOM),
        _line(_LEFT, _TOP, _LEFT, _BOTTOM),
        _text((_LEFT + _RIGHT) / 2, _HEIGHT - 16, x_label),
        *_tick_column(y, y_ticks, _LEFT, -1),
        _axis_title(18, y_label, -90),
    ]
    for x, label in x_ticks:
        parts.append(_line(x, _BOTTOM, x, _BOTTOM + 4))
        parts.append(_text(x, _BOTTOM + 18, label, size=11))
    return "\n".join(parts + body + ["</svg>"]) + "\n"


def trace_chart(rows) -> str:
    """Chart a trace table: (variant, run, record) rows.

    Per variant, the solid line is the run-mean of best test MSE by
    generation against the left axis; the dashed line is the run-mean of
    the best genome's gate fraction against the right axis.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no data rows to plot")
    # variant -> generation -> ([test MSE], [gate fraction]), variants in first-seen order
    by_gen = defaultdict(lambda: defaultdict(lambda: ([], [])))
    for variant, _run, rec in rows:
        mses, fracs = by_gen[variant][rec.generation]
        mses.append(rec.best_test_mse)
        fracs.append(rec.best_gate_fraction)
    # variant -> [(generation, mean test MSE, mean gate fraction)] by generation
    means = {
        variant: [(g, sum(m) / len(m), sum(f) / len(f)) for g, (m, f) in sorted(gens.items())]
        for variant, gens in by_gen.items()
    }
    points = [p for pts in means.values() for p in pts]
    f_hi = max(f for _, _, f in points)
    x, g_ticks = _axis(0.0, float(max(g for g, _, _ in points)), _LEFT, _RIGHT)
    y, y_ticks = _axis(0.0, max(m for _, m, _ in points) * 1.05, _BOTTOM, _TOP)
    fy, f_ticks = _axis(0.0, f_hi * 1.25 if f_hi > 0 else 1.0, _BOTTOM, _TOP)

    # Secondary axis on the right for the gate fraction scale.
    body = [_line(_RIGHT, _TOP, _RIGHT, _BOTTOM), *_tick_column(fy, f_ticks, _RIGHT, 1)]
    body.append(_axis_title(_WIDTH - 14, "gate fraction (dashed)", 90))
    for idx, (variant, pts) in enumerate(means.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        body.append(_polyline([(x(g), y(m)) for g, m, _ in pts], color, False))
        body.append(_polyline([(x(g), fy(f)) for g, _, f in pts], color, True))
        body += _legend(idx, color, variant)
    x_ticks = [(x(tick), _label(tick)) for tick in g_ticks]
    return _chart(
        "error and gate use by generation", "generation", x_ticks, "test MSE", y, y_ticks, body
    )


def sweep_chart(rows) -> str:
    """Chart sweep rows: (n, variant, split, mean, min, max).

    Input sizes sit at evenly spaced positions in first-appearance
    order; each (variant, split) series draws its mean markers joined by
    a line (dashed for train) with min..max whiskers, offset slightly so
    overlapping bars stay readable.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no data rows to plot")
    # (variant, split) -> n -> (mean, lo, hi); series and ticks in first-seen order
    data: dict[tuple[str, str], dict[int, tuple[float, float, float]]] = defaultdict(dict)
    for n, variant, split, mean, lo, hi in rows:
        data[(variant, split)][n] = (mean, lo, hi)
    n_values = list(dict.fromkeys(n for n, *_ in rows))
    series_keys = list(data)

    x, _ = _axis(-0.5, len(n_values) - 0.5, _LEFT, _RIGHT)
    y, y_ticks = _axis(0.0, max(hi for *_, hi in rows) * 1.05, _BOTTOM, _TOP)
    body = []
    width = min(0.36, 0.8 / max(len(series_keys), 1))
    for idx, key in enumerate(series_keys):
        color = _PALETTE[idx % len(_PALETTE)]
        offset = (idx - (len(series_keys) - 1) / 2) * width / 2
        dashed = key[1] == "train"
        points = []
        for pos, n in enumerate(n_values):
            if n not in data[key]:
                continue
            mean, lo, hi = data[key][n]
            px = x(pos + offset)
            points.append((px, y(mean)))
            body.append(_line(px, y(lo), px, y(hi), color, 1.0))
            body.append(_line(px - 3, y(lo), px + 3, y(lo), color, 1.0))
            body.append(_line(px - 3, y(hi), px + 3, y(hi), color, 1.0))
            body.append(f'<circle cx="{_coord(px)}" cy="{_coord(y(mean))}" r="3" fill="{color}"/>')
        if len(points) > 1:
            body.append(_polyline(points, color, dashed))
        body += _legend(idx, color, f"{key[0]} {key[1]}", dashed)
    x_ticks = [(x(pos), str(n)) for pos, n in enumerate(n_values)]
    return _chart("error by input size", "inputs (n)", x_ticks, "MSE", y, y_ticks, body)
