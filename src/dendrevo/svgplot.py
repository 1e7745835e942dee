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
_MARGIN_LEFT = 72
_MARGIN_RIGHT = 78
_MARGIN_TOP = 46
_MARGIN_BOTTOM = 58

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_FONT = 'font-family="Helvetica, Arial, sans-serif"'


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


class _Frame:
    """Maps data coordinates into the plot rectangle."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.left = _MARGIN_LEFT
        self.right = _WIDTH - _MARGIN_RIGHT
        self.top = _MARGIN_TOP
        self.bottom = _HEIGHT - _MARGIN_BOTTOM

    def x(self, v: float) -> float:
        frac = (v - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def y(self, v: float) -> float:
        frac = (v - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)


def _polyline(points: list[tuple[float, float]], color: str, dashed: bool) -> str:
    coords = " ".join(f"{_coord(x)},{_coord(y)}" for x, y in points)
    dash = ' stroke-dasharray="6,4"' if dashed else ""
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
    dash = ' stroke-dasharray="6,4"' if dashed else ""
    return (
        f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" '
        f'y2="{_coord(y2)}" stroke="{color}" stroke-width="{width}"{dash}/>'
    )


def _document(title: str, body: list[str]) -> str:
    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        _text(_WIDTH / 2, 24, title, size=15),
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _frame_axes(frame: _Frame, x_label: str, y_label: str) -> list[str]:
    parts = [
        _line(frame.left, frame.bottom, frame.right, frame.bottom),
        _line(frame.left, frame.top, frame.left, frame.bottom),
        _text((frame.left + frame.right) / 2, _HEIGHT - 16, x_label),
    ]
    for tick in _ticks(frame.y_lo, frame.y_hi):
        y = frame.y(tick)
        parts.append(_line(frame.left - 4, y, frame.left, y))
        parts.append(_text(frame.left - 8, y + 4, _label(tick), anchor="end", size=11))
    parts.append(
        f'<text x="18" y="{_coord((frame.top + frame.bottom) / 2)}" {_FONT} '
        f'font-size="12" text-anchor="middle" transform="rotate(-90 18 '
        f'{_coord((frame.top + frame.bottom) / 2)})">{_esc(y_label)}</text>'
    )
    return parts


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

    series: dict[str, list[tuple[int, float]]] = {}
    frac_series: dict[str, list[tuple[int, float]]] = {}
    for variant, gens in by_gen.items():
        points = sorted(gens.items())
        series[variant] = [(g, sum(mses) / len(mses)) for g, (mses, _) in points]
        frac_series[variant] = [(g, sum(fracs) / len(fracs)) for g, (_, fracs) in points]

    x_hi = max(g for pts in series.values() for g, _ in pts)
    y_hi = max(v for pts in series.values() for _, v in pts) * 1.05
    f_hi = max(v for pts in frac_series.values() for _, v in pts)
    f_hi = f_hi * 1.25 if f_hi > 0 else 1.0
    frame = _Frame(0.0, float(x_hi), 0.0, y_hi)
    frac_frame = _Frame(0.0, float(x_hi), 0.0, f_hi)

    body = _frame_axes(frame, "generation", "test MSE")
    for tick in _ticks(frame.x_lo, frame.x_hi):
        x = frame.x(tick)
        body.append(_line(x, frame.bottom, x, frame.bottom + 4))
        body.append(_text(x, frame.bottom + 18, _label(tick), size=11))
    # Secondary axis on the right for the gate fraction scale.
    body.append(_line(frame.right, frame.top, frame.right, frame.bottom))
    for tick in _ticks(frac_frame.y_lo, frac_frame.y_hi):
        y = frac_frame.y(tick)
        body.append(_line(frame.right, y, frame.right + 4, y))
        body.append(_text(frame.right + 8, y + 4, _label(tick), anchor="start", size=11))
    mid_y = (frame.top + frame.bottom) / 2
    body.append(
        f'<text x="{_WIDTH - 14}" y="{_coord(mid_y)}" {_FONT} font-size="12" '
        f'text-anchor="middle" transform="rotate(90 {_WIDTH - 14} '
        f'{_coord(mid_y)})">gate fraction (dashed)</text>'
    )

    for idx, variant in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        body.append(
            _polyline([(frame.x(g), frame.y(v)) for g, v in series[variant]], color, False)
        )
        body.append(
            _polyline(
                [(frac_frame.x(g), frac_frame.y(v)) for g, v in frac_series[variant]],
                color,
                True,
            )
        )
        ly = _MARGIN_TOP + 6 + 16 * idx
        body.append(_line(frame.left + 8, ly, frame.left + 30, ly, color, 2.0))
        body.append(_text(frame.left + 36, ly + 4, variant, anchor="start", size=11))
    return _document("error and gate use by generation", body)


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

    y_hi = max(hi for _n, _v, _s, _m, _lo, hi in rows) * 1.05
    frame = _Frame(-0.5, len(n_values) - 0.5, 0.0, y_hi)
    body = _frame_axes(frame, "inputs (n)", "MSE")
    for pos, n in enumerate(n_values):
        x = frame.x(pos)
        body.append(_line(x, frame.bottom, x, frame.bottom + 4))
        body.append(_text(x, frame.bottom + 18, str(n), size=11))

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
            x = frame.x(pos + offset)
            points.append((x, frame.y(mean)))
            body.append(_line(x, frame.y(lo), x, frame.y(hi), color, 1.0))
            body.append(_line(x - 3, frame.y(lo), x + 3, frame.y(lo), color, 1.0))
            body.append(_line(x - 3, frame.y(hi), x + 3, frame.y(hi), color, 1.0))
            body.append(
                f'<circle cx="{_coord(x)}" cy="{_coord(frame.y(mean))}" r="3" '
                f'fill="{color}"/>'
            )
        if len(points) > 1:
            body.append(_polyline(points, color, dashed))
        ly = _MARGIN_TOP + 6 + 16 * idx
        body.append(_line(frame.left + 8, ly, frame.left + 30, ly, color, 2.0, dashed))
        body.append(_text(frame.left + 36, ly + 4, f"{key[0]} {key[1]}", anchor="start", size=11))
    return _document("error by input size", body)
