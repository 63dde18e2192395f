"""Minimal SVG line chart for comparing index series.

Data-first output is the tidy CSV; this renderer only exists so a
comparison run can drop a self-contained picture next to it without
pulling in a plotting stack.
"""

from __future__ import annotations

from typing import Sequence

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH = 960
_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 56


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    span = hi - lo
    return [lo + span * i / (count - 1) for i in range(count)]


def render_line_chart(
    months: Sequence[str],
    series: Sequence[tuple[str, Sequence[float]]],
    title: str = "index comparison",
) -> str:
    """Render one polyline per (name, values) series over shared months."""
    # imported here: xml.sax loads urllib.request and ssl, several MB that
    # every other command would carry
    from xml.sax.saxutils import escape

    if not months or not series:
        raise ValueError("nothing to plot")
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    all_values = [v for _, values in series for v in values]
    lo, hi = min(all_values), max(all_values)
    if hi == lo:
        lo, hi = lo - 1.0, hi + 1.0

    def x_at(i: int) -> float:
        if len(months) == 1:
            return _MARGIN_LEFT + plot_w / 2
        return _MARGIN_LEFT + plot_w * i / (len(months) - 1)

    def y_at(v: float) -> float:
        return _MARGIN_TOP + plot_h * (1 - (v - lo) / (hi - lo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="16" text-anchor="middle">{escape(title)}</text>',
    ]
    for tick in _ticks(lo, hi):
        y = y_at(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.1f}" x2="{_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{y:.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{y + 4:.1f}" text-anchor="end">{tick:.1f}</text>'
        )
    label_step = max(1, len(months) // 8)
    for i in range(0, len(months), label_step):
        x = x_at(i)
        parts.append(
            f'<text x="{x:.1f}" y="{_HEIGHT - _MARGIN_BOTTOM + 18}" '
            f'text-anchor="middle">{escape(months[i])}</text>'
        )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="#333333"/>'
    )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{_HEIGHT - _MARGIN_BOTTOM}" '
        f'x2="{_WIDTH - _MARGIN_RIGHT}" y2="{_HEIGHT - _MARGIN_BOTTOM}" stroke="#333333"/>'
    )
    for idx, (name, values) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(
            f"{x_at(i):.1f},{y_at(v):.1f}" for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )
        legend_y = _MARGIN_TOP + 16 * idx
        parts.append(
            f'<line x1="{_WIDTH - 180}" y1="{legend_y:.1f}" x2="{_WIDTH - 156}" '
            f'y2="{legend_y:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{_WIDTH - 150}" y="{legend_y + 4:.1f}">{escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
