"""Tiny scatter-plot SVG emitter for results tables.

No plotting dependency: axes, ticks, markers and legends are written
directly as SVG elements.  Output is deterministic for equal input.

Points are colored by which spectrum segment their topology kind
belongs to (core-periphery red, ring-core-star blue, multi-ring
green, everything else gray) and markers distinguish death-fraction
series.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

__all__ = ["X_AXES", "Y_AXES", "PlotSpec", "render_results_svg"]

# axis name -> (label, value of a results row); a topology's index is
# the order in which its id first appears in the rows
_X_AXIS = {
    "topology-index": ("topology index", lambda row, order: float(order[row.topology_id])),
    "avg-path-length": ("average path length", lambda row, order: row.avg_path_length),
    "natural-connectivity": ("natural connectivity", lambda row, order: row.natural_connectivity),
}
_Y_AXIS = {
    "gsr": ("GSR", lambda row: row.gsr),
    "gs-time": ("GS time", lambda row: row.gs_time),
    "winners": ("winners", lambda row: row.winners_mean),
    "trade-off": ("trade-off", lambda row: row.trade_off),
}
X_AXES = tuple(_X_AXIS)
Y_AXES = tuple(_Y_AXIS)

_SEGMENT_COLORS = {
    "core-periphery": "#d62728",   # complete-to-star
    "ring-core-star": "#1f77b4",   # star-to-ring
    "multi-ring": "#2ca02c",       # ring-to-complete
}
_NEUTRAL_COLOR = "#777777"
_MARKER_SHAPES = ("circle", "triangle", "square", "diamond", "cross")

_PANEL_WIDTH = 640
_PANEL_HEIGHT = 240
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 20
_MARGIN_TOP = 12
_MARGIN_BOTTOM = 42
_LEGEND_HEIGHT = 24


@dataclass(frozen=True)
class PlotSpec:
    """What to draw: one x axis, one panel per y axis."""

    x_axis: str = "topology-index"
    y_axes: tuple[str, ...] = ("gsr",)
    title: str | None = None

    def __post_init__(self) -> None:
        if self.x_axis not in X_AXES:
            raise ValueError(f"unknown x axis {self.x_axis!r}; expected one of {X_AXES}")
        object.__setattr__(self, "y_axes", tuple(self.y_axes))
        if not self.y_axes:
            raise ValueError("need at least one y axis")
        for axis in self.y_axes:
            if axis not in Y_AXES:
                raise ValueError(f"unknown y axis {axis!r}; expected one of {Y_AXES}")


def _fmt(value: float) -> str:
    # stable short formatting for coordinates and tick labels
    return f"{value:.6g}"


def _nice_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    raw_step = (hi - lo) / max(target - 1, 1)
    magnitude = 10.0 ** math.floor(math.log10(raw_step))
    for multiplier in (1.0, 2.0, 5.0, 10.0):
        step = multiplier * magnitude
        if step >= raw_step:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    value = first
    while value <= hi + step * 1e-9:
        ticks.append(round(value, 12))
        value += step
    return ticks


def _marker_svg(shape: str, x: float, y: float, color: str) -> str:
    r = 3.5
    if shape == "circle":
        return (
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="{r}" fill="{color}" '
            f'fill-opacity="0.75"/>'
        )
    if shape == "triangle":
        pts = f"{_fmt(x)},{_fmt(y - r)} {_fmt(x - r)},{_fmt(y + r)} {_fmt(x + r)},{_fmt(y + r)}"
        return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.75"/>'
    if shape == "square":
        return (
            f'<rect x="{_fmt(x - r)}" y="{_fmt(y - r)}" width="{2 * r}" '
            f'height="{2 * r}" fill="{color}" fill-opacity="0.75"/>'
        )
    if shape == "diamond":
        pts = (
            f"{_fmt(x)},{_fmt(y - r)} {_fmt(x + r)},{_fmt(y)} "
            f"{_fmt(x)},{_fmt(y + r)} {_fmt(x - r)},{_fmt(y)}"
        )
        return f'<polygon points="{pts}" fill="{color}" fill-opacity="0.75"/>'
    return (
        f'<path d="M {_fmt(x - r)} {_fmt(y)} H {_fmt(x + r)} M {_fmt(x)} '
        f'{_fmt(y - r)} V {_fmt(y + r)}" stroke="{color}" stroke-width="1.6"/>'
    )


def _scale(lo: float, hi: float, pixel_lo: float, pixel_hi: float):
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo

    def to_pixel(value: float) -> float:
        return pixel_lo + (value - lo) / span * (pixel_hi - pixel_lo)

    return to_pixel


def render_results_svg(rows, plot: PlotSpec) -> str:
    """Render results rows (AggregateMetrics-shaped) to an SVG string."""
    topology_order: dict[str, int] = {}
    for row in rows:
        if row.topology_id not in topology_order:
            topology_order[row.topology_id] = len(topology_order)
    fractions = sorted({row.death_fraction for row in rows})
    shape_of = {
        fraction: _MARKER_SHAPES[i % len(_MARKER_SHAPES)]
        for i, fraction in enumerate(fractions)
    }

    title_height = 22 if plot.title else 0
    total_width = _MARGIN_LEFT + _PANEL_WIDTH + _MARGIN_RIGHT
    panel_block = _MARGIN_TOP + _PANEL_HEIGHT + _MARGIN_BOTTOM
    total_height = title_height + _LEGEND_HEIGHT + panel_block * len(plot.y_axes)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{total_width}" '
        f'height="{total_height}" viewBox="0 0 {total_width} {total_height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<rect width="{total_width}" height="{total_height}" fill="white"/>',
    ]
    if plot.title:
        # imported here: saxutils pulls in urllib.request, which would
        # add ~40 ms and ~2.5 MB to every `import swarmtopo`
        from xml.sax.saxutils import escape

        parts.append(
            f'<text x="{total_width / 2}" y="15" text-anchor="middle" '
            f'font-size="13">{escape(plot.title)}</text>'
        )

    # legend: death-fraction markers, then segment colors
    legend_y = title_height + 14
    cursor = _MARGIN_LEFT
    for fraction in fractions:
        parts.append(_marker_svg(shape_of[fraction], cursor, legend_y - 3, "#333333"))
        label = f"death {_fmt(fraction * 100)}%"
        parts.append(f'<text x="{cursor + 8}" y="{legend_y}">{label}</text>')
        cursor += 14 + 7 * len(label)
    for kind, color in _SEGMENT_COLORS.items():
        parts.append(
            f'<rect x="{cursor}" y="{legend_y - 9}" width="8" height="8" fill="{color}"/>'
        )
        parts.append(f'<text x="{cursor + 12}" y="{legend_y}">{kind}</text>')
        cursor += 26 + 7 * len(kind)

    x_label, x_value = _X_AXIS[plot.x_axis]
    for panel_index, y_axis in enumerate(plot.y_axes):
        y_label, y_value = _Y_AXIS[y_axis]
        top = title_height + _LEGEND_HEIGHT + panel_block * panel_index + _MARGIN_TOP
        bottom = top + _PANEL_HEIGHT
        left = _MARGIN_LEFT
        right = left + _PANEL_WIDTH

        points = []
        for row in rows:
            x_val = x_value(row, topology_order)
            y_val = y_value(row)
            if x_val is None or y_val is None:
                continue
            points.append((float(x_val), float(y_val), row))
        if points:
            x_lo = min(p[0] for p in points)
            x_hi = max(p[0] for p in points)
            y_lo = min(p[1] for p in points)
            y_hi = max(p[1] for p in points)
        else:
            x_lo, x_hi, y_lo, y_hi = 0.0, 1.0, 0.0, 1.0
        x_pad = (x_hi - x_lo) * 0.04 or 0.5
        y_pad = (y_hi - y_lo) * 0.06 or 0.5
        x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
        y_lo, y_hi = y_lo - y_pad, y_hi + y_pad
        to_px = _scale(x_lo, x_hi, left, right)
        to_py = _scale(y_lo, y_hi, bottom, top)

        parts.append(
            f'<rect x="{left}" y="{top}" width="{_PANEL_WIDTH}" '
            f'height="{_PANEL_HEIGHT}" fill="none" stroke="#333333"/>'
        )
        for tick in _nice_ticks(x_lo, x_hi):
            if not x_lo <= tick <= x_hi:
                continue
            px = to_px(tick)
            parts.append(
                f'<line x1="{_fmt(px)}" y1="{bottom}" x2="{_fmt(px)}" '
                f'y2="{bottom + 4}" stroke="#333333"/>'
            )
            parts.append(
                f'<text x="{_fmt(px)}" y="{bottom + 16}" text-anchor="middle">'
                f"{_fmt(tick)}</text>"
            )
        for tick in _nice_ticks(y_lo, y_hi):
            if not y_lo <= tick <= y_hi:
                continue
            py = to_py(tick)
            parts.append(
                f'<line x1="{left - 4}" y1="{_fmt(py)}" x2="{left}" '
                f'y2="{_fmt(py)}" stroke="#333333"/>'
            )
            parts.append(
                f'<text x="{left - 7}" y="{_fmt(py + 3.5)}" text-anchor="end">'
                f"{_fmt(tick)}</text>"
            )
        parts.append(
            f'<text x="{(left + right) / 2}" y="{bottom + 32}" text-anchor="middle">'
            f"{x_label}</text>"
        )
        parts.append(
            f'<text x="{left - 48}" y="{(top + bottom) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 {left - 48} {(top + bottom) / 2})">'
            f"{y_label}</text>"
        )
        for x_val, y_val, row in points:
            color = _SEGMENT_COLORS.get(row.topology_kind, _NEUTRAL_COLOR)
            parts.append(
                _marker_svg(
                    shape_of[row.death_fraction], to_px(x_val), to_py(y_val), color
                )
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
