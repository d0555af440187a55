"""SVG rendering sanity: structure, axis handling, absent values, and
the bytes of a fixed figure."""

import hashlib
from xml.dom import minidom

import pytest

from swarmtopo.harness import AggregateMetrics
from swarmtopo.svgplot import PlotSpec, X_AXES, Y_AXES, render_results_svg


def _row(topology_id, gsr, gs_time, fraction=0.0, length=2.0):
    return AggregateMetrics(
        topology_id=topology_id,
        topology_kind="ring",
        objective="shekel",
        death_fraction=fraction,
        repetitions=5,
        gsr=gsr,
        gs_time=gs_time,
        winners_mean=gsr * 100,
        trade_off=None,
        avg_path_length=length,
        natural_connectivity=1.5,
    )


class TestPlotSpec:
    def test_accepts_known_axes(self):
        for x in X_AXES:
            PlotSpec(x_axis=x, y_axes=Y_AXES)

    def test_rejects_unknown_axes(self):
        with pytest.raises(ValueError):
            PlotSpec(x_axis="banana", y_axes=("gsr",))
        with pytest.raises(ValueError):
            PlotSpec(x_axis="topology-index", y_axes=("banana",))
        with pytest.raises(ValueError):
            PlotSpec(x_axis="topology-index", y_axes=())


class TestRender:
    def test_panels_and_title(self):
        rows = [_row("a", 0.5, 100.0), _row("b", 0.8, 50.0, fraction=0.3)]
        svg = render_results_svg(
            rows, PlotSpec(x_axis="topology-index", y_axes=("gsr", "gs-time"), title="demo")
        )
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "demo" in svg
        assert svg.count('fill="none" stroke="#333333"') == 2  # one frame per panel

    def test_title_is_escaped(self):
        title = "GSR < 1 & more"
        svg = render_results_svg(
            [_row("a", 0.5, 100.0)],
            PlotSpec(x_axis="topology-index", y_axes=("gsr",), title=title),
        )
        texts = minidom.parseString(svg).getElementsByTagName("text")
        assert texts[0].firstChild.data == title

    def test_absent_values_are_skipped_not_drawn_at_zero(self):
        rows = [_row("a", 0.0, None), _row("b", 1.0, 77.0)]
        with_gap = render_results_svg(rows, PlotSpec(x_axis="topology-index", y_axes=("gs-time",)))
        only_b = render_results_svg(rows[1:], PlotSpec(x_axis="topology-index", y_axes=("gs-time",)))
        # the None row adds no markers to the gs-time panel
        assert with_gap.count("<circle") == only_b.count("<circle")

    def test_empty_rows_render(self):
        svg = render_results_svg([], PlotSpec(x_axis="avg-path-length", y_axes=("gsr",)))
        assert svg.startswith("<svg")

    def test_deterministic(self):
        rows = [_row("a", 0.25, 10.0), _row("b", 0.5, 20.0)]
        spec = PlotSpec(x_axis="natural-connectivity", y_axes=("winners",))
        assert render_results_svg(rows, spec) == render_results_svg(rows, spec)

    def test_distinct_death_fractions_distinct_markers(self):
        rows = [_row("a", 0.5, 10.0, fraction=0.0), _row("a2", 0.5, 12.0, fraction=0.3)]
        svg = render_results_svg(rows, PlotSpec(x_axis="topology-index", y_axes=("gsr",)))
        # legend names both fractions
        assert "death 0%" in svg and "death 30%" in svg


# every segment color and the neutral one, three death fractions, one
# topology drawn twice and one row without a path length, GS time or
# trade-off
_PINNED_ROWS = [
    AggregateMetrics("cp-a", "core-periphery", "shekel", 0.0, 4, 0.75, 120.5, 30.0, 0.61, 1.25, 9.5),
    AggregateMetrics("rcs-b", "ring-core-star", "shekel", 0.0, 4, 0.5, 310.0, 20.0, 0.42, 2.75, 3.125),
    AggregateMetrics("mr-c", "multi-ring", "shekel", 0.15, 4, 1.0, 88.25, 40.0, 0.7, 3.5, 4.0),
    AggregateMetrics("ring-d", "ring", "shekel", 0.15, 4, 0.0, None, 0.0, None, None, 1.75),
    AggregateMetrics("cp-a", "core-periphery", "shekel", 0.3, 4, 0.25, 400.0, 10.0, 0.1, 1.25, 9.5),
]

# sha256 of the figure with every y axis on each x axis: a change that
# moves a single byte of a figure fails here
_PINNED_SVG_SHA256 = {
    "topology-index": "98835d0c2905dba6382d9477c515181b689c84b160bd755b14d74a7e56c692a8",
    "avg-path-length": "8285a1d6b0e7095256938cbeccafa0a0aa86f07c301f424df94d4cffc9233454",
    "natural-connectivity": "42da8e6411055b9fd0933d2a2bafb5693c55ae0c9758114e1ea7849d525e1563",
}


@pytest.mark.parametrize("x_axis", X_AXES)
def test_pinned_figure_bytes(x_axis):
    svg = render_results_svg(_PINNED_ROWS, PlotSpec(x_axis=x_axis, y_axes=Y_AXES))
    assert hashlib.sha256(svg.encode()).hexdigest() == _PINNED_SVG_SHA256[x_axis]
