"""Tests for the deterministic SVG chart builders."""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from dendrevo.evolve import TraceRecord
from dendrevo.svgplot import _ticks, sweep_chart, trace_chart


def record(generation: int, mse: float, fraction: float) -> TraceRecord:
    return TraceRecord(
        generation=generation,
        best_train_mse=mse,
        best_test_mse=mse,
        best_gate_fraction=fraction,
        mean_gate_fraction=fraction,
    )


def trace_rows():
    rows = [("standard", 0, record(g, 0.08 - 0.01 * g, 0.0)) for g in range(4)]
    rows += [("dendrite", 0, record(g, 0.06 - 0.01 * g, 0.02 * g)) for g in range(4)]
    return rows


def sweep_rows():
    return [
        (25, "standard", "test", 0.040, 0.030, 0.050),
        (25, "standard", "train", 0.030, 0.020, 0.040),
        (50, "standard", "test", 0.020, 0.015, 0.030),
        (50, "standard", "train", 0.018, 0.012, 0.025),
    ]


def named(svg: str, name: str) -> list[ET.Element]:
    # ElementTree namespaces every tag; match on the local part.
    root = ET.fromstring(svg)
    return [el for el in root.iter() if el.tag.rsplit("}", 1)[-1] == name]


def test_ticks_land_on_round_steps():
    assert _ticks(0.0, 1.0) == pytest.approx([0.0, 0.2, 0.4, 0.6, 0.8, 1.0])
    assert _ticks(0.0, 0.003) == pytest.approx([0.0, 0.001, 0.002, 0.003])
    assert _ticks(0.0, 0.0) == [0.0]


def test_trace_chart_is_wellformed_svg():
    svg = trace_chart(trace_rows())
    root = ET.fromstring(svg)
    assert root.tag.rsplit("}", 1)[-1] == "svg"
    assert root.get("width") == "720"
    assert root.get("height") == "440"


def test_trace_chart_draws_solid_and_dashed_line_per_variant():
    polylines = named(trace_chart(trace_rows()), "polyline")
    solid = [p for p in polylines if p.get("stroke-dasharray") is None]
    dashed = [p for p in polylines if p.get("stroke-dasharray") is not None]
    assert len(solid) == 2 and len(dashed) == 2
    # The gate-fraction line reuses its variant's colour.
    assert {p.get("stroke") for p in solid} == {p.get("stroke") for p in dashed}
    assert len({p.get("stroke") for p in solid}) == 2


def test_trace_chart_legend_names_each_variant_once():
    texts = [el.text for el in named(trace_chart(trace_rows()), "text")]
    assert texts.count("standard") == 1
    assert texts.count("dendrite") == 1


def test_trace_chart_averages_across_runs():
    # Two runs mirrored around 0.02 must chart exactly like one constant
    # run at 0.02: the document is a function of the per-generation mean.
    mirrored = [
        ("standard", run, record(g, 0.02 + offset, 0.0))
        for run, offset in ((0, 0.01), (1, -0.01))
        for g in range(3)
    ]
    flat = [("standard", 0, record(g, 0.02, 0.0)) for g in range(3)]
    assert trace_chart(mirrored) == trace_chart(flat)


def test_trace_chart_is_deterministic():
    rows = trace_rows()
    assert trace_chart(rows) == trace_chart(rows)


def test_trace_chart_escapes_markup_in_variant_names():
    rows = [("a<b&c", 0, record(g, 0.1, 0.0)) for g in range(2)]
    svg = trace_chart(rows)
    ET.fromstring(svg)
    assert "&lt;b&amp;c" in svg


def test_trace_chart_rejects_empty_input():
    with pytest.raises(ValueError, match="no data rows"):
        trace_chart([])


def test_sweep_chart_marks_each_measurement():
    svg = sweep_chart(sweep_rows())
    ET.fromstring(svg)
    assert len(named(svg, "circle")) == 4


def test_sweep_chart_draws_whiskers_with_caps():
    svg = sweep_chart(sweep_rows())
    # First series: stem plus two caps per point, at stroke-width 1.0;
    # the legend swatch for the same colour is wider and excluded.
    colour = named(svg, "circle")[0].get("fill")
    whiskers = [
        el
        for el in named(svg, "line")
        if el.get("stroke") == colour and el.get("stroke-width") == "1.0"
    ]
    assert len(whiskers) == 6


def test_sweep_chart_dashes_train_series_only():
    polylines = named(sweep_chart(sweep_rows()), "polyline")
    assert len(polylines) == 2
    test_line, train_line = polylines
    assert test_line.get("stroke-dasharray") is None
    assert train_line.get("stroke-dasharray") == "6,4"


def test_sweep_chart_legend_labels_variant_and_split():
    texts = [el.text for el in named(sweep_chart(sweep_rows()), "text")]
    assert "standard test" in texts
    assert "standard train" in texts


def test_sweep_chart_single_point_has_marker_but_no_line():
    svg = sweep_chart([(25, "standard", "test", 0.04, 0.03, 0.05)])
    assert len(named(svg, "circle")) == 1
    assert named(svg, "polyline") == []


def test_sweep_chart_is_deterministic():
    rows = sweep_rows()
    assert sweep_chart(rows) == sweep_chart(rows)


def test_sweep_chart_rejects_empty_input():
    with pytest.raises(ValueError, match="no data rows"):
        sweep_chart([])
