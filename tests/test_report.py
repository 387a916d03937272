import xml.etree.ElementTree as ET
from datetime import date

import numpy as np
import pytest

from qdfit.ingest import WindowSpec
from qdfit.quasidist import Peak, QuasiDistribution
from qdfit.report import (
    FitReport,
    build_report,
    emit_json,
    emit_overlay_svg,
    emit_panel_svg,
    parse_report,
    series_color,
)

WINDOW = WindowSpec("Testland", date(2020, 3, 1), date(2020, 3, 10))
MARKUP_LABEL = "a&b <c>"


def _svg_texts(svg: str) -> list[str]:
    """Parse an SVG document and return the content of its text elements."""
    return [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]


def _report(**overrides) -> FitReport:
    values = np.array([0.05, 0.1, 0.3, 0.25, 0.3])
    quasi = QuasiDistribution(values, 1.25, 3.3, 1.21, [Peak(3, 0.3, 0.2)])
    base = build_report("confirmed", WINDOW, 0.42, 1.5e-7, quasi, [(0.4, 2e-7), (0.42, 1.5e-7)])
    if overrides:
        from dataclasses import replace

        base = replace(base, **overrides)
    return base


class TestBuildReport:
    def test_mean_date_offset(self):
        report = _report()
        # day 1 is the window start; mean 3.3 rounds to +2 days
        assert report.mean_date == date(2020, 3, 3)

    def test_diagnostics(self):
        values = np.array([-0.01, 0.5, -0.02, 0.53])
        quasi = QuasiDistribution(values, 1.0, 2.5, 1.0, [])
        report = build_report("x", WINDOW, 0.5, 0.0, quasi, [])
        assert report.min_value == pytest.approx(-0.02)
        assert report.negative_mass == pytest.approx(0.03)


class TestJson:
    def test_contains_fields(self):
        text = emit_json(_report())
        assert '"omega": 0.42' in text
        assert '"label": "confirmed"' in text
        assert '"mean_date": "2020-03-03"' in text

    def test_round_trip_bytes_identical(self):
        text = emit_json(_report())
        assert emit_json(parse_report(text)) == text

    def test_round_trip_preserves_floats_exactly(self):
        report = _report(mse=1 / 3, variance=2.0 / 7.0)
        back = parse_report(emit_json(report))
        assert back.mse == report.mse
        assert back.variance == report.variance

    def test_empty_peaks_key_present(self):
        report = _report(peaks=[])
        assert '"peaks": []' in emit_json(report)

    def test_infinite_scores_become_null(self):
        report = _report(omega_grid_scores=[(0.4, float("inf")), (0.5, 1e-6)])
        text = emit_json(report)
        assert "Infinity" not in text
        assert "null" in text
        back = parse_report(text)
        assert back.omega_grid_scores[0] == (0.4, float("inf"))
        assert emit_json(back) == text


class TestPanelSvg:
    def test_root_element_first(self):
        svg = emit_panel_svg(np.ones(10), np.ones(10), "confirmed", 0.5, 2.0)
        assert svg.startswith("<svg")

    def test_well_formed_xml(self):
        svg = emit_panel_svg(np.arange(10.0), np.arange(10.0) / 2, "recovered", 0.3, 12.5)
        ET.fromstring(svg)

    def test_two_polylines_histogram_green(self):
        svg = emit_panel_svg(np.ones(5), np.zeros(5), "unknown-series", 0.5, 2.0)
        assert svg.count("<polyline") == 2
        assert 'stroke="green"' in svg

    def test_confirmed_series_is_red(self):
        svg = emit_panel_svg(np.ones(5), np.zeros(5), "confirmed", 0.5, 2.0)
        assert 'stroke="red"' in svg

    def test_fatality_series_is_black(self):
        svg = emit_panel_svg(np.ones(5), np.zeros(5), "daily fatality cases", 0.5, 2.0)
        assert 'stroke="black"' in svg

    def test_polyline_has_n_points(self):
        n = 37
        svg = emit_panel_svg(np.ones(n), np.linspace(0, 1, n), "x", 0.5, 2.0)
        for line in svg.splitlines():
            if "<polyline" in line:
                coords = line.split('points="')[1].split('"')[0]
                assert len(coords.split()) == n

    def test_title_and_annotations(self):
        svg = emit_panel_svg(np.ones(5), np.ones(5), "recovered", omega=0.37, variance=9876.5)
        assert "recovered" in svg
        assert "omega = 0.37" in svg
        assert "Var = 9876.5" in svg

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            emit_panel_svg(np.ones(5), np.ones(6), "x", 0.5, 2.0)

    def test_label_markup_is_escaped(self):
        texts = _svg_texts(emit_panel_svg(np.ones(5), np.ones(5), MARKUP_LABEL, 0.5, 2.0))
        assert f"{MARKUP_LABEL}: histogram and quasi-distribution fit" in texts

    def test_deterministic(self):
        args = (np.linspace(0, 1, 20), np.linspace(1, 0, 20), "deaths", 0.5, 3.25)
        assert emit_panel_svg(*args) == emit_panel_svg(*args)


class TestOverlaySvg:
    def test_three_curves(self):
        curves = [
            ("confirmed", np.linspace(0, 1, 11)),
            ("recovered", np.linspace(0, 0.5, 11)),
            ("fatality", np.linspace(0, 0.25, 11)),
        ]
        svg = emit_overlay_svg(curves)
        ET.fromstring(svg)
        assert svg.count("<polyline") == 3
        for label in ("confirmed", "recovered", "fatality"):
            assert f">{label}</text>" in svg
        for color in ("red", "blue", "black"):
            assert f'stroke="{color}"' in svg

    def test_needs_two_curves(self):
        with pytest.raises(ValueError, match=">=2"):
            emit_overlay_svg([("solo", np.ones(5))])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            emit_overlay_svg([("a", np.ones(5)), ("b", np.ones(6))])

    def test_label_markup_is_escaped(self):
        texts = _svg_texts(emit_overlay_svg([(MARKUP_LABEL, np.ones(5)), ("b", np.ones(5))]))
        assert MARKUP_LABEL in texts and "b" in texts

    def test_identical_curves_coincide(self):
        values = np.linspace(0.0, 1.0, 9)
        svg = emit_overlay_svg([("first", values), ("second", values.copy())])
        coords = [
            line.split('points="')[1].split('"')[0]
            for line in svg.splitlines()
            if "<polyline" in line
        ]
        assert coords[0] == coords[1]


@pytest.mark.parametrize(
    "bad",
    [np.array([0.1, np.nan, 0.2]), np.array([0.1, np.inf, 0.2]), np.array([0.1, -np.inf, 0.2]),
     np.ones((3, 2)),
     np.array([1.75e308, 0.0, -1.0])],  # finite, but 1.05 times the maximum overflows
)
def test_emitters_reject_non_finite_and_two_dimensional_values(bad):
    good = np.ones(len(bad))
    calls = [
        lambda: emit_panel_svg(bad, good, "x", 0.5, 2.0),
        lambda: emit_panel_svg(good, bad, "x", 0.5, 2.0),
        lambda: emit_overlay_svg([("a", good), ("b", bad)]),
        lambda: emit_overlay_svg([("a", bad), ("b", good)]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite|shape|span"):
            call()


@pytest.mark.parametrize("omega, variance", [(np.nan, 2.0), (0.5, np.inf), (0.5, -np.nan)])
def test_panel_rejects_non_finite_note(omega, variance):
    # the note read "omega = nan" or "Var = inf"
    with pytest.raises(ValueError, match="omega and variance must be finite"):
        emit_panel_svg(np.ones(5), np.ones(5), "x", omega, variance)


def test_emitters_reject_empty_curves():
    # numpy refused the zero-size minimum in its own words
    for call in (
        lambda: emit_panel_svg([], [], "x", 0.5, 2.0),
        lambda: emit_overlay_svg([("a", []), ("b", [])]),
    ):
        with pytest.raises(ValueError, match="at least one value"):
            call()


class TestSeriesColor:
    def test_roles(self):
        assert series_color("daily confirmed cases") == "red"
        assert series_color("Recovered") == "blue"
        assert series_color("fatalities") == "black"
        assert series_color("deaths") == "black"

    def test_fallback_palette_by_position(self):
        assert series_color("mystery", 0) == "red"
        assert series_color("mystery", 1) == "blue"
        assert series_color("mystery", 2) == "black"
