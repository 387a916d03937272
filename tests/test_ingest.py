import csv
import io
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdfit.ingest import (
    Series,
    WindowSpec,
    extract_window,
    histogram,
    load_presets,
    moving_average_7,
    parse_csv,
    preset_window,
)


def to_csv(series: list[Series]) -> str:
    """Serialize aligned Series back to CSV text (parse_csv round-trips it)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["date"] + [s.label for s in series])
    for k in range(len(series[0])):
        day = series[0].start_date + timedelta(days=k)
        writer.writerow([day.isoformat()] + [repr(float(s.values[k])) for s in series])
    return out.getvalue()


# zero-then-double reporting anomaly (Finland rows of the daily-cases table)
FINLAND_PATTERN = [293.0, 189.0, 266.0, 0.0, 412.0]


class TestParseCsv:
    def test_two_row_example(self):
        series = parse_csv("date,deaths\n2020-02-18,5\n2020-02-19,7\n")
        assert len(series) == 1
        deaths = series[0]
        assert deaths.label == "deaths"
        assert len(deaths) == 2
        assert deaths.start_date == date(2020, 2, 18)
        np.testing.assert_array_equal(deaths.values, [5.0, 7.0])

    def test_multiple_columns(self):
        text = "date,confirmed,recovered\n2020-03-01,10,2\n2020-03-02,12,3\n"
        series = parse_csv(text)
        assert [s.label for s in series] == ["confirmed", "recovered"]
        np.testing.assert_array_equal(series[1].values, [2.0, 3.0])

    def test_date_gap_is_named(self):
        text = "date,x\n2020-03-01,1\n2020-03-03,2\n"
        with pytest.raises(ValueError, match="2020-03-01.*2020-03-03"):
            parse_csv(text)

    def test_negative_count(self):
        with pytest.raises(ValueError, match="negative count"):
            parse_csv("date,x\n2020-03-01,-3\n")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e308", "1.0000000000000002e150"])
    def test_value_outside_the_rule_named(self, cell):
        with pytest.raises(ValueError, match=f"^row 3: value '{cell}' in column 'x' is not finite or above 1e\\+150$"):
            parse_csv(f"date,x\n2020-03-01,1\n2020-03-02,{cell}\n")

    def test_value_at_the_bound_accepted(self):
        [series] = parse_csv("date,x\n2020-03-01,1e150\n")
        assert series.values[0] == 1e150

    def test_malformed_date(self):
        with pytest.raises(ValueError, match="malformed date"):
            parse_csv("date,x\n03/01/2020,1\n")

    @pytest.mark.parametrize("day", ["20210101", "2021-W01-5"])
    def test_date_spelled_otherwise_than_yyyy_mm_dd_refused(self, day):
        # Python 3.11+'s date.fromisoformat alone would read these
        with pytest.raises(ValueError, match=f"^row 2: malformed date '{day}'$"):
            parse_csv(f"date,x\n{day},1\n")

    def test_missing_value(self):
        with pytest.raises(ValueError, match="missing value"):
            parse_csv("date,x,y\n2020-03-01,1,\n")

    def test_missing_date_header(self):
        with pytest.raises(ValueError, match="date"):
            parse_csv("day,x\n2020-03-01,1\n")

    def test_no_value_columns(self):
        with pytest.raises(ValueError, match="value column"):
            parse_csv("date\n2020-03-01\n")

    def test_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_csv("date,x,x\n2020-03-01,1,2\n")

    def test_non_numeric(self):
        with pytest.raises(ValueError, match="non-numeric"):
            parse_csv("date,x\n2020-03-01,many\n")

    def test_empty_input(self):
        with pytest.raises(ValueError, match="header"):
            parse_csv("")

    def test_oversized_cell_names_its_row(self):
        # the csv module refuses a cell past its field size limit (csv.Error)
        big = "1" * (csv.field_size_limit() + 1)
        with pytest.raises(ValueError, match=r"^row 3: field larger than field limit"):
            parse_csv(f"date,x\n2020-03-01,1\n2020-03-02,{big}\n")

    def test_leading_byte_order_mark_dropped(self):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF; one mark is dropped
        text = "date,x\n2020-03-01,1\n2020-03-02,2.5\n"
        (plain,), (marked,) = parse_csv(text), parse_csv("\ufeff" + text)
        assert (marked.label, marked.start_date) == (plain.label, plain.start_date)
        np.testing.assert_array_equal(marked.values, plain.values)
        with pytest.raises(ValueError, match="'date'"):
            parse_csv("\ufeff\ufeff" + text)

    def test_round_trip(self):
        series = [
            Series("confirmed", date(2020, 5, 1), np.array([1.0, 2.5, 3.0])),
            Series("deaths", date(2020, 5, 1), np.array([0.0, 0.125, 7.0])),
        ]
        parsed = parse_csv(to_csv(series))
        assert [s.label for s in parsed] == ["confirmed", "deaths"]
        for original, back in zip(series, parsed):
            assert back.start_date == original.start_date
            np.testing.assert_array_equal(back.values, original.values)


class TestSeries:
    def test_last_day_must_lie_in_the_calendar(self):
        assert Series("x", date(9999, 12, 22), np.ones(10)).end_date == date(9999, 12, 31)
        for start in (date(9999, 12, 23), date(9999, 12, 29)):
            with pytest.raises(ValueError, match=f"^a series of 10 days from {start} leaves the calendar$"):
                Series("x", start, np.ones(10))
        with pytest.raises(ValueError, match="^a series of 0 days from 0001-01-01 leaves the calendar$"):
            Series("x", date.min, np.ones(0))


class TestMovingAverage:
    def test_single_window_mean(self):
        raw = Series("x", date(2020, 11, 4), np.array(FINLAND_PATTERN + [100.0, 200.0]))
        smoothed = moving_average_7(raw)
        assert len(smoothed) == 1
        assert smoothed.values[0] == pytest.approx(1460.0 / 7.0)
        assert smoothed.start_date == date(2020, 11, 7)

    def test_constant_series_unchanged(self):
        raw = Series("x", date(2020, 1, 1), np.full(20, 37.0))
        smoothed = moving_average_7(raw)
        assert len(smoothed) == 14
        np.testing.assert_array_equal(smoothed.values, np.full(14, 37.0))

    def test_zero_day_anomaly_smoothed_away(self):
        values = [0.0] * 3 + FINLAND_PATTERN + [0.0] * 3
        raw = Series("x", date(2020, 11, 1), np.array(values))
        smoothed = moving_average_7(raw)
        assert (smoothed.values > 0.0).all()

    @pytest.mark.parametrize("values", [np.full(10, np.nan), np.ones((2, 7)), np.full(10, 2e150)])
    def test_values_held_to_the_rule(self, values):
        with pytest.raises(ValueError, match="one-dimensional|finite"):
            moving_average_7(Series("x", date(2020, 1, 1), values))

    def test_needs_seven_days(self):
        raw = Series("x", date(2020, 1, 1), np.arange(6, dtype=float))
        with pytest.raises(ValueError, match="at least 7"):
            moving_average_7(raw)

    def test_commutes_with_scaling(self):
        rng = np.random.default_rng(0)
        values = rng.random(30)
        raw = Series("x", date(2020, 1, 1), values)
        scaled = Series("x", date(2020, 1, 1), 4.0 * values)
        np.testing.assert_allclose(
            moving_average_7(scaled).values,
            4.0 * moving_average_7(raw).values,
            rtol=1e-12,
        )


class TestExtractWindow:
    @staticmethod
    def _smoothed(start: date, days: int):
        raw = Series("x", start - timedelta(days=3), np.arange(days + 6, dtype=float) + 1.0)
        return moving_average_7(raw)

    def test_exact_window(self):
        smoothed = self._smoothed(date(2021, 1, 1), 40)
        window = WindowSpec("custom", date(2021, 1, 5), date(2021, 1, 14))
        out = extract_window(smoothed, window)
        assert len(out) == 10
        assert out.start_date == window.begin
        assert out.end_date == window.end

    def test_degenerate_window(self):
        smoothed = self._smoothed(date(2021, 1, 1), 40)
        window = WindowSpec("custom", date(2021, 1, 7), date(2021, 1, 7))
        assert len(extract_window(smoothed, window)) == 1

    def test_shortfall_is_reported(self):
        smoothed = self._smoothed(date(2021, 1, 10), 10)
        window = WindowSpec("custom", date(2021, 1, 1), date(2021, 1, 15))
        with pytest.raises(ValueError, match="9 days short"):
            extract_window(smoothed, window)

    def test_end_past_data(self):
        smoothed = self._smoothed(date(2021, 1, 1), 10)
        window = WindowSpec("custom", date(2021, 1, 5), date(2021, 3, 1))
        with pytest.raises(ValueError, match="days short"):
            extract_window(smoothed, window)

    def test_italy_preset_needs_three_day_margins(self):
        window = preset_window("Italy")
        assert window.begin == date(2020, 2, 21)
        assert window.end == date(2021, 7, 4)
        raw = Series(
            "confirmed",
            date(2020, 2, 18),
            np.ones((date(2021, 7, 7) - date(2020, 2, 18)).days + 1),
        )
        out = extract_window(moving_average_7(raw), window)
        assert len(out) == 500
        assert out.start_date == date(2020, 2, 21)

        short_raw = Series("confirmed", date(2020, 2, 19), raw.values[1:])
        with pytest.raises(ValueError, match="short"):
            extract_window(moving_average_7(short_raw), window)


class TestHistogram:
    def test_proportional(self):
        smoothed = Series("x", date(2020, 1, 1), np.array([10.0, 30.0, 10.0]))
        hist = histogram(smoothed)
        np.testing.assert_allclose(hist.f, [0.2, 0.6, 0.2], atol=1e-15)
        assert hist.start_date == date(2020, 1, 1)

    def test_zero_total_rejected(self):
        smoothed = moving_average_7(Series("x", date(2020, 1, 1), np.zeros(10)))
        with pytest.raises(ValueError, match="zero total"):
            histogram(smoothed)

    @pytest.mark.parametrize(
        "values, match",
        [([10.0, -5.0, 30.0], "non-negative"), ([10.0, float("nan"), 30.0], "finite")],
    )
    def test_negative_and_non_finite_rejected(self, values, match):
        smoothed = Series("x", date(2020, 1, 1), np.array(values))
        with pytest.raises(ValueError, match=match):
            histogram(smoothed)

    def test_two_dimensional_values_rejected(self):
        smoothed = Series("a", date(2020, 1, 1), np.ones((3, 4)))
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(3, 4\)"):
            histogram(smoothed)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=8,
            max_size=60,
        ).filter(lambda vs: sum(vs) > 1.0)
    )
    def test_unit_sum_and_scale_invariance(self, values):
        raw = Series("x", date(2020, 1, 1), np.asarray(values))
        hist = histogram(moving_average_7(raw))
        assert hist.f.sum() == pytest.approx(1.0, abs=1e-12)
        assert (hist.f >= 0.0).all()
        scaled = Series("x", date(2020, 1, 1), 7.5 * np.asarray(values))
        np.testing.assert_allclose(
            histogram(moving_average_7(scaled)).f, hist.f, rtol=1e-12, atol=1e-15
        )


class TestPresets:
    def test_eighteen_countries(self):
        presets = load_presets()
        assert len(presets) == 18

    def test_all_windows_span_500_days(self):
        for window in load_presets().values():
            assert window.days == 500, window.country

    def test_italy_window(self):
        window = preset_window("italy")
        assert (window.begin, window.end) == (date(2020, 2, 21), date(2021, 7, 4))

    def test_case_insensitive(self):
        assert preset_window("ITALY") == preset_window("Italy")

    def test_unknown_country(self):
        with pytest.raises(ValueError, match="no preset window"):
            preset_window("Atlantis")
