"""One value rule at every root entry point.

`ingest._check_values` holds every entry point's values to one dimension,
finiteness and magnitude at most `ingest.MAX_MAGNITUDE` (1e150).  Fed NaN,
+-inf, magnitudes near and above the bound, 2-D and empty arrays, each
entry point that `qdfit` exports, and each of the stages
`fitting.chord_length_params`, `quasidist.find_peaks` and
`quasidist.moments`, must return a result, raise `IllConditionedError`
(`fit` only), or raise a ValueError whose innermost frame lies in qdfit's
own source: never numpy's or json's error, and never a RuntimeWarning,
which pyproject.toml turns into an error.
"""

import math
import traceback
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qdfit
from qdfit import (
    IllConditionedError,
    PiecewiseCurve,
    Series,
    WindowSpec,
    build_report,
    emit_json,
    emit_overlay_svg,
    emit_panel_svg,
    extract_window,
    fit,
    histogram,
    moving_average_7,
    parse_csv,
    quasi_distribution,
)
from qdfit.fitting import chord_length_params
from qdfit.ingest import MAX_MAGNITUDE, _check_values
from qdfit.quasidist import find_peaks, moments

SOURCE = Path(qdfit.__file__).resolve().parent
START = date(2021, 1, 1)
ABOVE = float(np.nextafter(MAX_MAGNITUDE, math.inf))  # the next double above the bound

SPECIAL = st.sampled_from(
    [math.nan, math.inf, -math.inf, MAX_MAGNITUDE, -MAX_MAGNITUDE, ABOVE, -ABOVE, 1e200, 1e308, -1.0, 0.0]
)
scalars = st.one_of(st.floats(min_value=0.01, max_value=0.99), SPECIAL)
ONE_DAY = WindowSpec("custom", START, START)


@st.composite
def arrays(draw, elements=st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=70):
    """Plausible values with up to three special ones put in, as a row, a
    column or two stacked rows."""
    size = draw(st.integers(min_size, max_size))
    values = np.array(draw(st.lists(elements, min_size=size, max_size=size)), dtype=float)
    if size:
        for _ in range(draw(st.integers(0, 3))):
            values[draw(st.integers(0, size - 1))] = draw(SPECIAL)
    form = draw(st.sampled_from(["row", "row", "row", "column", "stacked"]))
    return {"row": values, "column": values[:, None], "stacked": np.stack([values, values])}[form]


def _outcome(call, refusals=()):
    """call()'s result, or None if it raised one of `refusals` or a
    ValueError from qdfit's own source."""
    try:
        return call()
    except refusals:
        return None
    except ValueError as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        where = Path(frame.filename).resolve()
        assert where.is_relative_to(SOURCE), f"ValueError from {where}:{frame.lineno}: {exc}"
        return None


def _drawn(svg):
    """An SVG, if the emitter returned one, holds no NaN or inf."""
    assert svg is None or not any(word in svg for word in ("nan", "inf"))


def _csv(columns):
    """CSV text with one column per row of `columns`, from START on."""
    header = "date," + ",".join(f"c{j}" for j in range(len(columns))) + "\n"
    return header + "".join(
        f"{START + timedelta(days=k)}," + ",".join(repr(float(v)) for v in row) + "\n"
        for k, row in enumerate(np.transpose(columns))
    )


@given(arrays())
@example(np.array([1.0, 1e308, 1.0]))
def test_parse_csv(values):
    _outcome(lambda: parse_csv(_csv(np.atleast_2d(values))))


@given(arrays(), st.one_of(st.just(START), st.dates()))
@example(np.r_[np.ones(10), 1e308, np.ones(9), 1e308, np.ones(10)], START)
@example(np.full(2, 1e308), START)
@example(np.ones(10), date(9999, 12, 25))  # the last day leaves the calendar
@example(np.ones(10), date(9999, 12, 29))  # and so would the smoothed start
@example(np.array([]), date.min)
def test_series_stages(values, start):
    series = _outcome(lambda: Series("x", start, values))
    if series is None:
        return
    _outcome(lambda: moving_average_7(series))
    _outcome(lambda: extract_window(series, WindowSpec("custom", start, series.end_date)))
    _outcome(lambda: histogram(series))


@settings(deadline=None)
@given(arrays())
@example(np.full(40, 1e200))
@example(np.full(2, 1e308))
@example(np.r_[np.zeros(30), MAX_MAGNITUDE, np.zeros(30)])
def test_fit_and_its_report(values):
    result = _outcome(lambda: fit(values), IllConditionedError)
    if result is None:
        return
    quasi = _outcome(lambda: quasi_distribution(result.discretized))
    if quasi is None:
        return
    report = _outcome(
        lambda: build_report("x", ONE_DAY, result.omega, result.mse, quasi, result.omega_grid_scores)
    )
    if report is not None:
        emit_json(report)
    _drawn(_outcome(lambda: emit_panel_svg(values, result.discretized, "x", result.omega, quasi.variance)))


@given(
    scalars,
    arrays(st.floats(min_value=-10.0, max_value=10.0), min_size=58, max_size=58),
    arrays(st.floats(min_value=0.0, max_value=1.0), max_size=10),
)
@example(2.0, np.zeros(58), np.array([0.5]))
@example(0.5, np.full(58, np.nan), np.array([0.5]))
def test_piecewise_curve(omega, controls, ts):
    if controls.ndim == 1:
        controls = controls.reshape(29, 2)
    curve = _outcome(lambda: PiecewiseCurve(omega, controls))
    if curve is not None:
        # a curve that constructs has finite points at every parameter in [0, 1]
        assert np.all(np.isfinite(curve.at(np.linspace(0.0, 1.0, 11))))
        _outcome(lambda: curve.at(ts))


@given(arrays(st.floats(min_value=-10.0, max_value=100.0)), scalars, scalars)
@example(np.full(2, 1e308), 0.5, 1e-3)
@example(np.ones(5), math.nan, 1e-3)
@example(np.array([-1.0, 1.0 + 1e-9]), 0.5, 1e-3)  # a mean 1e9 days into the window
def test_quasi_distribution_and_report(signal, omega, mse):
    quasi = _outcome(lambda: quasi_distribution(signal))
    if quasi is None:
        return
    _drawn(_outcome(lambda: emit_panel_svg(signal, quasi.values, "x", omega, quasi.variance)))
    report = _outcome(lambda: build_report("x", ONE_DAY, omega, mse, quasi, [(0.5, 1.0)]))
    if report is not None:
        emit_json(report)


@given(arrays())
@example(np.full(2, 1e308))
def test_chord_length_params(values):
    # points as (k, v) columns; a column or stacked draw makes a 3-D array
    days = np.arange(1.0, len(values) + 1).reshape((-1,) + (1,) * (values.ndim - 1))
    params = _outcome(lambda: chord_length_params(np.stack(np.broadcast_arrays(days, values), axis=-1)))
    if params is not None:
        assert params[0] == 0.0 and params[-1] == 1.0 and np.all(np.diff(params) >= 0.0)


@given(arrays(st.floats(min_value=-10.0, max_value=100.0)))
@example(np.full((2, 2), 0.25))  # a 2-D unit sum
@example(np.array([MAX_MAGNITUDE, -MAX_MAGNITUDE, 1.0]))
def test_find_peaks_and_moments(values):
    peaks = _outcome(lambda: find_peaks(values))
    for peak in peaks or []:
        assert peak.height == values[peak.day - 1] and 0.0 <= peak.prominence < math.inf
    with np.errstate(all="ignore"):
        unit = values / values.sum()  # a unit sum, unless it is NaN or inf
    for each in (values, unit):
        result = _outcome(lambda: moments(each))
        assert result is None or np.all(np.isfinite(result))


@given(arrays(), arrays())
@example(np.array([]), np.array([]))
@example(np.array([1.75e308, 0.0, -1.0]), np.ones(3))
def test_emit_overlay_svg(first, second):
    _drawn(_outcome(lambda: emit_overlay_svg([("a", first), ("b", second)])))


def test_bound_is_inclusive():
    at = np.array([MAX_MAGNITUDE, -MAX_MAGNITUDE, 0.0])
    assert _check_values(at).tolist() == at.tolist()
    for above in (ABOVE, -ABOVE):
        with pytest.raises(ValueError, match=r"magnitude at most 1e\+150"):
            _check_values([0.0, above])


def test_bound_at_entry_points():
    counts = np.r_[np.ones(10), MAX_MAGNITUDE, np.ones(10)]
    [series] = parse_csv(_csv([counts]))
    assert series.values.max() == MAX_MAGNITUDE
    assert histogram(series).f.sum() == pytest.approx(1.0)
    assert len(moving_average_7(series)) == len(counts) - 6
    assert quasi_distribution(counts).gamma == pytest.approx(1.0 / MAX_MAGNITUDE)
    assert emit_overlay_svg([("a", counts), ("b", -counts)]).startswith("<svg")
    days = np.arange(1.0, counts.size + 1)
    assert chord_length_params(np.column_stack([days, counts]))[-1] == 1.0
    assert [peak.day for peak in find_peaks(counts)] == [11]
    assert np.all(np.isfinite(moments(np.array([MAX_MAGNITUDE, -MAX_MAGNITUDE, 1.0]))))
    over = np.r_[np.ones(10), ABOVE, np.ones(10)]
    for call in (
        lambda: parse_csv(_csv([[ABOVE]])),
        lambda: histogram(Series("x", START, over)),
        lambda: moving_average_7(Series("x", START, over)),
        lambda: fit(np.r_[over, np.ones(20)]),
        lambda: quasi_distribution(over),
        lambda: chord_length_params(np.column_stack([days, over])),
        lambda: find_peaks(over),
        lambda: moments(np.array([ABOVE, -ABOVE, 1.0])),
        lambda: emit_overlay_svg([("a", over), ("b", -counts)]),
    ):
        with pytest.raises(ValueError, match=r"above 1e\+150|magnitude at most 1e\+150"):
            call()
