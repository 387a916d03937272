"""CSV ingestion: daily counts -> smoothed series -> histogram distribution.

Input CSV layout: UTF-8, comma-separated, header `date,<label1>[,<label2>...]`
with ISO dates (YYYY-MM-DD), one row per day with no gaps, non-negative
counts of at most MAX_MAGNITUDE, no missing cells.  Reporting-delay artifacts
(a zero day followed by a doubled day) are handled by the centered 7-day
moving average alone; nothing is imputed.

Analysis windows for the 18 bundled country presets each span exactly 500
inclusive days; a window needs raw coverage of 3 extra days on each side
for the centered average.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

MOVING_AVERAGE_WINDOW = 7
_TRIM = MOVING_AVERAGE_WINDOW // 2

_PRESET_PATH = os.path.join(os.path.dirname(__file__), "data", "country_windows.csv")

# the largest magnitude of a value that any entry point accepts: below it
# chord steps stay under 1.3e154, and sums, mean squares (up to about 1e6
# days) and plot spans of such values stay finite
MAX_MAGNITUDE = 1e150


def _check_values(values, name: str = "values") -> np.ndarray:
    """The one rule for every entry point's values, returned as floats: one
    dimension, finite, magnitude at most MAX_MAGNITUDE.  `name` is for errors."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {values.shape}")
    if not np.all(np.abs(values) <= MAX_MAGNITUDE):  # NaN compares false
        raise ValueError(f"{name} must be finite (no NaN or inf) with magnitude at most {MAX_MAGNITUDE:g}")
    return values


def _shift(day: date, days: int, what: str) -> date:
    """`day` moved by `days` days; a day past the calendar is a ValueError naming `what`."""
    try:
        return day + timedelta(days=days)
    except OverflowError:  # past a calendar end, or more days than a timedelta holds
        raise ValueError(f"{what} leaves the calendar") from None


@dataclass(frozen=True)
class Series:
    """Contiguous daily values for one label: raw counts, their 7-day average, or a window."""

    label: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        self.end_date  # the last day must lie in the calendar: checked once, for every use

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_date(self) -> date:
        return _shift(self.start_date, len(self) - 1, f"a series of {len(self)} days from {self.start_date}")


@dataclass(frozen=True)
class HistogramDistribution:
    """Unit-sum daily fractions f_k over an N-day window."""

    f: np.ndarray
    start_date: date
    label: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "f", np.asarray(self.f, dtype=float))

    @property
    def n_days(self) -> int:
        return self.f.size


@dataclass(frozen=True)
class WindowSpec:
    """Inclusive [begin, end] date range for one country or custom run."""

    country: str
    begin: date
    end: date

    @property
    def days(self) -> int:
        return (self.end - self.begin).days + 1


def parse_csv(text: str) -> list[Series]:
    """Parse CSV text into one Series of raw counts per numeric column.

    One leading byte-order mark (U+FEFF, as spreadsheet "CSV UTF-8" exports
    write it) is dropped.  Rejects a missing/duplicated header, malformed or
    non-contiguous dates, missing cells, cells past the csv module's field
    size limit, and negative values or values `_check_values` refuses.
    """
    reader = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    try:
        rows = list(reader)
    except csv.Error as exc:  # such as a cell past the field size limit
        raise ValueError(f"row {reader.line_num}: {exc}") from None
    if not rows:
        raise ValueError("empty input: missing header row")
    header = [name.strip() for name in rows[0]]
    if not header or header[0] != "date":
        raise ValueError("first header column must be 'date'")
    labels = header[1:]
    if not labels:
        raise ValueError("need at least one value column besides 'date'")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate column labels in header")

    dates: list[date] = []
    columns: list[list[float]] = [[] for _ in labels]
    for row_num, row in enumerate(rows[1:], start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue  # ignore blank lines
        if len(row) != len(header):
            raise ValueError(f"row {row_num}: expected {len(header)} cells, got {len(row)}")
        try:
            day = date.fromisoformat(row[0].strip())
        except ValueError:
            raise ValueError(f"row {row_num}: malformed date {row[0]!r}") from None
        if dates:
            gap = (day - dates[-1]).days
            if gap != 1:
                raise ValueError(
                    f"row {row_num}: non-contiguous dates, {dates[-1].isoformat()} "
                    f"followed by {day.isoformat()}"
                )
        dates.append(day)
        for col, cell in enumerate(row[1:]):
            cell = cell.strip()
            if not cell:
                raise ValueError(f"row {row_num}: missing value in column {labels[col]!r}")
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(f"row {row_num}: non-numeric value {cell!r}") from None
            if not abs(value) <= MAX_MAGNITUDE:
                what = f"value {cell!r} in column {labels[col]!r}"
                raise ValueError(f"row {row_num}: {what} is not finite or above {MAX_MAGNITUDE:g}")
            if value < 0:
                raise ValueError(f"row {row_num}: negative count {cell!r} in column {labels[col]!r}")
            columns[col].append(value)
    if not dates:
        raise ValueError("no data rows")
    return [
        Series(label, dates[0], np.array(values))
        for label, values in zip(labels, columns)
    ]


def moving_average_7(raw: Series) -> Series:
    """Centered 7-day moving average; output loses 3 days on each side."""
    values = _check_values(raw.values)
    if len(raw) < MOVING_AVERAGE_WINDOW:
        raise ValueError(
            f"need at least {MOVING_AVERAGE_WINDOW} days of data, got {len(raw)}"
        )
    sums = np.convolve(values, np.ones(MOVING_AVERAGE_WINDOW), mode="valid")
    return Series(
        raw.label,
        _shift(raw.start_date, _TRIM, "the smoothed start"),
        sums / MOVING_AVERAGE_WINDOW,
    )


def extract_window(smoothed: Series, window: WindowSpec) -> Series:
    """Restrict a smoothed series to the inclusive [begin, end] window."""
    if window.begin > window.end:
        raise ValueError(f"window begins {window.begin} after it ends {window.end}")
    if window.begin < smoothed.start_date:
        raise ValueError(
            f"window begins {window.begin.isoformat()} but smoothed data starts "
            f"{smoothed.start_date.isoformat()} "
            f"({(smoothed.start_date - window.begin).days} days short; remember the "
            f"moving average trims 3 days)"
        )
    if window.end > smoothed.end_date:
        raise ValueError(
            f"window ends {window.end.isoformat()} but smoothed data ends "
            f"{smoothed.end_date.isoformat()} "
            f"({(window.end - smoothed.end_date).days} days short; remember the "
            f"moving average trims 3 days)"
        )
    lo = (window.begin - smoothed.start_date).days
    return Series(
        smoothed.label, window.begin, smoothed.values[lo : lo + window.days].copy()
    )


def check_window_values(values) -> np.ndarray:
    """Validate one window of daily counts or fractions; return it as floats.

    The values must pass `_check_values` and be non-negative with a positive
    total.  This is the one rule for what may be normalized into a
    histogram distribution, and `fitting.fit` checks its fractions by it.
    """
    values = _check_values(values)
    if np.any(values < 0.0):
        raise ValueError("values must be non-negative")
    if not values.sum() > 0.0:
        raise ValueError("zero total: window has no counts to normalize")
    return values


def histogram(smoothed: Series) -> HistogramDistribution:
    """Normalize a smoothed window into unit-sum daily fractions."""
    values = check_window_values(smoothed.values)
    return HistogramDistribution(values / values.sum(), smoothed.start_date, smoothed.label)


def load_presets() -> dict[str, WindowSpec]:
    """Bundled country -> analysis-window table, keyed by lowercased name."""
    presets: dict[str, WindowSpec] = {}
    with open(_PRESET_PATH, encoding="utf-8", newline="") as table:
        for row in csv.DictReader(table):
            begin, end = (date.fromisoformat(row[key]) for key in ("begin", "end"))
            presets[row["country"].lower()] = WindowSpec(row["country"], begin, end)
    return presets


def preset_window(country: str) -> WindowSpec:
    """Look up a bundled country window (case-insensitive)."""
    presets = load_presets()
    try:
        return presets[country.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(w.country for w in presets.values()))
        raise ValueError(f"no preset window for {country!r}; known: {known}") from None
