"""CSV ingestion: daily counts -> smoothed series -> histogram distribution.

Input CSV layout: UTF-8, comma-separated, header `date,<label1>[,<label2>...]`
with ISO dates (YYYY-MM-DD), one row per day with no gaps, non-negative
counts, no missing cells.  Reporting-delay artifacts (a zero day followed by
a doubled day) are handled by the centered 7-day moving average alone;
nothing is imputed.

Analysis windows for the 18 bundled country presets each span exactly 500
inclusive days; a window needs raw coverage of 3 extra days on each side
for the centered average.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from datetime import date, timedelta
from importlib import resources

import numpy as np

MOVING_AVERAGE_WINDOW = 7
_TRIM = MOVING_AVERAGE_WINDOW // 2

_PRESET_RESOURCE = "data/country_windows.csv"


@dataclass(frozen=True)
class RawSeries:
    """Contiguous daily counts for one labeled quantity."""

    label: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return self.values.size

    def dates(self) -> list[date]:
        return [self.start_date + timedelta(days=k) for k in range(len(self))]


@dataclass(frozen=True)
class SmoothedSeries:
    """Centered 7-day moving average of a RawSeries (3 days trimmed per side)."""

    label: str
    start_date: date
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))

    def __len__(self) -> int:
        return self.values.size

    @property
    def end_date(self) -> date:
        return self.start_date + timedelta(days=len(self) - 1)


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


def parse_csv(text: str) -> list[RawSeries]:
    """Parse CSV text into one RawSeries per numeric column.

    Rejects a missing/duplicated header, malformed or non-contiguous
    dates, missing cells, and negative or non-finite values.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty input: missing header row") from None
    header = [name.strip() for name in header]
    if not header or header[0] != "date":
        raise ValueError("first header column must be 'date'")
    labels = header[1:]
    if not labels:
        raise ValueError("need at least one value column besides 'date'")
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate column labels in header")

    dates: list[date] = []
    columns: list[list[float]] = [[] for _ in labels]
    for row_num, row in enumerate(reader, start=2):
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
            if not math.isfinite(value):
                raise ValueError(f"row {row_num}: non-finite value in column {labels[col]!r}")
            if value < 0:
                raise ValueError(f"row {row_num}: negative count {cell!r} in column {labels[col]!r}")
            columns[col].append(value)
    if not dates:
        raise ValueError("no data rows")
    return [
        RawSeries(label, dates[0], np.array(values))
        for label, values in zip(labels, columns)
    ]


def moving_average_7(raw: RawSeries) -> SmoothedSeries:
    """Centered 7-day moving average; output loses 3 days on each side."""
    if len(raw) < MOVING_AVERAGE_WINDOW:
        raise ValueError(
            f"need at least {MOVING_AVERAGE_WINDOW} days of data, got {len(raw)}"
        )
    sums = np.convolve(raw.values, np.ones(MOVING_AVERAGE_WINDOW), mode="valid")
    return SmoothedSeries(
        raw.label,
        raw.start_date + timedelta(days=_TRIM),
        sums / MOVING_AVERAGE_WINDOW,
    )


def extract_window(smoothed: SmoothedSeries, window: WindowSpec) -> SmoothedSeries:
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
    return SmoothedSeries(
        smoothed.label, window.begin, smoothed.values[lo : lo + window.days].copy()
    )


def check_window_values(values) -> np.ndarray:
    """Validate one window of daily counts or fractions; return it as floats.

    The values must be finite and non-negative with a positive total.  This
    is the one rule for what may be normalized into a histogram distribution
    and what `fitting.fit` accepts.
    """
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite (no NaN or inf)")
    if np.any(values < 0.0):
        raise ValueError("values must be non-negative")
    if not values.sum() > 0.0:
        raise ValueError("zero total: window has no counts to normalize")
    return values


def histogram(smoothed: SmoothedSeries) -> HistogramDistribution:
    """Normalize a smoothed window into unit-sum daily fractions."""
    values = check_window_values(smoothed.values)
    return HistogramDistribution(values / values.sum(), smoothed.start_date, smoothed.label)


def load_presets() -> dict[str, WindowSpec]:
    """Bundled country -> analysis-window table, keyed by lowercased name."""
    text = resources.files("qdfit").joinpath(_PRESET_RESOURCE).read_text(encoding="utf-8")
    presets: dict[str, WindowSpec] = {}
    for row in csv.DictReader(io.StringIO(text)):
        window = WindowSpec(
            row["country"],
            date.fromisoformat(row["begin"]),
            date.fromisoformat(row["end"]),
        )
        presets[window.country.lower()] = window
    return presets


def preset_window(country: str) -> WindowSpec:
    """Look up a bundled country window (case-insensitive)."""
    presets = load_presets()
    try:
        return presets[country.strip().lower()]
    except KeyError:
        known = ", ".join(sorted(w.country for w in presets.values()))
        raise ValueError(f"no preset window for {country!r}; known: {known}") from None
