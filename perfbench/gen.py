"""Seeded inputs for the three benchmark workloads.

Everything here is a pure function of the seed.  The generator never imports
qdfit: the program only ever sees the CSV files written here (CLI workloads)
or the CSV texts returned by `lib_windows` (library workload).

* `write_preset_csv`: one CSV aligned to a bundled preset window, 3 extra raw
  days on each side of the 500-day window (506 rows), three columns.
* `write_long_csv`: one CSV of LONG_RAW_DAYS rows (a 2000-day smoothed range),
  three columns, used by `qdfit compare` over the full range.
* `lib_windows`: one-column CSV texts over a fixed grid of window lengths x
  shapes; the seed moves the shape parameters and the noise, not the lengths,
  so every seed does the same amount of work per cycle.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

COLUMNS = ("confirmed", "recovered", "deaths")
TRIM = 3  # the centered 7-day moving average drops 3 raw days per side
LONG_RAW_DAYS = 2006
LONG_START = date(2020, 1, 1)
LIB_LENGTHS = (29, 60, 120, 250, 500)
LIB_SHAPES = ("two_bump", "single_peak", "step", "spike", "constant")
LIB_START = date(2021, 1, 1)

# Epidemic waves of the CSV inputs as (centre, width, peak count); centre and
# width are fractions of the series length.  They are fixed so that the fit
# accuracy metric compares like with like across seeds; the seed draws the
# Poisson noise, the reporting-delay artifacts and the preset.
PRESET_WAVES = ((0.25, 0.05, 5000.0), (0.7, 0.06, 3500.0))
LONG_WAVES = (
    (0.1, 0.03, 3000.0),
    (0.3, 0.04, 5000.0),
    (0.5, 0.035, 2500.0),
    (0.7, 0.05, 6000.0),
    (0.88, 0.03, 4000.0),
)

# (delay in days, scale) of each column relative to the confirmed curve
_COLUMN_LAGS = {"confirmed": (0, 1.0), "recovered": (14, 0.93), "deaths": (18, 0.02)}


@dataclass(frozen=True)
class LibWindow:
    """One library request: a one-column CSV of raw daily counts and the window to analyse."""

    name: str
    text: str  # window days + 2 * TRIM raw rows
    begin: date  # first window day
    days: int


def _rng(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per input kind, so one kind never shifts another."""
    return np.random.default_rng([seed, stream])


def _waves(n: int, waves: tuple[tuple[float, float, float], ...]) -> np.ndarray:
    """Sum of Gaussian waves given as (centre, width, height); centre and width are fractions of n."""
    days = np.arange(n, dtype=float)
    out = np.zeros(n)
    for center, width, height in waves:
        out += height * np.exp(-((days - center * n) ** 2) / (2.0 * (width * n) ** 2))
    return out


def _jittered(rng: np.random.Generator, centers: tuple[float, ...]) -> tuple[tuple[float, float, float], ...]:
    return tuple(
        (c + rng.uniform(-0.04, 0.04), rng.uniform(0.035, 0.07), 1000.0 * rng.uniform(0.5, 1.0))
        for c in centers
    )


def _columns(rng: np.random.Generator, n: int, waves) -> dict[str, np.ndarray]:
    """Confirmed / recovered / fatality counts with Poisson noise and delay artifacts."""
    pad = max(lag for lag, _ in _COLUMN_LAGS.values())
    base = _waves(n + pad, waves) + 5.0
    out = {}
    for label, (lag, scale) in _COLUMN_LAGS.items():
        mean = scale * base[pad - lag : pad - lag + n]
        counts = rng.poisson(mean).astype(float)
        # reporting delay: a zero day followed by a doubled day
        for k in np.flatnonzero(rng.random(n - 1) < 0.02):
            counts[k + 1] += counts[k]
            counts[k] = 0.0
        out[label] = counts
    return out


def _csv_text(start: date, columns: dict[str, np.ndarray]) -> str:
    n = len(next(iter(columns.values())))
    lines = [",".join(["date", *columns])]
    for k in range(n):
        day = (start + timedelta(days=k)).isoformat()
        lines.append(",".join([day] + [f"{int(col[k])}" for col in columns.values()]))
    return "\n".join(lines) + "\n"


def read_presets(path: Path) -> list[tuple[str, date, date]]:
    """(country, begin, end) records of the bundled preset table."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [
            (row["country"], date.fromisoformat(row["begin"]), date.fromisoformat(row["end"]))
            for row in csv.DictReader(fh)
        ]


def write_preset_csv(seed: int, presets: list[tuple[str, date, date]], path: Path) -> str:
    """Write the preset-aligned CSV for `seed`; return the chosen country."""
    rng = _rng(seed, 1)
    country, begin, end = presets[int(rng.integers(len(presets)))]
    n = (end - begin).days + 1 + 2 * TRIM
    path.write_text(_csv_text(begin - timedelta(days=TRIM), _columns(rng, n, PRESET_WAVES)), encoding="utf-8")
    return country


def write_long_csv(seed: int, path: Path) -> None:
    """Write the full-range CSV (LONG_RAW_DAYS rows) for `seed`."""
    rng = _rng(seed, 2)
    path.write_text(_csv_text(LONG_START, _columns(rng, LONG_RAW_DAYS, LONG_WAVES)), encoding="utf-8")


def _shape(rng: np.random.Generator, shape: str, n: int) -> np.ndarray:
    days = np.arange(n, dtype=float)
    if shape == "two_bump":
        mean = _waves(n, _jittered(rng, (0.3, 0.7))) + 1.0
    elif shape == "single_peak":
        mean = _waves(n, _jittered(rng, (0.5,))) + 1.0
    elif shape == "step":
        at = rng.uniform(0.3, 0.7) * n
        mean = np.where(days < at, 200.0, 200.0 * rng.uniform(1.5, 3.0))
    elif shape == "spike":
        # the spike sits mid-window: where it falls against the knots moves the
        # fit error by an order of magnitude, which would swamp the accuracy metric
        mean = np.full(n, 2.0)
        mean[n // 2] = 1000.0
    elif shape == "constant":
        return np.full(n, float(rng.integers(50, 500)))
    else:
        raise ValueError(f"unknown shape {shape!r}")
    return rng.poisson(mean).astype(float)


def lib_windows(seed: int) -> list[LibWindow]:
    """The library workload's request cycle: every shape at every length."""
    rng = _rng(seed, 3)
    out = []
    for days in LIB_LENGTHS:
        for shape in LIB_SHAPES:
            name = f"{shape}-{days}"
            text = _csv_text(LIB_START, {name: _shape(rng, shape, days + 2 * TRIM)})
            out.append(LibWindow(name, text, LIB_START + timedelta(days=TRIM), days))
    return out
