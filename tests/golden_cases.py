"""Golden-corpus scenarios: fixed CSV inputs run through the `qdfit` CLI.

Each scenario writes one deterministic CSV of integer daily counts, runs
`qdfit fit` (or `qdfit compare`) on it and collects every file the command
wrote.  `tests/test_golden.py` compares a fresh run with the committed files
under `tests/golden/`.

Regenerate the corpus (only when an output change is intended, and say so in
CHANGES.md) with:

    PYTHONPATH=src python tests/golden_cases.py
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from dataclasses import dataclass, field
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from qdfit.cli import main
from qdfit.ingest import preset_window

GOLDEN_DIR = Path(__file__).with_name("golden")
TRIM = 3  # raw days the centered 7-day moving average drops on each side
START = date(2021, 1, 1)  # first window day of the scenarios without a preset
COMPARE_COUNTRY = "Italy"


def _waves(n: int, waves: tuple[tuple[float, float, float], ...]) -> np.ndarray:
    """Gaussian waves (centre, width, height) over raw days; centre and width are fractions of n."""
    days = np.arange(n, dtype=float)
    out = np.zeros(n)
    for center, width, height in waves:
        out += height * np.exp(-((days - center * n) ** 2) / (2.0 * (width * n) ** 2))
    return out


def _counts(values: np.ndarray) -> np.ndarray:
    return np.rint(values).astype(int)


@dataclass(frozen=True)
class Scenario:
    name: str
    command: str  # "fit" or "compare"
    columns: dict[str, np.ndarray]  # raw counts, window days + 2 * TRIM each
    window_args: list[str] = field(default_factory=list)
    raw_start: date = START - timedelta(days=TRIM)


def _single(name: str, counts: np.ndarray, days: int | None = None) -> Scenario:
    window = [] if days is None else ["--begin", START.isoformat(), "--days", str(days)]
    return Scenario(name, "fit", {"confirmed": _counts(counts)}, window)


def _spike(n: int) -> np.ndarray:
    counts = np.full(n, 2.0)
    counts[n // 2] = 1000.0
    return counts


def _step(n: int) -> np.ndarray:
    return np.where(np.arange(n) < 0.4 * n, 200.0, 500.0)


def _compare() -> Scenario:
    window = preset_window(COMPARE_COUNTRY)
    n = window.days + 2 * TRIM
    lag_pad = 18
    base = _waves(n + lag_pad, ((0.25, 0.05, 5000.0), (0.7, 0.06, 3500.0))) + 5.0
    columns = {
        label: _counts(scale * base[lag_pad - lag : lag_pad - lag + n])
        for label, lag, scale in (("confirmed", 0, 1.0), ("recovered", 14, 0.93), ("deaths", 18, 0.02))
    }
    return Scenario(
        "compare_3col",
        "compare",
        columns,
        ["--country", COMPARE_COUNTRY],
        window.begin - timedelta(days=TRIM),
    )


def scenarios() -> list[Scenario]:
    long_waves = (
        (0.1, 0.03, 3000.0),
        (0.3, 0.04, 5000.0),
        (0.5, 0.035, 2500.0),
        (0.7, 0.05, 6000.0),
        (0.88, 0.03, 4000.0),
    )
    return [
        _single("two_bump_500", _waves(506, ((0.3, 0.06, 1000.0), (0.76, 0.08, 800.0))), 500),
        _single("single_peak_120", _waves(126, ((0.5, 0.12, 900.0),)) + 3.0, 120),
        _single("constant_120", np.full(126, 300.0), 120),
        _single("step_120", _step(126), 120),
        _single("spike_120", _spike(126), 120),
        _single("min_window_29", _waves(35, ((0.45, 0.2, 400.0),)) + 10.0, 29),
        _single("long_2000", _waves(2006, long_waves) + 5.0),
        _compare(),
    ]


def _csv_text(start: date, columns: dict[str, np.ndarray]) -> str:
    n = len(next(iter(columns.values())))
    lines = [",".join(["date", *columns])]
    for k in range(n):
        day = (start + timedelta(days=k)).isoformat()
        lines.append(",".join([day] + [str(int(col[k])) for col in columns.values()]))
    return "\n".join(lines) + "\n"


def run_scenario(scenario: Scenario, workdir: Path) -> dict[str, str]:
    """Run the scenario's CLI command in `workdir`; map output names to their text."""
    csv_path = workdir / "input.csv"
    csv_path.write_text(_csv_text(scenario.raw_start, scenario.columns), encoding="utf-8")
    out = workdir / "out"
    out.mkdir()
    args = [scenario.command, "--input", str(csv_path), *scenario.window_args]
    if scenario.command == "fit":
        args += ["--column", "confirmed", "--json-out", str(out / "report.json"),
                 "--svg-out", str(out / "panel.svg")]
    else:
        args += ["--columns", ",".join(scenario.columns), "--json-out", str(out),
                 "--svg-out", str(out / "overlay.svg")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code != 0:
        raise RuntimeError(f"scenario {scenario.name}: qdfit {scenario.command} exited {code}")
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(out.iterdir())}


def golden_files(scenario: Scenario) -> dict[str, str]:
    """The committed outputs of one scenario."""
    directory = GOLDEN_DIR / scenario.name
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(directory.iterdir())}


def regenerate() -> None:
    for scenario in scenarios():
        target = GOLDEN_DIR / scenario.name
        target.mkdir(parents=True, exist_ok=True)
        for old in target.iterdir():
            old.unlink()
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in run_scenario(scenario, Path(tmp)).items():
                (target / name).write_text(text, encoding="utf-8")
        print(f"wrote {target}")


if __name__ == "__main__":
    regenerate()
