"""Per-request output checks and the in-process reference they compare against.

Every check returns None when the output is correct and a one-line reason
otherwise; a request with a reason counts as failed.  A negative variance is
not a failure: the program does not promise otherwise yet, so it is only
counted (quasidist.negative_variance).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from qdfit import fitting, ingest, quasidist, report

SUM_TOLERANCE = 1e-9


def default_grid() -> frozenset[float]:
    return frozenset(float(w) for w in fitting.default_omega_grid())


def mean_error_days(f: np.ndarray, quasi_mean: float) -> float:
    """|quasi-distribution mean - data mean| in days, days counted from 1."""
    days = np.arange(1, len(f) + 1, dtype=float)
    return abs(quasi_mean - float(days @ np.asarray(f, dtype=float)))


def _svg_problem(svg: str) -> str | None:
    if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
        return "SVG is not a complete <svg> document"
    return None


def check_report(text: str, grid: frozenset[float], expected: str | None = None) -> str | None:
    """Round-trip through parse_report, byte-compare, omega on grid, finite mse."""
    try:
        parsed = report.parse_report(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"report does not parse: {type(exc).__name__}: {exc}"
    if report.emit_json(parsed) != text:
        return "report does not round-trip through parse_report"
    if expected is not None and text != expected:
        return "report differs from the in-process build_report + emit_json"
    if parsed.omega not in grid:
        return f"omega {parsed.omega!r} is not on the grid"
    if not math.isfinite(parsed.mse):
        return f"mse {parsed.mse!r} is not finite"
    return None


def check_quasi(values: np.ndarray) -> str | None:
    total = float(np.sum(values))
    if abs(total - 1.0) > SUM_TOLERANCE:
        return f"quasi values sum to {total!r}, not 1 within {SUM_TOLERANCE}"
    return None


def check_library_request(text: str, svg: str, quasi_values: np.ndarray, grid) -> str | None:
    return check_report(text, grid) or check_quasi(quasi_values) or _svg_problem(svg)


@dataclass(frozen=True)
class Reference:
    """What one `qdfit fit` of a column must produce, computed in-process."""

    report_json: str
    panel_svg: str
    quasi: quasidist.QuasiDistribution
    err_days: float


def reference_fits(csv_text: str, columns, country: str | None) -> dict[str, Reference]:
    """Run the CLI's pipeline in-process through the public functions."""
    by_label = {s.label: s for s in ingest.parse_csv(csv_text)}
    out = {}
    for label in columns:
        smoothed = ingest.moving_average_7(by_label[label])
        if country:
            window = ingest.preset_window(country)
        else:
            window = ingest.WindowSpec("full-range", smoothed.start_date, smoothed.end_date)
        data = ingest.histogram(ingest.extract_window(smoothed, window))
        result = fitting.fit(data, fitting.default_omega_grid(), fitting.SAMPLES_PER_DAY * data.n_days)
        quasi = quasidist.quasi_distribution(result.discretized)
        rep = report.build_report(label, window, result.omega, result.mse, quasi, result.omega_grid_scores)
        svg = report.emit_panel_svg(data.f, quasi.values, label, rep.omega, rep.variance)
        out[label] = Reference(report.emit_json(rep), svg, quasi, mean_error_days(data.f, quasi.mean))
    return out


def check_fit_outputs(files: dict[str, str | None], ref: Reference, grid) -> str | None:
    """Outputs of one `qdfit fit`: report.json and panel.svg, both present."""
    missing = [name for name, text in files.items() if text is None]
    if missing:
        return f"missing output {', '.join(missing)}"
    return (
        check_report(files["report.json"], grid, ref.report_json)
        or check_quasi(ref.quasi.values)
        or _svg_problem(files["panel.svg"])
        or (None if files["panel.svg"] == ref.panel_svg else "panel SVG differs from the in-process one")
    )


def check_compare_outputs(files: dict[str, str | None], refs: dict[str, Reference], grid) -> str | None:
    """Outputs of one `qdfit compare`: a report per column, comparison.json, overlay.svg."""
    missing = [name for name, text in files.items() if text is None]
    if missing:
        return f"missing output {', '.join(missing)}"
    for label, ref in refs.items():
        problem = check_report(files[f"{label}.report.json"], grid, ref.report_json) or check_quasi(
            ref.quasi.values
        )
        if problem:
            return f"{label}: {problem}"
    try:
        columns = [c["label"] for c in json.loads(files["comparison.json"])["columns"]]
    except (ValueError, KeyError, TypeError) as exc:
        return f"comparison.json is malformed: {exc}"
    if columns != list(refs):
        return f"comparison.json lists {columns}, expected {list(refs)}"
    expected = report.emit_overlay_svg([(label, ref.quasi.values) for label, ref in refs.items()])
    if files["overlay.svg"] != expected:
        return "overlay SVG differs from the in-process one"
    return None
