"""Machine-readable fit reports and static SVG plots.

Everything emitted here is byte-deterministic for identical inputs: JSON
uses a fixed key order and Python's shortest round-trip float repr, SVG
coordinates are formatted to 6 significant digits.  One writer draws both
plots, the panel and the overlay.  Plotted curves, the panel's `omega` and
variance, and a report's numbers must pass `ingest._check_values`.  Colors
follow the series roles: green for the smoothed histogram signal,
red/blue/black for confirmed/recovered/fatality fits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .ingest import WindowSpec, _check_values
from .quasidist import Peak, QuasiDistribution

SVG_WIDTH = 900
SVG_HEIGHT = 480
_ML, _MR, _MT, _MB = 70, 25, 45, 55

HISTOGRAM_COLOR = "green"
_ROLE_COLORS = (("confirm", "red"), ("recover", "blue"), ("fatal", "black"), ("death", "black"))
_FALLBACK_PALETTE = ("red", "blue", "black", "darkorange", "purple", "teal")


@dataclass(frozen=True)
class FitReport:
    """Everything a fit run reports about one series."""

    label: str
    window: WindowSpec
    days: int
    omega: float
    mse: float
    gamma: float
    mean_day: float
    mean_date: date
    variance: float
    peaks: list[Peak]
    min_value: float
    negative_mass: float
    omega_grid_scores: list[tuple[float, float]]


def build_report(
    label: str,
    window: WindowSpec,
    omega: float,
    mse: float,
    quasi: QuasiDistribution,
    omega_grid_scores: list[tuple[float, float]],
) -> FitReport:
    """Assemble a FitReport from fit and quasi-distribution results."""
    values = _check_values(quasi.values, "quasi-distribution values")
    _check_values([omega, mse, quasi.gamma, quasi.mean, quasi.variance], "omega, mse and moments")
    negative_mass = float(abs(values[values < 0.0].sum()))  # abs avoids -0.0
    return FitReport(
        label=label,
        window=window,
        days=values.size,
        omega=float(omega),
        mse=float(mse),
        gamma=float(quasi.gamma),
        mean_day=float(quasi.mean),
        # round() rounds half to even: a mean exactly halfway between two
        # days takes the even day offset (round(2.5) == 2)
        mean_date=window.begin + timedelta(days=round(quasi.mean - 1.0)),
        variance=float(quasi.variance),
        peaks=list(quasi.peaks),
        min_value=float(values.min()),
        negative_mass=negative_mass,
        omega_grid_scores=[(float(w), float(s)) for w, s in omega_grid_scores],
    )


def emit_json(report: FitReport) -> str:
    """Serialize a report to JSON with a fixed key order.

    Infinite grid scores (ill-conditioned candidates) are stored as null
    to keep the output strictly valid JSON.
    """
    payload = {
        "label": report.label,
        "window": {
            "country": report.window.country,
            "begin": report.window.begin.isoformat(),
            "end": report.window.end.isoformat(),
        },
        "days": report.days,
        "omega": report.omega,
        "mse": report.mse,
        "gamma": report.gamma,
        "mean_day": report.mean_day,
        "mean_date": report.mean_date.isoformat(),
        "variance": report.variance,
        "peaks": [
            {"day": p.day, "height": p.height, "prominence": p.prominence}
            for p in report.peaks
        ],
        "diagnostics": {
            "min_value": report.min_value,
            "negative_mass": report.negative_mass,
        },
        "omega_grid": [
            [w, None if math.isinf(s) else s] for w, s in report.omega_grid_scores
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def parse_report(text: str) -> FitReport:
    """Inverse of emit_json."""
    payload = json.loads(text)
    return FitReport(
        label=payload["label"],
        window=WindowSpec(
            payload["window"]["country"],
            date.fromisoformat(payload["window"]["begin"]),
            date.fromisoformat(payload["window"]["end"]),
        ),
        days=payload["days"],
        omega=payload["omega"],
        mse=payload["mse"],
        gamma=payload["gamma"],
        mean_day=payload["mean_day"],
        mean_date=date.fromisoformat(payload["mean_date"]),
        variance=payload["variance"],
        peaks=[Peak(p["day"], p["height"], p["prominence"]) for p in payload["peaks"]],
        min_value=payload["diagnostics"]["min_value"],
        negative_mass=payload["diagnostics"]["negative_mass"],
        omega_grid_scores=[
            (w, float("inf") if s is None else s) for w, s in payload["omega_grid"]
        ],
    )


def series_color(label: str, position: int = 0) -> str:
    """Color role for a series label; unknown labels cycle a fixed palette."""
    low = label.lower()
    for needle, color in _ROLE_COLORS:
        if needle in low:
            return color
    return _FALLBACK_PALETTE[position % len(_FALLBACK_PALETTE)]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _text(value: str) -> str:
    """Escape character data for an SVG text element."""
    # not saxutils.escape or html.escape: their imports add ~6 MB or ~0.4 MB of peak RSS
    return value.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _plot(curves: list[tuple[str, np.ndarray, str]], title: str, note: str | None = None) -> str:
    """The one SVG writer: (label, values, color) curves on shared axes.

    The curves must hold one number of values, at least one.  The value
    axis runs from min(0, smallest value) to 1.05 times the largest.  A
    `note` goes under the title; without one, each curve gets a legend row.
    """
    arrays = [_check_values(values, f"curve {label!r}") for label, values, _ in curves]
    n = arrays[0].size
    if n == 0:
        raise ValueError("curves must hold at least one value")
    for (label, _, _), values in zip(curves, arrays):
        if values.size != n:
            raise ValueError(f"curve {label!r} has shape {values.shape}, expected ({n},)")
    lo = min(0.0, min(float(v.min()) for v in arrays))
    hi = 1.05 * max(float(v.max()) for v in arrays)
    if hi <= lo:  # no value above the floor: a unit span, or up to 0 where rounding loses the unit
        hi = lo + 1.0 if lo + 1.0 > lo else 0.0

    span_x = SVG_WIDTH - _ML - _MR
    span_y = SVG_HEIGHT - _MT - _MB
    bottom = SVG_HEIGHT - _MB
    denom = max(n - 1, 1)
    axis = 'stroke="#333" stroke-width="1"/>'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{bottom}" {axis}',
        f'<line x1="{_ML}" y1="{bottom}" x2="{SVG_WIDTH - _MR}" y2="{bottom}" {axis}',
    ]
    for i in range(5):  # five ticks on each axis
        day = 1 + round(i * (n - 1) / 4)
        x = _fmt(_ML + (day - 1) / denom * span_x)
        y = bottom - i * (bottom - _MT) / 4
        parts += [
            f'<line x1="{x}" y1="{bottom}" x2="{x}" y2="{bottom + 5}" {axis}',
            f'<text x="{x}" y="{bottom + 20}" font-size="12" text-anchor="middle">{day}</text>',
            f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" {axis}',
            f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" font-size="12" '
            f'text-anchor="end">{_fmt(lo + i * (hi - lo) / 4)}</text>',
        ]
    parts += [
        f'<text x="{SVG_WIDTH // 2}" y="25" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{_text(title)}</text>',
        f'<text x="{SVG_WIDTH // 2}" y="{SVG_HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">day</text>',
    ]
    if note is not None:
        parts.append(
            f'<text x="{_ML + 10}" y="{_MT + 18}" font-size="13" '
            f'font-family="sans-serif">{note}</text>'
        )
    for i, ((label, _, color), values) in enumerate(zip(curves, arrays)):
        pts = " ".join(
            f"{_fmt(_ML + k / denom * span_x)},{_fmt(bottom - (v - lo) / (hi - lo) * span_y)}"
            for k, v in enumerate(values)
        )
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        if note is None:  # a legend row
            y = _MT + 18 + 18 * i
            x0 = SVG_WIDTH - _MR - 170
            parts += [
                f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 28}" y2="{y - 4}" '
                f'stroke="{color}" stroke-width="2"/>',
                f'<text x="{x0 + 34}" y="{y}" font-size="13" '
                f'font-family="sans-serif">{_text(label)}</text>',
            ]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_panel_svg(
    histogram: np.ndarray, fitted: np.ndarray, label: str, omega: float, variance: float
) -> str:
    """One-series panel: green histogram signal plus role-colored fit, with
    `omega` and the variance noted under the title."""
    _check_values([omega, variance], "omega and variance")
    return _plot(
        [("histogram", histogram, HISTOGRAM_COLOR), (label, fitted, series_color(label))],
        f"{label}: histogram and quasi-distribution fit",
        f"omega = {_fmt(omega)}, Var = {_fmt(variance)}",
    )


def emit_overlay_svg(curves: list[tuple[str, np.ndarray]]) -> str:
    """Shared-axes overlay of several fitted quasi-distributions with a legend."""
    if len(curves) < 2:
        raise ValueError("overlay needs >=2 curves")
    return _plot(
        [(label, values, series_color(label, i)) for i, (label, values) in enumerate(curves)],
        "quasi-distribution fits",
    )
