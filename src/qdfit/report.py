"""Machine-readable fit reports and static SVG plots.

Everything emitted here is byte-deterministic for identical inputs: JSON
uses a fixed key order and Python's shortest round-trip float repr, SVG
coordinates are formatted to 6 significant digits.  Colors follow the
series roles: green for the smoothed histogram signal, red/blue/black for
confirmed/recovered/fatality fits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .ingest import WindowSpec
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
    values = quasi.values
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


def _polyline(values: np.ndarray, lo: float, hi: float, color: str) -> str:
    n = values.size
    span_x = SVG_WIDTH - _ML - _MR
    span_y = SVG_HEIGHT - _MT - _MB
    denom = max(n - 1, 1)
    pts = []
    for k, v in enumerate(values):
        x = _ML + k / denom * span_x
        y = SVG_HEIGHT - _MB - (v - lo) / (hi - lo) * span_y
        pts.append(f"{_fmt(x)},{_fmt(y)}")
    return (
        f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
        f'points="{" ".join(pts)}"/>'
    )


def _frame(parts: list[str], n_days: int, lo: float, hi: float, title: str) -> None:
    """Append axes, ticks, and title shared by both plot kinds."""
    span_x = SVG_WIDTH - _ML - _MR
    bottom = SVG_HEIGHT - _MB
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{bottom}" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{bottom}" x2="{SVG_WIDTH - _MR}" y2="{bottom}" '
        f'stroke="#333" stroke-width="1"/>'
    )
    for i in range(5):
        day = 1 + round(i * (n_days - 1) / 4) if n_days > 1 else 1
        x = _ML + (day - 1) / max(n_days - 1, 1) * span_x
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{bottom}" x2="{_fmt(x)}" y2="{bottom + 5}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{bottom + 20}" font-size="12" '
            f'text-anchor="middle">{day}</text>'
        )
        v = lo + i * (hi - lo) / 4
        y = bottom - i * (bottom - _MT) / 4
        parts.append(
            f'<line x1="{_ML - 5}" y1="{_fmt(y)}" x2="{_ML}" y2="{_fmt(y)}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{_fmt(y + 4)}" font-size="12" '
            f'text-anchor="end">{_fmt(v)}</text>'
        )
    parts.append(
        f'<text x="{SVG_WIDTH // 2}" y="25" font-size="16" text-anchor="middle" '
        f'font-family="sans-serif">{title}</text>'
    )
    parts.append(
        f'<text x="{SVG_WIDTH // 2}" y="{SVG_HEIGHT - 8}" font-size="12" '
        f'text-anchor="middle">day</text>'
    )


def _value_range(series: list[np.ndarray]) -> tuple[float, float]:
    lo = min(0.0, min(float(v.min()) for v in series))
    hi = 1.05 * max(float(v.max()) for v in series)
    if hi <= lo:
        hi = lo + 1.0
    return lo, hi


def emit_panel_svg(
    histogram: np.ndarray,
    fitted: np.ndarray,
    label: str,
    omega: float | None = None,
    variance: float | None = None,
) -> str:
    """One-series panel: green histogram signal plus role-colored fit."""
    histogram = np.asarray(histogram, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    if histogram.shape != fitted.shape:
        raise ValueError(f"length mismatch: {histogram.shape} vs {fitted.shape}")
    lo, hi = _value_range([histogram, fitted])
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">'
    ]
    _frame(parts, histogram.size, lo, hi, f"{label}: histogram and quasi-distribution fit")
    if omega is not None or variance is not None:
        bits = []
        if omega is not None:
            bits.append(f"omega = {_fmt(omega)}")
        if variance is not None:
            bits.append(f"Var = {_fmt(variance)}")
        parts.append(
            f'<text x="{_ML + 10}" y="{_MT + 18}" font-size="13" '
            f'font-family="sans-serif">{", ".join(bits)}</text>'
        )
    parts.append(_polyline(histogram, lo, hi, HISTOGRAM_COLOR))
    parts.append(_polyline(fitted, lo, hi, series_color(label)))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_overlay_svg(curves: list[tuple[str, np.ndarray]]) -> str:
    """Shared-axes overlay of several fitted quasi-distributions with a legend."""
    if len(curves) < 2:
        raise ValueError("overlay needs >=2 curves")
    arrays = [np.asarray(v, dtype=float) for _, v in curves]
    n = arrays[0].size
    for (label, _), arr in zip(curves, arrays):
        if arr.size != n:
            raise ValueError(f"curve {label!r} has {arr.size} values, expected {n}")
    lo, hi = _value_range(arrays)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">'
    ]
    _frame(parts, n, lo, hi, "quasi-distribution fits")
    for i, ((label, _), arr) in enumerate(zip(curves, arrays)):
        color = series_color(label, i)
        parts.append(_polyline(arr, lo, hi, color))
        y = _MT + 18 + 18 * i
        x0 = SVG_WIDTH - _MR - 170
        parts.append(
            f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 28}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + 34}" y="{y}" font-size="13" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
