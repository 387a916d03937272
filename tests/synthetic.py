"""Shared synthetic constructions for the tests.

The generate-and-refit oracle needs data that a two-piece curve can
reproduce through the full pipeline.  `linear_day_curve` builds a curve
whose x component is exactly the day map x(t) = 1 + (N-1) t (control
x-values at the Greville abscissae reproduce linear functions exactly) and
whose y component has a slope break at the join, so the segmentation point
is identifiable.  `roundtrip_data` then discretizes the curve by the exact
rule the fit uses (day k takes y where x = k), solved by bisection.
"""

from __future__ import annotations

import numpy as np

from qdfit.basis import NUM_QUASI_BASIS, make_knot_vector
from fit_oracle import bisect_day_values
from qdfit.fitting import PiecewiseCurve


def greville_abscissae() -> np.ndarray:
    """Greville abscissae of the 15 base functions (degree-5 knot means)."""
    kv = make_knot_vector()
    return np.array([kv[i + 1 : i + 6].mean() for i in range(NUM_QUASI_BASIS)])


def linear_day_curve(
    omega: float,
    n_days: int,
    y_join: float = 1.0,
    y_left_slope: float = 0.5,
    y_right_slope: float = -0.9,
) -> PiecewiseCurve:
    """Two-piece curve with exact linear x over days 1..n_days and a y kink at omega."""
    grev = greville_abscissae()
    cx_left = 1.0 + (n_days - 1) * omega * grev
    cx_right = 1.0 + (n_days - 1) * (omega + (1.0 - omega) * grev)
    cx = np.concatenate([cx_left, cx_right[1:]])
    steps = np.arange(NUM_QUASI_BASIS) / (NUM_QUASI_BASIS - 1)
    cy_left = y_join + y_left_slope * (steps - 1.0)
    cy_right = y_join + y_right_slope * steps
    cy = np.concatenate([cy_left, cy_right[1:]])
    return PiecewiseCurve(omega, np.column_stack([cx, cy]))


def roundtrip_data(curve: PiecewiseCurve, n_days: int) -> np.ndarray:
    """Unit-sum day values obtained by the pipeline's own forward model."""
    values = bisect_day_values(curve, n_days)
    return values / values.sum()


def two_bump_counts(
    n_days: int = 500,
    centers: tuple[float, float] = (150.0, 380.0),
    widths: tuple[float, float] = (30.0, 40.0),
    amplitudes: tuple[float, float] = (1000.0, 800.0),
) -> tuple[np.ndarray, float]:
    """Raw daily counts on window days -2..n_days+3 plus the analytic mixture mean.

    The continuous mixture mean is sum(c_i a_i s_i) / sum(a_i s_i); window
    truncation and 7-day smoothing move the fitted mean by well under a day.
    """
    days = np.arange(-2, n_days + 4, dtype=float)
    counts = np.zeros_like(days)
    masses = []
    weighted = []
    for (c, s, a) in zip(centers, widths, amplitudes):
        counts += a * np.exp(-((days - c) ** 2) / (2.0 * s * s))
        masses.append(a * s)
        weighted.append(c * a * s)
    mean = sum(weighted) / sum(masses)
    return counts, mean
