"""Test-only references for `qdfit.fitting.fit`.

`fit_loop` is the per-candidate grid search.  `fit` scores the omega grid
in stacks of candidates, stacking the design, the normal-equation solve and
the discretization.  Every step is either elementwise or runs the same
BLAS/LAPACK routine per candidate, so its outputs must equal, bit for bit,
what this loop gives by fitting one candidate at a time:

    assemble_design -> rank 29 (gate (a), by SVD) -> solve_normal_equations
        -> increasing x controls (gate (b)) -> exact day values -> mse

Ties go to the smaller omega; a candidate that fails a gate or whose normal
equations cannot be factorized scores inf, and a grid where every
candidate fails raises.

`bisect_day_values` is the exact rule by bisection, the reference for the
Newton iteration `fit` uses: day k takes y(t) where x(t) = k.
"""

from __future__ import annotations

import numpy as np

from qdfit import fitting
from qdfit.basis import NUM_PIECEWISE_BASIS
from qdfit.fitting import (
    FitResult,
    IllConditionedError,
    PiecewiseCurve,
    assemble_design,
    chord_length_params,
    data_points,
    default_omega_grid,
    mse,
    solve_normal_equations,
)


def fit_loop(data, omega_grid=None) -> FitResult:
    """The grid search of `fit`, one candidate at a time."""
    f = np.asarray(getattr(data, "f", data), dtype=float)
    grid = default_omega_grid() if omega_grid is None else np.atleast_1d(omega_grid)
    points = data_points(f)
    params = chord_length_params(points)

    scores = []
    best = None
    for omega in map(float, grid):
        design = assemble_design(params, omega)
        controls = None
        if np.linalg.matrix_rank(design) == NUM_PIECEWISE_BASIS:
            try:
                controls = solve_normal_equations(design, points)
            except IllConditionedError:
                pass
        if controls is None or not np.all(np.diff(controls[:, 0]) > 0.0):
            scores.append((omega, float("inf")))
            continue
        curve = PiecewiseCurve(omega, controls)
        discretized = fitting._day_values(np.array([omega]), controls[None], params)[0]
        score = mse(discretized, f)
        scores.append((omega, score))
        if best is None or (score, omega) < best[:2]:
            best = (score, omega, curve, discretized)

    if best is None:
        raise IllConditionedError("every segmentation-point candidate was ill-conditioned")
    scores.sort(key=lambda item: item[0])
    score, _, curve, discretized = best
    return FitResult(curve, discretized, score, scores)


def bisect_day_values(curve: PiecewiseCurve, n_days: int, halvings: int = 60) -> np.ndarray:
    """y(t*_k) with x(t*_k) = k for k = 1..n_days, t*_k found by bisection on [0, 1].

    x must increase.  A day at or below x(0) takes t = 0 and one at or
    above x(1) takes t = 1.  Every day's bracket is halved `halvings`
    times through `curve.at`, with no derivative and no starting guess.
    """
    days = np.arange(1.0, n_days + 1)
    x_start, x_end = curve.at(np.array([0.0, 1.0]))[:, 0]
    lo = np.where(days >= x_end, 1.0, 0.0)
    hi = np.where(days <= x_start, 0.0, 1.0)
    for _ in range(halvings):
        mid = 0.5 * (lo + hi)
        below = curve.at(mid)[:, 0] < days
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return curve.at(0.5 * (lo + hi))[:, 1]
