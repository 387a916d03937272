"""Test-only reference for `qdfit.fitting.fit`: the per-candidate grid search.

`fit` scores the omega grid in chunks of candidates, stacking the design,
the normal-equation solve and the pp-form sampling.  Every step is either
elementwise or runs the same BLAS/LAPACK routine per candidate, so its
outputs must equal, bit for bit, what this loop gives by fitting one
candidate at a time through the single-candidate functions:

    assemble_design -> solve_normal_equations -> sample_curve -> discretize -> mse

Ties go to the smaller omega, a candidate whose normal equations cannot be
factorized scores inf, and a grid where every candidate fails raises.
"""

from __future__ import annotations

import numpy as np

from qdfit.fitting import (
    SAMPLES_PER_DAY,
    FitResult,
    IllConditionedError,
    PiecewiseCurve,
    assemble_design,
    chord_length_params,
    data_points,
    default_omega_grid,
    discretize,
    mse,
    sample_curve,
    solve_normal_equations,
)


def fit_loop(data, omega_grid=None, n_samples=None) -> FitResult:
    """The grid search of `fit`, one candidate at a time."""
    f = np.asarray(getattr(data, "f", data), dtype=float)
    grid = default_omega_grid() if omega_grid is None else omega_grid
    n_samples = SAMPLES_PER_DAY * f.size if n_samples is None else n_samples
    points = data_points(f)
    params = chord_length_params(points)

    scores = []
    best = None
    for omega in map(float, grid):
        try:
            controls = solve_normal_equations(assemble_design(params, omega), points)
        except IllConditionedError:
            scores.append((omega, float("inf")))
            continue
        curve = PiecewiseCurve(omega, controls)
        discretized = discretize(sample_curve(curve, n_samples), f.size)
        score = mse(discretized, f)
        scores.append((omega, score))
        if best is None or (score, omega) < best[:2]:
            best = (score, omega, curve, discretized)

    if best is None:
        raise IllConditionedError("every segmentation-point candidate was ill-conditioned")
    scores.sort(key=lambda item: item[0])
    score, _, curve, discretized = best
    return FitResult(curve, discretized, score, scores)
