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
`day_values_loop` is that iteration as `fit` ran it with one `searchsorted`
call per curve and one Horner loop each for x and x'; `fit`'s one-call
search and fused x, x' evaluation must give its values bit for bit.
`pp_spans` and `pp_eval` evaluate `pp_curve` coefficients at parameters, the
way `day_values_loop` does; `qdfit` itself evaluates a curve through the
design basis (`PiecewiseCurve.at`).
"""

from __future__ import annotations

import numpy as np

from qdfit import fitting
from qdfit.basis import (
    NUM_PIECEWISE_BASIS,
    NUM_SPANS,
    _segment_params,
    horner,
    pp_curve,
    pp_derivative,
)
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
        discretized = day_values(np.array([omega]), controls[None], params)[0]
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


def split(params: np.ndarray, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The split of params at each omega that `fit` computes once per stack
    for `fitting._full_rank` and `fitting._day_values`."""
    return _segment_params(params, omegas)


def pp_spans(params: np.ndarray, omegas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each parameter's `pp_curve` span and its local u = 10 tau - s there, (g, N) each.

    The span is s (0..9) on the left segment and 10 + s on the right, by the
    split of `_segment_params`, and row i's spans are offset by 20 i: they
    index the stack `pp_curve` returns for g controls.
    """
    right, us, spans = _segment_params(params, omegas)
    us *= NUM_SPANS
    us -= spans
    spans += NUM_SPANS * right + 2 * NUM_SPANS * np.arange(len(spans))[:, None]
    return spans, us


def pp_eval(polys: np.ndarray, spans: np.ndarray, us: np.ndarray) -> np.ndarray:
    """`pp_curve` (or `pp_derivative`) coefficients evaluated at `pp_spans`
    output by Horner's rule; the result has shape spans.shape + polys.shape[2:]."""
    by_power = np.moveaxis(np.take(polys, spans, axis=0), spans.ndim, 0)
    return horner(by_power, us.reshape(us.shape + (1,) * (polys.ndim - 2)))


def day_values(omegas: np.ndarray, controls: np.ndarray, params: np.ndarray) -> np.ndarray:
    """`fitting._day_values` for g curves given by omegas (g,) and controls (g, 29, 2)."""
    return fitting._day_values(controls, *split(params, omegas), np.empty(18 * len(omegas) * params.size))


def day_values_loop(omegas: np.ndarray, controls: np.ndarray, params: np.ndarray) -> np.ndarray:
    """`day_values` with one span search per curve and x, x' evaluated apart."""
    polys = pp_curve(controls)
    xs, ys = polys[..., 0], polys[..., 1]
    days = np.arange(1.0, params.size + 1)
    per_curve = 2 * NUM_SPANS
    starts = xs[:, 0].reshape(-1, per_curve)
    spans = np.stack([np.searchsorted(x_starts, days, side="right") for x_starts in starts]) - 1
    spans.clip(0, per_curve - 1, out=spans)
    spans += per_curve * np.arange(len(starts))[:, None]
    chord_spans, us = pp_spans(params, omegas)
    us += chord_spans - spans
    us.clip(0.0, 1.0, out=us)
    x_coeffs = np.moveaxis(np.take(xs, spans, axis=0), -1, 0)
    slope_coeffs = np.moveaxis(np.take(pp_derivative(xs), spans, axis=0), -1, 0)
    for _ in range(fitting.NEWTON_STEPS):
        step = horner(x_coeffs, us)
        step -= days
        step /= horner(slope_coeffs, us)
        us -= step
        us.clip(0.0, 1.0, out=us)
    us[days < controls[:, :1, 0]] = 0.0
    us[days > controls[:, -1:, 0]] = 1.0
    return pp_eval(ys, spans, us)
