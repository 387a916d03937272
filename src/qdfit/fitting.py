"""Least-squares fitting of a two-piece quintic B-spline curve to day counts.

`fit` turns the data into points and chord-length parameters once, then
scores every segmentation-point candidate omega on the grid in one loop:

    data (k, f_k)  ->  chord-length parameters t_k              (once)
                   ->  design matrix  phi[k, i] = N_i(t_k; omega)
                   ->  normal equations  (phi' phi + ridge) C = phi' P
                   ->  x(t) of the fitted curve at the uniform samples, in pp-form
                   ->  discretization back onto the day grid, evaluating
                       y(t) only at the samples it uses
                   ->  mean square error against f_k

and keeps the best candidate seen so far.  `fit_fixed_omega` is `fit` on a
one-candidate grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (
    NUM_PIECEWISE_BASIS,
    piecewise_basis_matrix,
    piecewise_spans,
    pp_curve,
    pp_eval,
)

# ridge is RIDGE_SCALE * trace(phi'phi)/29; rescues candidates where one
# segment holds few points without perturbing well-posed solves
RIDGE_SCALE = 1e-10

DEFAULT_OMEGA_MIN = 0.10
DEFAULT_OMEGA_MAX = 0.90
DEFAULT_OMEGA_STEP = 0.01

# dense samples per day cell; keeps the max-below discretization rule stable
SAMPLES_PER_DAY = 20


class IllConditionedError(RuntimeError):
    """Normal equations could not be factorized for one omega candidate,
    or, raised by `fit`, for every candidate on the grid."""


@dataclass(frozen=True)
class PiecewiseCurve:
    """Planar curve B(t) = sum_i N_i(t; omega) C_i with 29 control points."""

    omega: float
    controls: np.ndarray  # (29, 2)

    def __post_init__(self) -> None:
        controls = np.asarray(self.controls, dtype=float)
        if controls.shape != (NUM_PIECEWISE_BASIS, 2):
            raise ValueError(f"controls must have shape (29, 2), got {controls.shape}")
        object.__setattr__(self, "controls", controls)

    def at(self, ts: np.ndarray) -> np.ndarray:
        """Curve points at the given parameters, shape (len(ts), 2)."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        return pp_eval(pp_curve(self.controls), *piecewise_spans(ts, self.omega))


@dataclass(frozen=True)
class FitResult:
    """Winning candidate of a segmentation-point grid search."""

    curve: PiecewiseCurve
    discretized: np.ndarray
    mse: float
    omega_grid_scores: list[tuple[float, float]]

    @property
    def omega(self) -> float:
        return self.curve.omega


def _data_values(data) -> np.ndarray:
    """Accept a HistogramDistribution or a plain sequence of finite f values."""
    f = np.asarray(getattr(data, "f", data), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("data values must be finite (no NaN or inf)")
    return f


def data_points(f: np.ndarray) -> np.ndarray:
    """Pair day indices with values: rows (k, f_k), k = 1..N."""
    f = _data_values(f)
    return np.column_stack([np.arange(1, f.size + 1, dtype=float), f])


def chord_length_params(points: np.ndarray) -> np.ndarray:
    """Cumulative chord-length parameters in [0, 1] for a point sequence.

    t_1 = 0, t_N = 1, and consecutive increments are proportional to the
    Euclidean distance between consecutive points.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need at least 2 points to parameterize")
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    if np.any(chords == 0.0):
        raise ValueError("consecutive points must be distinct")
    cumulative = np.concatenate([[0.0], np.cumsum(chords)])
    total = cumulative[-1]
    if total == 0.0:
        raise ValueError("zero total chord length")
    return cumulative / total


def assemble_design(params: np.ndarray, omega: float) -> np.ndarray:
    """Design matrix phi with phi[k, i] = N_i(t_k; omega), shape (N, 29)."""
    return piecewise_basis_matrix(np.asarray(params, dtype=float), omega)


def solve_normal_equations(design: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Solve (phi'phi + ridge I) C = phi'P for the 29 control points.

    Both planar coordinates are solved against the same symmetric
    factorization.  Raises IllConditionedError if the factorization fails,
    so grid search can skip the candidate.
    """
    design = np.asarray(design, dtype=float)
    points = np.asarray(points, dtype=float)
    if design.shape[0] != points.shape[0]:
        raise ValueError(
            f"design has {design.shape[0]} rows but {points.shape[0]} points given"
        )
    gram = design.T @ design
    rhs = design.T @ points
    ridge = RIDGE_SCALE * np.trace(gram) / gram.shape[0]
    gram[np.diag_indices_from(gram)] += ridge
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"normal equations not factorizable: {exc}") from exc
    return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))


def _sample_params(n: int) -> np.ndarray:
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    return np.linspace(0.0, 1.0, n)


def sample_curve(curve: PiecewiseCurve, n: int) -> np.ndarray:
    """Evaluate the curve at n uniform parameters, endpoints included."""
    return curve.at(_sample_params(n))


def discretize(samples: np.ndarray, n_days: int) -> np.ndarray:
    """Reduce curve samples to one value per day k = 1..n_days.

    Day k takes the y of the sample whose x is the largest value strictly
    below k; ties on x go to the largest sample index.  Days with no
    sample to their left fall back to the first sample's y.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples to discretize")
    return samples[_day_samples(samples[:, 0], n_days), 1]


def _day_samples(xs: np.ndarray, n_days: int) -> np.ndarray:
    """Index of the sample each day k = 1..n_days takes, by the rule of `discretize`."""
    order = np.argsort(xs, kind="stable")  # stable: equal x keeps index order
    days = np.arange(1, n_days + 1, dtype=float)
    pos = np.searchsorted(xs, days, side="left", sorter=order)
    return np.where(pos > 0, order[np.maximum(pos - 1, 0)], 0)


def _discretize_curve(curve: PiecewiseCurve, ts: np.ndarray, n_days: int) -> np.ndarray:
    """`discretize(curve.at(ts), n_days)`, evaluating y only at the samples it uses.

    x is evaluated at every sample; y only at the <= n_days samples the
    day rule picks.
    """
    polys = pp_curve(curve.controls)
    spans, us = piecewise_spans(ts, curve.omega)
    used = _day_samples(pp_eval(polys[..., 0], spans, us), n_days)
    return pp_eval(polys[..., 1], spans[used], us[used])


def mse(signal: np.ndarray, data) -> float:
    """Mean square deviation between a discretized signal and the data."""
    signal = np.asarray(signal, dtype=float)
    target = _data_values(data)
    if signal.shape != target.shape:
        raise ValueError(f"length mismatch: {signal.shape} vs {target.shape}")
    diff = signal - target
    return float(diff @ diff / signal.size)


def default_omega_grid(
    lo: float = DEFAULT_OMEGA_MIN,
    hi: float = DEFAULT_OMEGA_MAX,
    step: float = DEFAULT_OMEGA_STEP,
) -> np.ndarray:
    """Uniform candidate grid, inclusive of both ends (default 0.10..0.90 by 0.01)."""
    if step <= 0.0:
        raise ValueError("omega grid step must be positive")
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("omega grid bounds must satisfy 0 < lo <= hi < 1")
    count = int(round((hi - lo) / step)) + 1
    grid = np.round(lo + step * np.arange(count), 12)  # drop float-step noise
    return grid[(grid > 0.0) & (grid < 1.0)]


def fit(
    data,
    omega_grid: Sequence[float] | None = None,
    n_samples: int | None = None,
) -> FitResult:
    """Grid search over segmentation points; return the lowest-MSE candidate.

    The data need at least 29 values, one per control point.  Exact ties
    go to the smaller omega.  Candidates whose normal equations
    cannot be factorized are recorded with an infinite score and skipped;
    if every candidate fails, IllConditionedError (a RuntimeError) is
    raised.  The selection depends only on the candidate set, not on
    evaluation order.
    """
    f = _data_values(data)
    if f.size < NUM_PIECEWISE_BASIS:
        raise ValueError(
            f"need at least {NUM_PIECEWISE_BASIS} data points (one per control), got {f.size}"
        )
    grid = np.asarray(
        default_omega_grid() if omega_grid is None else omega_grid, dtype=float
    )
    if grid.size == 0:
        raise ValueError("empty segmentation-point grid")
    if np.any((grid <= 0.0) | (grid >= 1.0)):
        raise ValueError("all grid candidates must lie in (0, 1)")

    points = data_points(f)
    params = chord_length_params(points)
    ts = _sample_params(SAMPLES_PER_DAY * f.size if n_samples is None else n_samples)

    scores: list[tuple[float, float]] = []
    best = None  # (mse, omega, curve, discretized) of the best candidate so far
    for omega in map(float, grid):
        try:
            controls = solve_normal_equations(assemble_design(params, omega), points)
        except IllConditionedError:
            scores.append((omega, float("inf")))
            continue
        curve = PiecewiseCurve(omega, controls)
        discretized = _discretize_curve(curve, ts, f.size)
        score = mse(discretized, f)
        scores.append((omega, score))
        if best is None or (score, omega) < best[:2]:
            best = (score, omega, curve, discretized)

    if best is None:
        raise IllConditionedError("every segmentation-point candidate was ill-conditioned")

    scores.sort(key=lambda item: item[0])
    score, _, curve, discretized = best
    return FitResult(curve, discretized, score, scores)


def fit_fixed_omega(data, omega: float, n_samples: int | None = None) -> FitResult:
    """Fit and score the curve for one fixed segmentation point: `fit` on [omega]."""
    return fit(data, [omega], n_samples)
