"""Least-squares fitting of a two-piece quintic B-spline curve to day counts.

`fit` turns the data into points and chord-length parameters once, then
scores the segmentation-point candidates omega of the grid in chunks, a
few candidates at a time, each step stacked over the chunk:

    data (k, f_k)  ->  chord-length parameters t_k              (once)
                   ->  design matrices  phi[g, k, i] = N_i(t_k; omega_g)
                   ->  normal equations  (phi' phi + ridge) C = phi' P,
                       factorized one candidate at a time
                   ->  x(t) of the fitted curves at the uniform samples, in pp-form
                   ->  discretization back onto the day grid, evaluating
                       y(t) only at the samples it uses
                   ->  mean square error against f_k, per candidate

and keeps the best candidate seen so far.  A chunk holds as many
candidates as fit in CHUNK_SAMPLES curve samples, which bounds its memory.
`fit` allocates the work arrays of its first, largest chunk once, the
design stack and four arrays per curve sample, and every chunk writes into
views of them, so that their memory is not given back to the OS and
faulted in again between chunks.  Every stacked step is elementwise or
runs the same BLAS/LAPACK routine per candidate, so the results equal
those of fitting one candidate at a time, bit for bit.  `fit_fixed_omega`
is `fit` on a one-candidate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (
    NUM_PIECEWISE_BASIS,
    _check_omega,
    piecewise_basis_matrix,
    piecewise_spans,
    pp_curve,
    pp_eval,
)
from .ingest import check_window_values

# ridge is RIDGE_SCALE * trace(phi'phi)/29; rescues candidates where one
# segment holds few points without perturbing well-posed solves
RIDGE_SCALE = 1e-10

DEFAULT_OMEGA_MIN = 0.10
DEFAULT_OMEGA_MAX = 0.90
DEFAULT_OMEGA_STEP = 0.01

# dense samples per day cell; keeps the max-below discretization rule stable
SAMPLES_PER_DAY = 20

# curve samples per chunk of grid candidates; bounds the fit's work arrays,
# which are its memory peak: spans, u, x and a Horner scratch, 32 bytes per
# sample (0.5 MB here), held for the whole fit, plus the design stack and
# the day rule's argsort.  Larger chunks grew the process's peak RSS on the
# lib-fit-windows benchmark workload (by 2% at 2**15 and 6% at 2**16,
# measured before the work arrays)
CHUNK_SAMPLES = 2**14


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


def _finite_values(data) -> np.ndarray:
    """The f values of a HistogramDistribution or a plain sequence; NaN and inf rejected."""
    f = np.asarray(getattr(data, "f", data), dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("data values must be finite (no NaN or inf)")
    return f


def data_points(f: np.ndarray) -> np.ndarray:
    """Pair day indices with values: rows (k, f_k), k = 1..N."""
    f = _finite_values(f)
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
    return cumulative / cumulative[-1]


def assemble_design(params: np.ndarray, omega, out: np.ndarray | None = None) -> np.ndarray:
    """Design matrix phi with phi[k, i] = N_i(t_k; omega), shape (N, 29).

    For a 1-D array of g omegas it is the stack (g, N, 29).  `out`, if
    given, is an array of the result's shape that it is written into.
    """
    return piecewise_basis_matrix(np.asarray(params, dtype=float), omega, out)


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of one Gram matrix."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"normal equations not factorizable: {exc}") from exc


def solve_normal_equations(design: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Solve (phi'phi + ridge I) C = phi'P for the 29 control points.

    Both planar coordinates are solved against the same symmetric
    factorization.  For one (N, 29) design it returns (29, 2) and raises
    IllConditionedError if the factorization fails, so grid search can
    skip the candidate.  For a stack (g, N, 29) of designs sharing the
    points it returns (g, 29, 2); a candidate whose factorization fails
    gets NaN controls, and the others are still solved.
    """
    design = np.asarray(design, dtype=float)
    points = np.asarray(points, dtype=float)
    if design.shape[-2] != points.shape[0]:
        raise ValueError(
            f"design has {design.shape[-2]} rows but {points.shape[0]} points given"
        )
    design_t = np.swapaxes(design, -1, -2)
    gram = design_t @ design
    rhs = design_t @ points
    size = gram.shape[-1]
    ridge = RIDGE_SCALE * np.trace(gram, axis1=-2, axis2=-1) / size
    diagonal = np.arange(size)
    gram[..., diagonal, diagonal] += np.asarray(ridge)[..., None]
    if gram.ndim == 2:
        lower = _cholesky(gram)
        return np.linalg.solve(lower.T, np.linalg.solve(lower, rhs))
    # one factorization per candidate: a stacked call fails the whole stack
    lower = np.empty_like(gram)
    failed = np.zeros(len(gram), dtype=bool)
    for i, one in enumerate(gram):
        try:
            lower[i] = _cholesky(one)
        except IllConditionedError:
            lower[i] = np.identity(size)
            failed[i] = True
    controls = np.linalg.solve(np.swapaxes(lower, -1, -2), np.linalg.solve(lower, rhs))
    controls[failed] = np.nan
    return controls


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
    """Index of the sample each day k = 1..n_days takes, by the rule of `discretize`.

    `xs` is one curve's sample x values, or one row per curve.
    """
    order = np.argsort(xs, axis=-1, kind="stable")  # stable: equal x keeps index order
    days = np.arange(1, n_days + 1, dtype=float)
    pos = np.empty(xs.shape[:-1] + (n_days,), dtype=np.intp)
    for row in np.ndindex(xs.shape[:-1]):
        pos[row] = np.searchsorted(xs[row], days, side="left", sorter=order[row])
    picked = np.take_along_axis(order, np.maximum(pos - 1, 0), axis=-1)
    return np.where(pos > 0, picked, 0)


def _discretize_curves(
    omega, controls: np.ndarray, ts: np.ndarray, n_days: int, work=(None,) * 4
) -> np.ndarray:
    """`discretize(PiecewiseCurve(omega, controls).at(ts), n_days)`, evaluating
    y only at the samples it uses.

    x is evaluated at every sample; y only at the <= n_days samples the day
    rule picks.  With a 1-D array of g omegas and controls (g, 29, 2) it
    does so for each curve and returns (g, n_days).  `work` holds the
    arrays of shape (g, len(ts)) that the spans (intp), u, x and
    intermediate values of every sample are written into; each is
    allocated where it is None.
    """
    polys = pp_curve(controls)
    spans, us, xs, scratch = work
    spans, us = piecewise_spans(ts, omega, (spans, us), scratch)
    used = _day_samples(pp_eval(polys[..., 0], spans, us, xs, scratch), n_days)
    spans = np.take_along_axis(spans, used, axis=-1)
    us = np.take_along_axis(us, used, axis=-1)
    return pp_eval(polys[..., 1], spans, us)


def mse(signal: np.ndarray, data) -> float:
    """Mean square deviation between a discretized signal and the data."""
    signal = np.asarray(signal, dtype=float)
    target = _finite_values(data)
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
    omega_grid: Sequence[float] | float | None = None,
    n_samples: int | None = None,
) -> FitResult:
    """Grid search over segmentation points; return the lowest-MSE candidate.

    The data must be finite and non-negative with a positive total, the
    rule `ingest.histogram` applies, and need at least 29 values, one per
    control point.  Grid candidates lie in (0, 1), the basis's rule, and a
    number is a one-candidate grid.  The curve takes n_samples samples, by
    default SAMPLES_PER_DAY per value.  Exact ties go to the smaller omega.
    Candidates whose normal equations cannot be factorized are recorded
    with an infinite score and skipped, and a non-finite score never wins;
    if no candidate scores finite, IllConditionedError (a RuntimeError) is
    raised.  The selection depends only on the candidate set, not on
    evaluation order.
    """
    f = check_window_values(getattr(data, "f", data))
    if f.size < NUM_PIECEWISE_BASIS:
        raise ValueError(
            f"need at least {NUM_PIECEWISE_BASIS} data points (one per control), got {f.size}"
        )
    grid = np.atleast_1d(_check_omega(default_omega_grid() if omega_grid is None else omega_grid))
    if grid.size == 0:
        raise ValueError("empty segmentation-point grid")

    points = data_points(f)
    params = chord_length_params(points)
    ts = _sample_params(SAMPLES_PER_DAY * f.size if n_samples is None else n_samples)
    # a candidate costs its curve samples or, when fewer than the default are
    # asked for, its design: a design row takes about the memory of
    # SAMPLES_PER_DAY samples
    per_chunk = max(1, CHUNK_SAMPLES // max(ts.size, SAMPLES_PER_DAY * f.size))
    size = min(per_chunk, grid.size)  # the first chunk is the largest
    design = np.empty((size, f.size, NUM_PIECEWISE_BASIS))
    sampling = [np.empty((size, ts.size), dtype) for dtype in (np.intp, float, float, float)]

    scores: list[tuple[float, float]] = []
    best = None  # (mse, omega, controls, discretized) of the best candidate so far
    for start in range(0, grid.size, per_chunk):
        chunk = grid[start : start + per_chunk]
        g = chunk.size
        controls = solve_normal_equations(assemble_design(params, chunk, design[:g]), points)
        signals = _discretize_curves(chunk, controls, ts, f.size, [a[:g] for a in sampling])
        for omega, control, signal in zip(chunk.tolist(), controls, signals):
            if np.isnan(control[0, 0]):  # the normal equations failed
                scores.append((omega, math.inf))
                continue
            score = mse(signal, f)
            scores.append((omega, score))
            if math.isfinite(score) and (best is None or (score, omega) < best[:2]):
                best = (score, omega, control, signal)

    if best is None:
        raise IllConditionedError(
            "every segmentation-point candidate was ill-conditioned or scored non-finite"
        )

    scores.sort(key=lambda item: item[0])
    score, omega, controls, discretized = best
    return FitResult(PiecewiseCurve(omega, controls.copy()), discretized.copy(), score, scores)


def fit_fixed_omega(data, omega: float, n_samples: int | None = None) -> FitResult:
    """Fit and score the curve for one fixed segmentation point: `fit` on [omega]."""
    return fit(data, [omega], n_samples)
