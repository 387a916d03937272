"""Least-squares fitting of a two-piece quintic B-spline curve to day counts.

`fit` turns the data into points and chord-length parameters t_k once,
then scores the segmentation-point candidates omega of the grid in one
loop over stacks of candidates, each step stacked over a stack:

    gate (a)  ->  design matrices  phi[g, k, i] = N_i(t_k; omega_g)
              ->  normal equations  phi' phi C = phi' P, one Cholesky call
              ->  gate (b)  ->  day values  ->  mean square error against f_k

and keeps the best candidate seen so far.  Gate (a) admits a candidate
whose design has full column rank, gate (b) one whose x controls strictly
increase; a candidate that fails either gets an infinite score (`null` in
the report).  Day k takes y(t*_k) where x(t*_k) = k, found by a fixed
number of Newton steps on the pp-form, so that reruns are byte-identical.
With N = 29 values the design is square: every admissible candidate
interpolates the data and scores at rounding level, so rounding picks the
winner, and every choice gives the same day values.

A stack holds as many candidates as their design rows fit in WORK_BYTES at
DESIGN_ROW_BYTES each, and `fit` allocates the design stack once per fit,
so that its memory is not given back to the OS and faulted in again
between stacks.  Every stacked step is elementwise or runs the same
BLAS/LAPACK routine per candidate, so the results equal those of fitting
one candidate at a time, bit for bit.  `fit_fixed_omega` is `fit` on a
one-candidate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .basis import (
    DEGREE,
    NUM_PIECEWISE_BASIS,
    NUM_QUASI_BASIS,
    NUM_SPANS,
    _check_omega,
    _knot_spans,
    _segment_params,
    horner,
    piecewise_basis_matrix,
    piecewise_spans,
    pp_curve,
    pp_derivative,
    pp_eval,
)
from .ingest import check_window_values

DEFAULT_OMEGA_MIN = 0.10
DEFAULT_OMEGA_MAX = 0.90
DEFAULT_OMEGA_STEP = 0.01

# samples per day of the max-below rule of `sample_curve` and `discretize`,
# which `fit` no longer uses; `fit` ignores its n_samples.  The benchmark
# still binds these names; they go with its next change (ROADMAP item 3)
SAMPLES_PER_DAY = 20

# Newton steps per day.  From the chord-length parameters two steps reach
# |x(t) - k| <= 1e-12 days on the golden corpus and the benchmark windows;
# fits to random noise need the third
NEWTON_STEPS = 3

# bytes of work memory a fit may take for its stacked steps: a stack holds
# as many candidates as their design rows fit in it (at least one), and the
# design stack is allocated once per fit.  Larger stacks grew the process's
# peak RSS on the lib-fit-windows benchmark workload (by 2% at twice this
# and 6% at four times, measured before the design stack was reused)
WORK_BYTES = 2**19

# a design row is charged 63 floats: its 29 and the transient work on it.
# By tracemalloc that work peaks at 30.5 floats a row in the basis
# evaluator (its Cox-de Boor block is 23 of them; gate (a) takes 7.5, the
# day values 15.4), plus the row's share of the stack's Gram matrices and
# factors: under one float from 120 days on, 34 at 29 days
DESIGN_ROW_BYTES = 8 * 63


class IllConditionedError(RuntimeError):
    """Normal equations could not be factorized for one omega candidate,
    or, raised by `fit`, no candidate on the grid could be scored."""


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


def _full_rank(params: np.ndarray, omegas: np.ndarray) -> np.ndarray:
    """Gate (a): which omegas give `assemble_design(params, omega)` full
    column rank, for increasing params; one bool per omega.

    Schoenberg-Whitney (de Boor, A Practical Guide to Splines, ch. XIII):
    full rank if and only if N_0..N_28 can take, in order, strictly
    increasing parameters at which each is nonzero.  By the design's own
    segment and span rule, row k is nonzero in the columns lo_k..hi_k: the
    six functions of t_k's span (from 14 on the right segment), one fewer
    where the segment parameter falls on the span's knot, and only the
    clamped one at t = 0 and t = omega (at t = 1 only column 28 is, but
    only N_28 may take the last parameter anyway).  Both bounds increase
    with k, so N_i is nonzero at the indices [a_i, b_i) found by binary
    search, and the greedy
    scan gives it k_i = max(k_{i-1} + 1, a_i), whose unrolled form is
    k_i = i + max_{j<=i} (a_j - j).  Full rank is every k_i < b_i.
    """
    right, tau = _segment_params(params, omegas)
    spans = _knot_spans(tau)
    at_knot = tau == spans / NUM_SPANS  # the knot s/10 that opens span s, exactly
    lo = spans + (NUM_QUASI_BASIS - 1) * right
    hi = lo + DEGREE - at_knot * np.where(spans == 0, DEGREE, 1)
    index = np.arange(NUM_PIECEWISE_BASIS)
    first = np.stack([np.searchsorted(row, index, side="left") for row in hi])  # a_i
    last = np.stack([np.searchsorted(row, index, side="right") for row in lo])  # b_i
    taken = np.maximum.accumulate(first - index, axis=1) + index
    return np.all(taken < last, axis=1)


def _cholesky(gram: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a Gram matrix, or of each of a stack of them."""
    try:
        return np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedError(f"normal equations not factorizable: {exc}") from exc


def solve_normal_equations(design: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Solve phi'phi C = phi'P for the 29 control points.

    Both planar coordinates are solved against the same symmetric
    factorization.  For one (N, 29) design it returns (29, 2) and raises
    IllConditionedError if the factorization fails, so grid search can
    skip the candidate.  For a stack (g, N, 29) of designs sharing the
    points it returns (g, 29, 2), factorizing the stack in one call; a
    candidate whose factorization fails gets NaN controls, and the others
    are still solved.
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
    failed = None
    try:
        lower = _cholesky(gram)  # LAPACK runs on each matrix of a stack in turn
    except IllConditionedError:
        if gram.ndim == 2:
            raise
        # a stacked call fails the whole stack: factorize one candidate at a time
        lower = np.empty_like(gram)
        failed = np.zeros(len(gram), dtype=bool)
        for i, one in enumerate(gram):
            try:
                lower[i] = _cholesky(one)
            except IllConditionedError:
                lower[i] = np.identity(len(one))
                failed[i] = True
    controls = np.linalg.solve(np.swapaxes(lower, -1, -2), np.linalg.solve(lower, rhs))
    if failed is not None:
        controls[failed] = np.nan
    return controls


def sample_curve(curve: PiecewiseCurve, n: int) -> np.ndarray:
    """Evaluate the curve at n uniform parameters, endpoints included.

    With `discretize` it is the max-below rule `fit` used before the exact
    one.  `fit` calls neither and ignores its n_samples; both go with the
    benchmark's next change (ROADMAP item 3), which stops binding them.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    return curve.at(np.linspace(0.0, 1.0, n))


def discretize(samples: np.ndarray, n_days: int) -> np.ndarray:
    """Reduce curve samples to one value per day k = 1..n_days, by the
    max-below rule `fit` used before the exact one.

    Day k takes the y of the sample whose x is the largest value strictly
    below k; ties on x go to the largest sample index.  Days with no
    sample to their left fall back to the first sample's y.  `fit` does
    not call it and ignores its n_samples; see `sample_curve`.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples to discretize")
    order = np.argsort(samples[:, 0], kind="stable")  # stable: equal x keeps index order
    days = np.arange(1, n_days + 1, dtype=float)
    pos = np.searchsorted(samples[:, 0], days, side="left", sorter=order)
    return samples[np.where(pos > 0, order[pos - 1], 0), 1]


def _day_values(omegas: np.ndarray, controls: np.ndarray, params: np.ndarray) -> np.ndarray:
    """The exact rule, y(t*_k) where x(t*_k) = k for days k = 1..N: (g, N)
    values for g curves (omegas (g,), controls (g, 29, 2) with increasing x).

    Day k is solved on the last span whose start x is <= k, in its local
    u in [0, 1], by NEWTON_STEPS steps from t_k's u, each clamped to [0, 1].
    Days below x(0) or above x(1) take t = 0 or t = 1.
    """
    polys = pp_curve(controls)
    xs, ys = polys[..., 0], polys[..., 1]
    days = np.arange(1.0, params.size + 1)
    per_curve = 2 * NUM_SPANS
    starts = xs[:, 0].reshape(-1, per_curve)  # x where each span starts
    spans = np.stack([np.searchsorted(x_starts, days, side="right") for x_starts in starts]) - 1
    spans.clip(0, per_curve - 1, out=spans)
    spans += per_curve * np.arange(len(starts))[:, None]
    # start from t_k, in u of the bracketing span: u(t_k) on t_k's own span,
    # shifted by the whole spans between them and clamped to the span
    chord_spans, us = piecewise_spans(params, omegas)
    us += chord_spans - spans
    us.clip(0.0, 1.0, out=us)
    # x and x' on each day's span, by power, gathered once
    x_coeffs = np.moveaxis(np.take(xs, spans, axis=0), -1, 0)
    slope_coeffs = np.moveaxis(np.take(pp_derivative(xs), spans, axis=0), -1, 0)
    for _ in range(NEWTON_STEPS):
        step = horner(x_coeffs, us)
        step -= days
        step /= horner(slope_coeffs, us)
        us -= step
        us.clip(0.0, 1.0, out=us)
    us[days < controls[:, :1, 0]] = 0.0  # x(0) and x(1) are the end controls' x
    us[days > controls[:, -1:, 0]] = 1.0
    return pp_eval(ys, spans, us)


def _mean_square(signal: np.ndarray, f: np.ndarray) -> float:
    """`mse` for data the caller has checked already, as `fit` has."""
    diff = signal - f
    return float(diff @ diff / signal.size)


def mse(signal: np.ndarray, data) -> float:
    """Mean square deviation between a discretized signal and the data."""
    signal = np.asarray(signal, dtype=float)
    target = _finite_values(data)
    if signal.shape != target.shape:
        raise ValueError(f"length mismatch: {signal.shape} vs {target.shape}")
    return _mean_square(signal, target)


def default_omega_grid(
    lo: float = DEFAULT_OMEGA_MIN,
    hi: float = DEFAULT_OMEGA_MAX,
    step: float = DEFAULT_OMEGA_STEP,
) -> np.ndarray:
    """Uniform candidate grid, inclusive of both ends (default 0.10..0.90 by 0.01)."""
    if not step > 0.0:
        raise ValueError("omega grid step must be positive")
    if not (0.0 < lo <= hi < 1.0):
        raise ValueError("omega grid bounds must satisfy 0 < lo <= hi < 1")
    count = int((hi - lo) / step * (1.0 + 1e-9)) + 1  # steps within hi, division noise forgiven
    grid = np.round(lo + step * np.arange(count), 12)  # drop float-step noise
    return np.clip(grid, lo, hi)  # the rounding may not leave [lo, hi]


def fit(
    data,
    omega_grid: Sequence[float] | float | None = None,
    n_samples: int | None = None,
) -> FitResult:
    """Grid search over segmentation points; return the lowest-MSE candidate.

    The data must be finite and non-negative with a positive total, the
    rule `ingest.histogram` applies, and need at least 29 values, one per
    control point.  Grid candidates lie in (0, 1), the basis's rule, and a
    number is a one-candidate grid.  `n_samples` is ignored: the curve is
    discretized exactly, not sampled.  The benchmark still passes it; it
    goes with the benchmark's next change (ROADMAP item 3).  Exact ties go
    to the smaller omega.  A candidate whose design is rank-deficient (gate
    (a)), whose normal equations cannot be factorized, or whose x controls
    do not strictly increase (gate (b)) is recorded with an infinite score
    and skipped, and a non-finite score never wins; if no candidate scores
    finite, IllConditionedError (a RuntimeError) is raised.  The selection
    depends only on the candidate set, not on evaluation order.
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
    per_stack = min(grid.size, max(1, WORK_BYTES // (DESIGN_ROW_BYTES * f.size)))
    design = np.empty((per_stack, f.size, NUM_PIECEWISE_BASIS))
    scores: list[tuple[float, float]] = []
    best = None  # (mse, omega, controls, discretized) of the best candidate so far
    for start in range(0, grid.size, per_stack):
        stack = grid[start : start + per_stack]
        stack_scores = np.full(stack.size, math.inf)
        passed = np.flatnonzero(_full_rank(params, stack))  # gate (a)
        if passed.size:
            design_stack = assemble_design(params, stack[passed], design[: passed.size])
            controls = solve_normal_equations(design_stack, points)
            # gate (b); a failed solve left NaN controls, which fail it too
            increasing = np.all(np.diff(controls[..., 0], axis=-1) > 0.0, axis=-1)
            passed, controls = passed[increasing], controls[increasing]
        if passed.size:
            signals = _day_values(stack[passed], controls, params)
            for i, control, signal in zip(passed, controls, signals):
                stack_scores[i] = score = _mean_square(signal, f)
                omega = float(stack[i])
                if math.isfinite(score) and (best is None or (score, omega) < best[:2]):
                    best = (score, omega, control, signal)
        scores.extend(zip(stack.tolist(), stack_scores.tolist()))

    if best is None:
        raise IllConditionedError(
            "every segmentation-point candidate was inadmissible, ill-conditioned or scored non-finite"
        )

    scores.sort(key=lambda item: item[0])
    score, omega, controls, discretized = best
    return FitResult(PiecewiseCurve(omega, controls.copy()), discretized.copy(), score, scores)


def fit_fixed_omega(data, omega: float, n_samples: int | None = None) -> FitResult:
    """Fit and score the curve for one fixed segmentation point: `fit` on
    [omega].  `n_samples` is ignored, as by `fit`."""
    return fit(data, [omega], n_samples)
