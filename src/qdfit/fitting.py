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

A stack holds as many candidates as have STACK_ROWS design rows between
them (at least one), and `fit` allocates the design stack once per fit, so
that its memory is not given back to the OS and faulted in again between
stacks.  Once a stack is solved its design is dead, and the day values
gather their coefficients into the same buffer.  Each step costs a fixed
number of numpy calls per stack: the parameters are split at the stack's
omegas once, for gate (a), the design and the Newton start, and each
binary search runs once over all the stack's rows.
Every stacked step is elementwise or runs the same BLAS/LAPACK routine per
candidate, so the results equal those of fitting one candidate at a time,
bit for bit.  `fit_fixed_omega` is `fit` on a one-candidate grid.
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
    ORDER,
    _check_omega,
    _segment_params,
    horner,
    piecewise_basis_matrix,
    pp_curve,
    pp_derivative,
)
from .ingest import _check_values, check_window_values

# samples per day of the max-below rule of `sample_curve` and `discretize`,
# which `fit` no longer uses; `fit` ignores its n_samples.  The benchmark
# still binds these names; they go with its next change (ROADMAP item 3)
SAMPLES_PER_DAY = 20

# Newton steps per day.  From the chord-length parameters two steps reach
# |x(t) - k| <= 1e-12 days on the golden corpus and the benchmark windows;
# fits to random noise need the third
NEWTON_STEPS = 3

# design rows per stack: a stack holds max(1, STACK_ROWS // N) candidates of
# an N-day window, and the design stack is allocated once per fit.  Each
# stacked step costs a fixed number of numpy calls, so larger stacks are
# faster but take more memory.  A fit's peak is 330-410 bytes a stacked
# row (the design itself takes 232).  While a stack is solved, its Gram
# matrices and their factors add 13 KB a candidate, which sets the peak at
# 60 days.  On the lib-fit-windows benchmark workload (2-vCPU Xeon) peak
# RSS was 0.8 MB (1.9%) above that of 2048 rows.  6144 rows fitted its
# windows about 3% faster, and raised the 120-day peak from 1.9 to 2.3 MB
STACK_ROWS = 5120


class IllConditionedError(RuntimeError):
    """Normal equations could not be factorized for one omega candidate,
    or, raised by `fit`, no candidate on the grid could be scored."""


@dataclass(frozen=True)
class PiecewiseCurve:
    """Planar curve B(t) = sum_i N_i(t; omega) C_i with 29 control points."""

    omega: float
    controls: np.ndarray  # (29, 2)

    def __post_init__(self) -> None:
        _check_omega(self.omega)
        controls = np.asarray(self.controls, dtype=float)
        if controls.shape != (NUM_PIECEWISE_BASIS, 2):
            raise ValueError(f"controls must have shape (29, 2), got {controls.shape}")
        _check_values(controls.reshape(-1), "controls")
        object.__setattr__(self, "controls", controls)

    def at(self, ts: np.ndarray) -> np.ndarray:
        """Curve points at the given parameters in [0, 1], shape (len(ts), 2).

        The design rows at ts times the controls, so that t = 0, omega and 1
        give control points 0, 14 and 28 exactly.
        """
        return piecewise_basis_matrix(np.atleast_1d(ts), self.omega) @ self.controls


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


def data_points(f: np.ndarray) -> np.ndarray:
    """Rows (k, f_k), k = 1..N, of values or a HistogramDistribution's f."""
    f = _check_values(getattr(f, "f", f))
    return np.column_stack([np.arange(1, f.size + 1, dtype=float), f])


def chord_length_params(points: np.ndarray) -> np.ndarray:
    """Cumulative chord-length parameters in [0, 1] for a point sequence.

    t_1 = 0, t_N = 1, and consecutive increments are proportional to the
    Euclidean distance between consecutive points, which must be distinct
    and pass `ingest._check_values` (under its bound no chord overflows).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] < 2:
        raise ValueError("need at least 2 points to parameterize")
    _check_values(points.reshape(-1), "points")
    chords = np.linalg.norm(np.diff(points, axis=0), axis=1)
    cumulative = np.concatenate([[0.0], np.cumsum(chords)])
    if np.any(chords == 0.0):
        raise ValueError("consecutive points must be distinct")
    return cumulative / cumulative[-1]


def assemble_design(params: np.ndarray, omega, out: np.ndarray | None = None, split=None) -> np.ndarray:
    """Design matrix phi with phi[k, i] = N_i(t_k; omega), shape (N, 29).

    For a 1-D array of g omegas it is the stack (g, N, 29).  `out`, if
    given, is an array of the result's shape that it is written into, and
    `split`, if given, the params' split at the omegas that `fit` has
    computed already (see `piecewise_basis_matrix`).
    """
    return piecewise_basis_matrix(np.asarray(params, dtype=float), omega, out, split)


def _search_rows(rows: np.ndarray, values: np.ndarray, side: str, bound: int) -> np.ndarray:
    """`np.searchsorted(row, values, side)` for each row of `rows`, in one call.

    `rows` (g, m) holds sorted rows of integers and `values` integers, all
    in 0..bound - 1.  Offsetting row r's keys and values by r * bound
    concatenates the rows into one sorted array, in which row r's values
    find their positions offset by r * m; the result has shape (g, values.size).
    """
    index = np.arange(len(rows))[:, None]
    found = np.searchsorted((rows + bound * index).reshape(-1), values + bound * index, side=side)
    found -= rows.shape[1] * index
    return found


def _full_rank(right: np.ndarray, tau: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """Gate (a): which omegas give `assemble_design(params, omega)` full
    column rank, for increasing params; one bool per omega.  It takes the
    design's split of the params at the omegas: the right-segment mask,
    segment parameters and knot spans of `_segment_params`, (g, N).

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
    at_knot = tau == spans / NUM_SPANS  # the knot s/10 that opens span s, exactly
    lo = spans + (NUM_QUASI_BASIS - 1) * right
    hi = lo + DEGREE - at_knot * np.where(spans == 0, DEGREE, 1)
    index = np.arange(NUM_PIECEWISE_BASIS)
    first = _search_rows(hi, index, "left", NUM_PIECEWISE_BASIS)  # a_i
    last = _search_rows(lo, index, "right", NUM_PIECEWISE_BASIS)  # b_i
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
    IllConditionedError if the factorization fails.  For a stack (g, N, 29)
    of designs sharing the points it returns (g, 29, 2), factorizing the
    stack in one call; a candidate whose factorization fails gets NaN
    controls, and the others are still solved.
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
    """Curve points at n uniform parameters, endpoints included (see SAMPLES_PER_DAY)."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    return curve.at(np.linspace(0.0, 1.0, n))


def discretize(samples: np.ndarray, n_days: int) -> np.ndarray:
    """One value per day k = 1..n_days from curve samples by the max-below
    rule (see SAMPLES_PER_DAY): day k takes the y of the sample whose x is
    the largest strictly below k, ties on x going to the largest sample
    index; days with no sample to their left take the first sample's y."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no samples to discretize")
    order = np.argsort(samples[:, 0], kind="stable")  # stable: equal x keeps index order
    days = np.arange(1, n_days + 1, dtype=float)
    pos = np.searchsorted(samples[:, 0], days, side="left", sorter=order)
    return samples[np.where(pos > 0, order[pos - 1], 0), 1]


def _day_values(
    controls: np.ndarray,
    right: np.ndarray,
    tau: np.ndarray,
    spans: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """The exact rule, y(t*_k) where x(t*_k) = k for days k = 1..N: (g, N)
    values for g curves, given their controls (g, 29, 2) with increasing x
    and the split of the chord-length parameters t_k at their omegas, as
    `_full_rank` takes it.  `work` is a C-contiguous float array of at
    least 18 g N elements that may be overwritten, such as the design
    stack once it is solved; the coefficient gather goes into it.

    Day k is solved on the last span whose start x is <= k, in its local
    u in [0, 1], by NEWTON_STEPS steps from t_k's u, each clamped to [0, 1].
    Days below x(0) or above x(1) take t = 0 or t = 1.
    """
    polys = pp_curve(controls)
    xs = polys[..., 0]
    n_days = tau.shape[1]
    days = np.arange(1.0, n_days + 1)
    per_curve = 2 * NUM_SPANS
    # the last span whose start x is <= k: a span holds the days from the
    # first at or above its start x, so count the spans that hold day k
    first_days = np.searchsorted(days, xs[:, 0].reshape(-1, per_curve), side="left")
    brackets = _search_rows(first_days, np.arange(n_days), "right", n_days + 1) - 1
    brackets.clip(0, per_curve - 1, out=brackets)
    # start from t_k, in u of the bracketing span: u(t_k) on t_k's own span,
    # shifted by the whole spans between them and clamped to the span
    us = tau * NUM_SPANS
    us -= spans
    us += spans + NUM_SPANS * right - brackets
    us.clip(0.0, 1.0, out=us)
    # x, x' and y on each day's span by power, gathered once; x' gets a zero
    # u**5 coefficient, so that one Horner loop evaluates x and x' exactly
    table = np.zeros((ORDER, 3, len(polys)))
    table[:, 0] = xs.T
    table[:-1, 1] = pp_derivative(xs).T
    table[:, 2] = polys[..., 1].T
    brackets += per_curve * np.arange(len(brackets))[:, None]
    shape = (ORDER, 3) + brackets.shape
    work = work.reshape(-1)[: math.prod(shape)].reshape(shape)
    # mode="clip" (the brackets are in range anyway): with out= and the
    # default mode="raise", numpy gathers into a temporary copy of the
    # whole output and then copies it over
    coeffs = np.take(table, brackets, axis=2, out=work, mode="clip")  # (6, 3, g, N)
    for _ in range(NEWTON_STEPS):
        step, slope = horner(coeffs[:, :2], us)
        step -= days
        step /= slope
        us -= step
        us.clip(0.0, 1.0, out=us)
    us[days < controls[:, :1, 0]] = 0.0  # x(0) and x(1) are the end controls' x
    us[days > controls[:, -1:, 0]] = 1.0
    return horner(coeffs[:, 2], us)


def _mean_square(signal: np.ndarray, f: np.ndarray) -> float:
    """`mse` for data the caller has checked already, as `fit` has."""
    diff = signal - f
    return float(diff @ diff / signal.size)


def mse(signal: np.ndarray, data) -> float:
    """Mean square deviation between a discretized signal and the data."""
    signal = _check_values(signal, "signal")
    target = _check_values(getattr(data, "f", data))
    if signal.shape != target.shape:
        raise ValueError(f"length mismatch: {signal.shape} vs {target.shape}")
    return _mean_square(signal, target)


def default_omega_grid() -> np.ndarray:
    """The candidate grid of the CLI: 0.10..0.90 by 0.01, 81 values."""
    return np.arange(10, 91) / 100


def fit(
    data,
    omega_grid: Sequence[float] | float | None = None,
    n_samples: int | None = None,
) -> FitResult:
    """Grid search over segmentation points; return the lowest-MSE candidate.

    The data are `histogram`'s unit-sum fractions: chord lengths weigh a day
    against a unit of value, so raw counts may leave no candidate.  They must
    pass `ingest.check_window_values` (one-dimensional, finite, magnitude at
    most 1e150, non-negative, positive total), under which no chord length,
    normal equation or score overflows, and need at least 29 values.  The
    winning curve is held to the same rule, so data within a rounding error
    of the bound may be refused once fitted.  Grid candidates lie in (0, 1),
    the basis's rule, and a number is a one-candidate grid.  `n_samples` is
    ignored (see SAMPLES_PER_DAY).  Exact ties go to the smaller omega.  A
    candidate whose design is rank-deficient (gate (a)), whose normal
    equations cannot be factorized, or whose x controls do not strictly
    increase (gate (b)) is recorded with an infinite score and skipped, and
    a non-finite score never wins; if no candidate scores finite,
    IllConditionedError (a RuntimeError) is raised.  The selection depends
    only on the candidate set, not on evaluation order.
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
    per_stack = min(grid.size, max(1, STACK_ROWS // f.size))
    design = np.empty((per_stack, f.size, NUM_PIECEWISE_BASIS))
    scores: list[tuple[float, float]] = []
    best = None  # (mse, omega, controls, discretized) of the best candidate so far
    for start in range(0, grid.size, per_stack):
        stack = grid[start : start + per_stack]
        stack_scores = np.full(stack.size, math.inf)
        split = _segment_params(params, stack)
        full_rank = _full_rank(*split)  # gate (a)
        passed = np.flatnonzero(full_rank)
        if passed.size:
            split = tuple(part[full_rank] for part in split)
            design_stack = assemble_design(params, stack[passed], design[: passed.size], split)
            controls = solve_normal_equations(design_stack, points)
            # gate (b); a failed solve left NaN controls, which fail it too
            increasing = np.all(np.diff(controls[..., 0], axis=-1) > 0.0, axis=-1)
            passed, controls, *split = (part[increasing] for part in (passed, controls, *split))
        if passed.size:
            # the design is dead once solved: the day values gather into it
            signals = _day_values(controls, *split, work=design)
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


def fit_fixed_omega(data, omega: float) -> FitResult:
    """Fit and score the curve for one fixed segmentation point: `fit` on [omega]."""
    return fit(data, [omega])
