"""Quintic quasi-uniform B-spline basis on [0, 1] and its two-piece extension.

The base family is the 15 clamped quintic B-splines over the knot vector
[0 x6, 0.1, 0.2, ..., 0.9, 1 x6] (ten even subintervals, full end-knot
multiplicity, so the first/last basis functions interpolate at t=0/t=1).

The piecewise family N_0..N_28(t; omega) glues two copies of the base
family at a segmentation point omega in (0, 1): the left segment lives on
the local parameter t/omega, the right segment on (t - omega)/(1 - omega),
and the two segments share index 14.  A curve built on this basis is
therefore continuous at omega by construction: both one-sided limits equal
control point 14.

There is one evaluator: `_basis_values` runs the Cox-de Boor recurrence
over the explicit knot vector, vectorized over all parameters, and
`quasi_basis_matrix` and `piecewise_basis_matrix` (once on both segments'
parameters) scatter its nonzeros into design rows.  The fit's design
matrix goes through it, and so does `fitting.PiecewiseCurve.at`, the one
public way to evaluate a curve.  Only the fit's day rule uses the pp-form
(piecewise power basis) of the same functions: `pp_table` derives it from
`quasi_basis_matrix` on first use, `pp_curve` folds a curve's controls
into it, `pp_derivative` differentiates that, and `horner` evaluates it.
The test suite checks both forms against the explicit piecewise
polynomials, which live with the tests.

`piecewise_basis_matrix` and `pp_curve` also take a stack of g curves (a
1-D array of omegas, controls of shape (g, 29, d)), so that a fit scores
many segmentation points per call.  Every row is
computed exactly as for one curve, so the stacked results equal the
per-curve ones bit for bit.  `piecewise_basis_matrix` writes into an array
the caller passes as `out`, so that a fit can reuse one design stack for
all its stacks of candidates, and takes the split of the parameters that
the fit has computed already as `split`.

Convention: basis supports are half-open on the right, except that the
span ending at the domain end is closed there, so the last basis function
evaluates to 1 at t=1.
"""

from __future__ import annotations

import functools

import numpy as np

from .ingest import _check_values

DEGREE = 5
ORDER = DEGREE + 1
NUM_QUASI_BASIS = 15
NUM_PIECEWISE_BASIS = 29
NUM_SPANS = NUM_QUASI_BASIS - DEGREE  # knot spans of the base family
# design rows per `_basis_values` call in `piecewise_basis_matrix`: its work
# block takes 168 bytes a row, so a slice bounds it at 344 KB
SLICE_ROWS = 2048


def make_knot_vector() -> np.ndarray:
    """Return the clamped uniform knot vector: 0 x6, 0.1 ... 0.9, 1 x6 (21 values)."""
    return np.concatenate([np.zeros(ORDER), np.arange(1, 10) / 10.0, np.ones(ORDER)])


_KNOTS = make_knot_vector()
_SPAN_STARTS = _KNOTS[DEGREE:NUM_QUASI_BASIS]  # knot s/10 opening span s = 0..9


def _check_params(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if not np.all((0.0 <= ts) & (ts <= 1.0)):
        raise ValueError("parameters must lie in [0, 1]")
    return _check_values(ts, "ts")


def _knot_spans(ts: np.ndarray) -> np.ndarray:
    """Span s = 0..9 holding each t, the knot span [s/10, (s+1)/10); t = 1
    belongs to span 9.

    It is min(int(10 t), 9), less one where 10 t rounded up onto the next
    knot (the double just below 0.9 is one such t), which equals the knot
    search `searchsorted(_KNOTS, t, "right") - 1 - DEGREE`, clipped to
    0..9, for every t in [0, 1].
    """
    spans = np.empty(ts.shape, dtype=np.intp)
    np.multiply(ts, NUM_SPANS, out=spans, casting="unsafe")  # truncates: t >= 0
    np.minimum(spans, NUM_SPANS - 1, out=spans)
    spans -= ts < _SPAN_STARTS[spans]
    return spans


def _basis_values(ts: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """The ORDER base functions that are nonzero at each t: row j of the
    result, shape (ORDER, len(ts)), holds N_{s+j}(t) for t in span s.

    The Cox-de Boor recurrence (Piegl & Tiller, The NURBS Book, A2.2), run
    bottom-up for all parameters at once, one degree level at a time: level
    j updates the j rows r = 0..j-1 as (j, m) slices, each element by the
    same operations in the same order as A2.2's loop over r.  The result
    and the work rows are views of one block, allocated once per call;
    A2.2's left[j] and right[j], j = 1..5, are rows j - 1 here.
    """
    m = ts.size
    block = np.empty((ORDER + 3 * DEGREE, m))
    vals, left, right, temp = np.split(block, [ORDER, ORDER + DEGREE, ORDER + 2 * DEGREE])
    vals[0] = 1.0
    for j in range(1, ORDER):
        np.take(_KNOTS[ORDER - j :], spans, out=left[j - 1], mode="clip")
        np.subtract(ts, left[j - 1], out=left[j - 1])  # t - knot_{s+6-j}
        np.take(_KNOTS[DEGREE + j :], spans, out=right[j - 1], mode="clip")
        right[j - 1] -= ts  # knot_{s+5+j} - t
        lefts = left[j - 1 :: -1]  # row r holds A2.2's left[j - r]
        rights = right[:j]  # row r holds A2.2's right[r + 1]
        quotient = temp[:j]
        np.add(rights, lefts, out=quotient)
        np.divide(vals[:j], quotient, out=quotient)
        np.multiply(rights, quotient, out=vals[:j])
        quotient *= lefts  # row r is what A2.2 carries ("saved") into row r + 1
        vals[1:j] += quotient[: j - 1]
        vals[j] = quotient[j - 1]
    return vals


def _scatter_rows(vals: np.ndarray, first: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write `_basis_values` into the zeroed matrix `out`, one row per t:
    row k's ORDER values go to the columns first[k] .. first[k] + 5."""
    index = np.arange(0, out.size, out.shape[-1])
    index += first
    flat = out.reshape(-1)
    for row in vals:
        flat[index] = row
        index += 1
    return out


def quasi_basis_matrix(ts: np.ndarray) -> np.ndarray:
    """Base-family design matrix: row k holds the 15 basis values at ts[k]."""
    ts = _check_params(ts)
    spans = _knot_spans(ts)
    return _scatter_rows(_basis_values(ts, spans), spans, np.zeros((ts.size, NUM_QUASI_BASIS)))


# ---------------------------------------------------------------------------
# Two-piece basis
# ---------------------------------------------------------------------------

def _check_omega(omega) -> np.ndarray:
    """A segmentation point, or a 1-D array of them, as an array inside (0, 1)."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim > 1:
        raise ValueError("omega must be a number or a 1-D array")
    if not np.all((0.0 < omega) & (omega < 1.0)):
        raise ValueError(f"segmentation point must lie in (0, 1), got {omega}")
    return omega


def piecewise_basis_matrix(
    ts: np.ndarray,
    omega,
    out: np.ndarray | None = None,
    split: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Two-piece design matrix: row k holds the 29 basis values at ts[k].

    For a 1-D array of g omegas the result is the stack (g, len(ts), 29)
    of the matrices for each omega.  `out`, if given, is an array of the
    result's shape that the result is written into.  `split`, if given, is
    `_segment_params(ts, omega)` as a caller has computed it already; it is
    used as given, not checked or computed again.

    The rows are built SLICE_ROWS at a time, each slice's basis values
    written straight into its rows, so that the evaluator's work block
    stays small however many rows the stack holds.
    """
    if split is None:
        split = _segment_params(_check_params(ts), _check_omega(omega))
    shape = split[0].shape + (NUM_PIECEWISE_BASIS,)
    design = np.empty(shape) if out is None else out
    if design.shape != shape or not design.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    rows = design.reshape(-1, NUM_PIECEWISE_BASIS)
    right, tau, spans = (part.reshape(-1) for part in split)
    for start in range(0, len(rows), SLICE_ROWS):
        part = slice(start, start + SLICE_ROWS)
        first = (NUM_QUASI_BASIS - 1) * right[part]  # right functions are 14..28
        first += spans[part]
        rows[part].fill(0.0)
        _scatter_rows(_basis_values(tau[part], spans[part]), first, rows[part])
    return design


def _segment_params(ts: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split parameters at omega: t < omega goes to the left segment.

    Returns the split: the right-segment mask, each t's segment parameter
    tau, t/omega on the left and (t - omega)/(1 - omega) on the right, and
    tau's `_knot_spans`, with one row per omega when omega is a 1-D array.
    Both sides are computed everywhere and selected by the mask.
    """
    omega = omega[..., None]
    right = ts >= omega  # is ~(ts < omega): parameters are checked, never NaN
    tau = ts / omega
    right_tau = ts - omega
    right_tau /= 1.0 - omega
    np.copyto(tau, right_tau, where=right)
    return right, tau, _knot_spans(tau)


# ---------------------------------------------------------------------------
# pp-form: the basis as one polynomial per knot span
# ---------------------------------------------------------------------------

@functools.cache
def pp_table() -> np.ndarray:
    """Power-basis coefficients of the base family, shape (10, 6, 6), read-only.

    Entry [s, j, p] is the coefficient of u**p in N_{s+j} on span s, in the
    local variable u = 10 t - s (the other base functions vanish there).
    It is B-form to pp-form conversion (de Boor, A Practical Guide to
    Splines), done by one 6x6 Vandermonde solve per span against
    `quasi_basis_matrix` at interior points.  Built on first use, so that
    importing qdfit does no numerical work.
    """
    us = (np.arange(ORDER) + 0.5) / ORDER
    vandermonde = np.vander(us, ORDER, increasing=True)
    table = np.empty((NUM_SPANS, ORDER, ORDER))
    for s in range(NUM_SPANS):
        values = quasi_basis_matrix((s + us) / NUM_SPANS)[:, s : s + ORDER]
        table[s] = np.linalg.solve(vandermonde, values).T
    table.flags.writeable = False
    return table


def pp_curve(controls: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the curve sum_i N_i C_i per span.

    `controls` has shape (29, d), or (g, 29, d) for g curves; the result
    has shape (20 g, 6, d), entry [span, p] being the u**p coefficient:
    curve i owns spans 20 i .. 20 i + 19, 20 i + s being span s of its left
    segment and 20 i + 10 + s span s of its right one, in u = 10 tau - s.
    Span s of a segment combines that segment's controls s..s+5 (the left
    segment holds controls 0..14, the right one 14..28) with `pp_table`.
    """
    windows = np.arange(NUM_SPANS)[:, None] + np.arange(ORDER)
    table = pp_table().transpose(0, 2, 1)
    left = table @ controls[..., windows, :]
    right = table @ controls[..., NUM_QUASI_BASIS - 1 + windows, :]
    return np.concatenate([left, right], axis=-3).reshape(-1, ORDER, controls.shape[-1])


def pp_derivative(polys: np.ndarray) -> np.ndarray:
    """d/du of `pp_curve` coefficients: entry [span, p] is (p + 1) times the
    u**(p + 1) one.  The t-derivative is 10/omega times it on the left
    segment and 10/(1 - omega) on the right."""
    powers = np.arange(1, polys.shape[1]).reshape((-1,) + (1,) * (polys.ndim - 2))
    return polys[:, 1:] * powers


def horner(by_power, us: np.ndarray) -> np.ndarray:
    """Evaluate a polynomial at us by Horner's rule; by_power[p] holds the
    u**p coefficients, one per u (or broadcast against us)."""
    out = by_power[-1].copy()
    for coeffs in by_power[-2::-1]:
        out *= us
        out += coeffs
    return out
