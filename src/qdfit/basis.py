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

There is one evaluator: `quasi_basis_matrix` runs the Cox-de Boor
recurrence over the explicit knot vector, vectorized over all parameters,
and `piecewise_basis_matrix` calls it once on both segments' parameters.
The fit's design matrix and the `basis` CLI dump go through it.  Curve
evaluation uses the pp-form (piecewise power basis) of the same functions:
`pp_table` derives it from `quasi_basis_matrix` on first use, `pp_curve`
folds a curve's controls into it, `piecewise_spans` locates parameters by
the same segment and span rules, and `pp_eval` evaluates by Horner's rule.
The test suite checks both forms against the explicit piecewise
polynomials, which live with the tests.

`piecewise_basis_matrix`, `piecewise_spans` and `pp_curve` also take a
stack of g curves (a 1-D array of omegas, controls of shape (g, 29, d)),
so that a fit scores many segmentation points per call.  Every row is
computed exactly as for one curve, so the stacked results equal the
per-curve ones bit for bit.

Convention: basis supports are half-open on the right, except that the
span ending at the domain end is closed there, so the last basis function
evaluates to 1 at t=1.
"""

from __future__ import annotations

import functools

import numpy as np

DEGREE = 5
ORDER = DEGREE + 1
NUM_QUASI_BASIS = 15
NUM_PIECEWISE_BASIS = 29
NUM_SPANS = NUM_QUASI_BASIS - DEGREE  # knot spans of the base family


def make_knot_vector() -> np.ndarray:
    """Return the clamped uniform knot vector: 0 x6, 0.1 ... 0.9, 1 x6 (21 values)."""
    return np.concatenate([np.zeros(ORDER), np.arange(1, 10) / 10.0, np.ones(ORDER)])


_KNOTS = make_knot_vector()


def _check_params(ts: np.ndarray) -> np.ndarray:
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be one-dimensional")
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
        raise ValueError("parameters must lie in [0, 1]")
    return ts


def _knot_spans(ts: np.ndarray) -> np.ndarray:
    """Index i into the knot vector of the span [knot_i, knot_i+1) holding each t;
    t = 1 belongs to the last nonempty span."""
    spans = np.searchsorted(_KNOTS, ts, side="right") - 1
    np.clip(spans, DEGREE, NUM_QUASI_BASIS - 1, out=spans)
    return spans


def quasi_basis_matrix(ts: np.ndarray) -> np.ndarray:
    """Base-family design matrix: row k holds the 15 basis values at ts[k].

    The Cox-de Boor recurrence, run bottom-up for all parameters at once
    (only the ORDER nonzero functions per knot span are computed, then
    scattered into the full 15-column row).
    """
    ts = _check_params(ts)
    m = ts.shape[0]
    spans = _knot_spans(ts)

    vals = np.zeros((m, ORDER))
    vals[:, 0] = 1.0
    left = np.zeros((m, ORDER))
    right = np.zeros((m, ORDER))
    for j in range(1, ORDER):
        left[:, j] = ts - _KNOTS[spans + 1 - j]
        right[:, j] = _KNOTS[spans + j] - ts
        saved = np.zeros(m)
        for r in range(j):
            temp = vals[:, r] / (right[:, r + 1] + left[:, j - r])
            vals[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        vals[:, j] = saved

    out = np.zeros((m, NUM_QUASI_BASIS))
    cols = spans[:, None] + np.arange(-DEGREE, 1)
    out[np.arange(m)[:, None], cols] = vals
    return out


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


def piecewise_basis_matrix(ts: np.ndarray, omega) -> np.ndarray:
    """Two-piece design matrix: row k holds the 29 basis values at ts[k].

    For a 1-D array of g omegas the result is the stack (g, len(ts), 29)
    of the matrices for each omega.
    """
    right, tau = _segment_params(_check_params(ts), _check_omega(omega))
    rows = quasi_basis_matrix(tau.ravel())
    right = right.reshape(-1, 1)
    out = np.zeros((right.size, NUM_PIECEWISE_BASIS))
    np.copyto(out[:, :NUM_QUASI_BASIS], rows, where=~right)
    np.copyto(out[:, NUM_QUASI_BASIS - 1 :], rows, where=right)
    return out.reshape(tau.shape + (NUM_PIECEWISE_BASIS,))


def _segment_params(ts: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split parameters at omega: t < omega goes to the left segment.

    Returns the right-segment mask and each t's segment parameter tau,
    t/omega on the left and (t - omega)/(1 - omega) on the right, with
    one row per omega when omega is a 1-D array.
    """
    omega = omega[..., None]
    right = ~(ts < omega)
    tau = ts / omega
    np.divide(ts - omega, 1.0 - omega, out=tau, where=right)
    return right, tau


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


def piecewise_spans(ts: np.ndarray, omega) -> tuple[np.ndarray, np.ndarray]:
    """Locate parameters for pp-form evaluation of the two-piece family.

    Returns, per t, the span index (0..9 on the left segment, 10..19 on the
    right) and the local variable u = 10 tau - s on that span, where tau is
    the segment's parameter from the split `piecewise_basis_matrix` uses.
    For a 1-D array of g omegas both have shape (g, len(ts)), and row i's
    spans are offset by 20 i: they index the stack `pp_curve` returns for
    g controls.
    """
    omega = _check_omega(omega)
    ts = _check_params(ts)
    # in-place steps: the fit calls this on 20 samples per day per candidate
    right, tau = _segment_params(ts, omega)
    spans = _knot_spans(tau)
    spans -= DEGREE
    tau *= NUM_SPANS
    tau -= spans  # now u
    np.add(spans, NUM_SPANS, out=spans, where=right)
    if omega.ndim:
        spans[1:] += 2 * NUM_SPANS * np.arange(1, omega.size)[:, None]
    return spans, tau


def pp_curve(controls: np.ndarray) -> np.ndarray:
    """Power-basis coefficients of the curve sum_i N_i C_i per span.

    `controls` has shape (29, d), or (g, 29, d) for g curves; the result
    has shape (20 g, 6, d), entry [span, p] being the u**p coefficient on
    the spans `piecewise_spans` numbers (curve i owns spans 20 i .. 20 i +
    19).  Span s of a segment combines that segment's controls s..s+5 (the
    left segment holds controls 0..14, the right one 14..28) with
    `pp_table`.
    """
    windows = np.arange(NUM_SPANS)[:, None] + np.arange(ORDER)
    table = pp_table().transpose(0, 2, 1)
    left = table @ controls[..., windows, :]
    right = table @ controls[..., NUM_QUASI_BASIS - 1 + windows, :]
    return np.concatenate([left, right], axis=-3).reshape(-1, ORDER, controls.shape[-1])


def pp_eval(polys: np.ndarray, spans: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Evaluate `pp_curve` coefficients at `piecewise_spans` output by Horner's rule.

    The result has shape spans.shape + polys.shape[2:].
    """
    us = us.reshape(us.shape + (1,) * (polys.ndim - 2))
    by_power = np.moveaxis(polys, 1, 0)
    out = by_power[DEGREE].take(spans, axis=0)
    for power in range(DEGREE - 1, -1, -1):
        out *= us
        out += by_power[power].take(spans, axis=0)
    return out
