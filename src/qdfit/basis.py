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
and `piecewise_basis_matrix` composes two calls of it.  The fit, the curve
sampler and the `basis` CLI dump all go through it.  The test suite checks
it against the explicit piecewise polynomials, which live with the tests.

Convention: basis supports are half-open on the right, except that the
span ending at the domain end is closed there, so the last basis function
evaluates to 1 at t=1.
"""

from __future__ import annotations

import numpy as np

DEGREE = 5
ORDER = DEGREE + 1
NUM_QUASI_BASIS = 15
NUM_PIECEWISE_BASIS = 29


def make_knot_vector() -> np.ndarray:
    """Return the clamped uniform knot vector: 0 x6, 0.1 ... 0.9, 1 x6 (21 values)."""
    return np.concatenate([np.zeros(ORDER), np.arange(1, 10) / 10.0, np.ones(ORDER)])


_KNOTS = make_knot_vector()


def quasi_basis_matrix(ts: np.ndarray) -> np.ndarray:
    """Base-family design matrix: row k holds the 15 basis values at ts[k].

    The Cox-de Boor recurrence, run bottom-up for all parameters at once
    (only the ORDER nonzero functions per knot span are computed, then
    scattered into the full 15-column row).
    """
    ts = np.asarray(ts, dtype=float)
    if ts.ndim != 1:
        raise ValueError("ts must be one-dimensional")
    if ts.size and (ts.min() < 0.0 or ts.max() > 1.0):
        raise ValueError("parameters must lie in [0, 1]")
    m = ts.shape[0]
    spans = np.searchsorted(_KNOTS, ts, side="right") - 1
    np.clip(spans, DEGREE, NUM_QUASI_BASIS - 1, out=spans)

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

def _check_omega(omega: float) -> float:
    omega = float(omega)
    if not 0.0 < omega < 1.0:
        raise ValueError(f"segmentation point must lie in (0, 1), got {omega}")
    return omega


def piecewise_basis_matrix(ts: np.ndarray, omega: float) -> np.ndarray:
    """Two-piece design matrix: row k holds the 29 basis values at ts[k]."""
    omega = _check_omega(omega)
    ts = np.asarray(ts, dtype=float)
    out = np.zeros((ts.shape[0], NUM_PIECEWISE_BASIS))
    left = ts < omega
    if left.any():
        out[left, :NUM_QUASI_BASIS] = quasi_basis_matrix(ts[left] / omega)
    if (~left).any():
        us = (ts[~left] - omega) / (1.0 - omega)
        out[~left, NUM_QUASI_BASIS - 1:] = quasi_basis_matrix(us)
    return out
