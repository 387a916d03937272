"""References for the quintic base family, used only by the tests.

The 15 clamped quintic B-splines over [0 x6, 0.1, ..., 0.9, 1 x6] written out
as explicit piecewise polynomials.  They share no code with the Cox-de Boor
evaluator in `qdfit.basis`, so the tests compare that evaluator against them.
Supports are half-open on the right, so base function 14 is taken at t=1 by
reflection of function 0 at 0.

`basis_values_loop` is the Cox-de Boor recurrence as Piegl & Tiller's A2.2
writes it, one row r at a time; `qdfit.basis._basis_values` runs it one
degree level at a time and must equal it bit for bit.
"""

from __future__ import annotations

import numpy as np

from qdfit.basis import DEGREE, NUM_PIECEWISE_BASIS, NUM_QUASI_BASIS, ORDER, make_knot_vector

# Pieces are written in terms of the shifted variables T_i = t - 0.1 i.
# Functions 6..9 are translates of #5; 10..14 are reflections of 4..0.

def _q0(t: float) -> float:
    if 0.0 <= t < 0.1:
        return -1e5 * (t - 0.1) ** 5
    return 0.0


def _q1(t: float) -> float:
    if 0.0 <= t < 0.1:
        t0, t1, t2 = t, t - 0.1, t - 0.2
        return 1e4 * (
            10.0 * t0 * t1**4
            + 5.0 * t0 * t1**3 * t2
            + 2.5 * t0 * t1**2 * t2**2
            + 1.25 * t0 * t1 * t2**3
            + 0.625 * t0 * t2**4
        )
    if 0.1 <= t < 0.2:
        return -6250.0 * (t - 0.2) ** 5
    return 0.0


def _q2(t: float) -> float:
    t0, t1, t2, t3 = t, t - 0.1, t - 0.2, t - 0.3
    if 0.0 <= t < 0.1:
        return -1e4 * (
            5.0 * t0**2 * t1**3
            + 5.0 / 2.0 * t0**2 * t1**2 * t2
            + 5.0 / 4.0 * t0**2 * t1 * t2**2
            + 5.0 / 8.0 * t0**2 * t2**3
            + 5.0 / 3.0 * t0**2 * t1**2 * t3
            + 5.0 / 6.0 * t0**2 * t1 * t2 * t3
            + 5.0 / 12.0 * t0**2 * t2**2 * t3
            + 5.0 / 9.0 * t0**2 * t1 * t3**2
            + 5.0 / 18.0 * t0**2 * t2 * t3**2
            + 5.0 / 27.0 * t0**2 * t3**3
        )
    if 0.1 <= t < 0.2:
        return 1e4 * (
            5.0 / 8.0 * t0 * t2**4
            + 5.0 / 12.0 * t0 * t2**3 * t3
            + 5.0 / 18.0 * t0 * t2**2 * t3**2
            + 5.0 / 27.0 * t0 * t2 * t3**3
            + 5.0 / 27.0 * t1 * t3**4
        )
    if 0.2 <= t < 0.3:
        return -50000.0 / 27.0 * t3**5
    return 0.0


def _q3(t: float) -> float:
    t0, t1, t2, t3, t4 = t, t - 0.1, t - 0.2, t - 0.3, t - 0.4
    if 0.0 <= t < 0.1:
        return 1e4 * (
            5.0 / 3.0 * t0**3 * t1**2
            + 5.0 / 6.0 * t0**3 * t1 * t2
            + 5.0 / 12.0 * t0**3 * t2**2
            + 5.0 / 9.0 * t0**3 * t1 * t3
            + 5.0 / 18.0 * t0**3 * t2 * t3
            + 5.0 / 27.0 * t0**3 * t3**2
            + 5.0 / 12.0 * t0**3 * t1 * t4
            + 5.0 / 24.0 * t0**3 * t2 * t4
            + 5.0 / 36.0 * t0**3 * t3 * t4
            + 5.0 / 48.0 * t0**3 * t4**2
        )
    if 0.1 <= t < 0.2:
        return -1e4 * (
            5.0 / 12.0 * t0**2 * t2**3
            + 5.0 / 18.0 * t0**2 * t2**2 * t3
            + 5.0 / 27.0 * t0**2 * t2 * t3**2
            + 5.0 / 27.0 * t0 * t1 * t3**3
            + 5.0 / 24.0 * t0**2 * t2**2 * t4
            + 5.0 / 36.0 * t0**2 * t2 * t3 * t4
            + 5.0 / 36.0 * t0 * t1 * t3**2 * t4
            + 5.0 / 48.0 * t0**2 * t2 * t4**2
            + 5.0 / 48.0 * t0 * t1 * t3 * t4**2
            + 5.0 / 48.0 * t1**2 * t4**3
        )
    if 0.2 <= t < 0.3:
        return 1e4 * (
            5.0 / 27.0 * t0 * t3**4
            + 5.0 / 36.0 * t0 * t3**3 * t4
            + 5.0 / 48.0 * t0 * t3**2 * t4**2
            + 5.0 / 48.0 * t1 * t3 * t4**3
            + 5.0 / 48.0 * t2 * t4**4
        )
    if 0.3 <= t < 0.4:
        return -3125.0 / 3.0 * t4**5
    return 0.0


def _q4(t: float) -> float:
    t0, t1, t2, t3, t4, t5 = t, t - 0.1, t - 0.2, t - 0.3, t - 0.4, t - 0.5
    if 0.0 <= t < 0.1:
        return -1e4 * (
            5.0 / 12.0 * t0**4 * t1
            + 5.0 / 24.0 * t0**4 * t2
            + 5.0 / 36.0 * t0**4 * t3
            + 5.0 / 48.0 * t0**4 * t4
            + 1.0 / 12.0 * t0**4 * t5
        )
    if 0.1 <= t < 0.2:
        return 1e4 * (
            5.0 / 24.0 * t0**3 * t2**2
            + 5.0 / 36.0 * t0**3 * t2 * t3
            + 5.0 / 36.0 * t0**2 * t1 * t3**2
            + 5.0 / 48.0 * t0**3 * t2 * t4
            + 5.0 / 48.0 * t0**2 * t1 * t3 * t4
            + 5.0 / 48.0 * t0 * t1**2 * t4**2
            + 1.0 / 12.0 * t0**3 * t2 * t5
            + 1.0 / 12.0 * t0**2 * t1 * t3 * t5
            + 1.0 / 12.0 * t0 * t1**2 * t4 * t5
            + 1.0 / 12.0 * t1**3 * t5**2
        )
    if 0.2 <= t < 0.3:
        return -1e4 * (
            5.0 / 36.0 * t0**2 * t3**3
            + 5.0 / 48.0 * t0**2 * t3**2 * t4
            + 5.0 / 48.0 * t0 * t1 * t3 * t4**2
            + 5.0 / 48.0 * t0 * t2 * t4**3
            + 1.0 / 12.0 * t0**2 * t3**2 * t5
            + 1.0 / 12.0 * t0 * t1 * t3 * t4 * t5
            + 1.0 / 12.0 * t0 * t2 * t4**2 * t5
            + 1.0 / 12.0 * t1**2 * t3 * t5**2
            + 1.0 / 12.0 * t1 * t2 * t4 * t5**2
            + 1.0 / 12.0 * t2**2 * t5**3
        )
    if 0.3 <= t < 0.4:
        return 1e4 * (
            5.0 / 48.0 * t0 * t4**4
            + 1.0 / 12.0 * t0 * t4**3 * t5
            + 1.0 / 12.0 * t1 * t4**2 * t5**2
            + 1.0 / 12.0 * t2 * t4 * t5**3
            + 1.0 / 12.0 * t3 * t5**4
        )
    if 0.4 <= t < 0.5:
        return -2500.0 / 3.0 * t5**5
    return 0.0


def _q5(t: float) -> float:
    t0, t1, t2, t3, t4, t5, t6 = (t - 0.1 * i for i in range(7))
    if 0.0 <= t < 0.1:
        return 2500.0 / 3.0 * t0**5
    if 0.1 <= t < 0.2:
        return -2500.0 / 3.0 * (
            t0**4 * t2
            + t0**3 * t1 * t3
            + t0**2 * t1**2 * t4
            + t0 * t1**3 * t5
            + t1**4 * t6
        )
    if 0.2 <= t < 0.3:
        return 2500.0 / 3.0 * (
            t0**3 * t3**2
            + t0**2 * t1 * t3 * t4
            + t0**2 * t2 * t4**2
            + t0 * t1**2 * t3 * t5
            + t0 * t1 * t2 * t4 * t5
            + t0 * t2**2 * t5**2
            + t1**3 * t3 * t6
            + t1**2 * t2 * t4 * t6
            + t1 * t2**2 * t5 * t6
            + t2**3 * t6**2
        )
    if 0.3 <= t < 0.4:
        return -2500.0 / 3.0 * (
            t0**2 * t4**3
            + t0 * t1 * t4**2 * t5
            + t0 * t2 * t4 * t5**2
            + t0 * t3 * t5**3
            + t1**2 * t4**2 * t6
            + t1 * t2 * t4 * t5 * t6
            + t1 * t3 * t5**2 * t6
            + t2**2 * t4 * t6**2
            + t2 * t3 * t5 * t6**2
            + t3**2 * t6**3
        )
    if 0.4 <= t < 0.5:
        return 2500.0 / 3.0 * (
            t0 * t5**4
            + t1 * t5**3 * t6
            + t2 * t5**2 * t6**2
            + t3 * t5 * t6**3
            + t4 * t6**4
        )
    if 0.5 <= t < 0.6:
        return -2500.0 / 3.0 * t6**5
    return 0.0


_DIRECT_FORMS = (_q0, _q1, _q2, _q3, _q4, _q5)


def eval_basis_closed_form(i: int, t: float) -> float:
    """Value of base function i at t from the explicit piecewise polynomials.

    Indices 6..9 use the translation rule (copies of #5 shifted by 0.1
    each), indices 10..14 the reflection rule (mirror images of 4..0).
    """
    if not 0 <= i < NUM_QUASI_BASIS:
        raise IndexError(f"basis index {i} out of range 0..{NUM_QUASI_BASIS - 1}")
    t = float(t)
    if i <= 5:
        return _DIRECT_FORMS[i](t)
    if i <= 9:
        return _q5(t - 0.1 * (i - 5))
    return _DIRECT_FORMS[14 - i](1.0 - t)


def closed_form_row(t: float) -> np.ndarray:
    """All 15 base-function values at t from the closed forms."""
    return np.array([eval_basis_closed_form(i, t) for i in range(NUM_QUASI_BASIS)])


def closed_form_piecewise_row(t: float, omega: float) -> np.ndarray:
    """All 29 two-piece values at t: the left copy on t/omega for t < omega,
    the right copy on (t - omega)/(1 - omega) otherwise, sharing slot 14."""
    out = np.zeros(NUM_PIECEWISE_BASIS)
    if t < omega:
        out[:NUM_QUASI_BASIS] = closed_form_row(t / omega)
    else:
        out[NUM_QUASI_BASIS - 1 :] = closed_form_row((t - omega) / (1.0 - omega))
    return out


def basis_values_loop(ts: np.ndarray, spans: np.ndarray) -> np.ndarray:
    """`qdfit.basis._basis_values` by A2.2's inner loop over r, vectorized over t."""
    knots = make_knot_vector()
    m = ts.size
    vals = np.empty((ORDER, m))
    left = np.empty((ORDER, m))
    right = np.empty((ORDER, m))
    temp = np.empty(m)
    saved = np.empty(m)
    vals[0] = 1.0
    for j in range(1, ORDER):
        np.take(knots[ORDER - j :], spans, out=left[j], mode="clip")
        np.subtract(ts, left[j], out=left[j])  # t - knot_{s+6-j}
        np.take(knots[DEGREE + j :], spans, out=right[j], mode="clip")
        right[j] -= ts  # knot_{s+5+j} - t
        saved.fill(0.0)
        for r in range(j):
            np.add(right[r + 1], left[j - r], out=temp)
            np.divide(vals[r], temp, out=temp)
            np.multiply(right[r + 1], temp, out=vals[r])
            vals[r] += saved
            np.multiply(left[j - r], temp, out=saved)
        vals[j] = saved
    return vals
