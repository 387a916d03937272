"""scipy as an optional oracle for the numpy peak finder and normal-equation solver.

qdfit does not depend on scipy at runtime; these tests run only where it is
installed (it is part of the `test` extra).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdfit.fitting import assemble_design, solve_normal_equations
from qdfit.quasidist import find_peaks

scipy_linalg = pytest.importorskip("scipy.linalg")
scipy_signal = pytest.importorskip("scipy.signal")


def scipy_peaks(values, prominence_frac):
    """(1-based left edge, height, prominence) of every peak above the floor."""
    values = np.asarray(values, dtype=float)
    if values.size < 3:
        return []
    indices, props = scipy_signal.find_peaks(values, plateau_size=(1, None))
    if indices.size == 0:
        return []
    prominences = scipy_signal.peak_prominences(values, indices)[0]
    floor = prominence_frac * float(values.max())
    return [
        (int(edge) + 1, float(values[edge]), float(prom))
        for edge, prom in zip(props["left_edges"], prominences)
        if prom >= floor
    ]


# small integers make plateaus and ties common
small_ints = st.integers(min_value=0, max_value=4).map(float)
fractions = st.sampled_from([0.0, 0.05, 0.5, 1.0])


@given(st.lists(small_ints, max_size=40), fractions)
def test_find_peaks_matches_scipy(raw, prominence_frac):
    assert [tuple(p) for p in find_peaks(np.asarray(raw), prominence_frac)] == scipy_peaks(raw, prominence_frac)


@given(st.lists(st.one_of(small_ints, st.just(float("nan"))), max_size=40), fractions)
def test_find_peaks_matches_scipy_with_nan(raw, prominence_frac):
    # a NaN makes the floor NaN, so both sides must agree on reporting nothing
    assert [tuple(p) for p in find_peaks(np.asarray(raw), prominence_frac)] == scipy_peaks(raw, prominence_frac)


def scipy_solve(design, points):
    factor = scipy_linalg.cho_factor(design.T @ design)
    return scipy_linalg.cho_solve(factor, design.T @ points)


@pytest.mark.parametrize("seed", range(5))
def test_solve_matches_cho_solve_on_random_design(seed):
    rng = np.random.default_rng(seed)
    design = rng.normal(size=(60 + 40 * seed, 29))
    points = rng.normal(size=(design.shape[0], 2))
    expected = scipy_solve(design, points)
    np.testing.assert_allclose(
        solve_normal_equations(design, points), expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max()
    )


@pytest.mark.parametrize("omega", [0.2, 0.5, 0.8])
def test_solve_matches_cho_solve_on_spline_design(omega):
    rng = np.random.default_rng(7)
    params = np.linspace(0.0, 1.0, 400)
    design = assemble_design(params, omega)
    points = np.column_stack([1.0 + 399.0 * params, rng.random(400)])
    expected = scipy_solve(design, points)
    np.testing.assert_allclose(
        solve_normal_equations(design, points), expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max()
    )
