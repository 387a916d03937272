"""`fit` scores the omega grid in stacks of candidates; it must give exactly
what the per-candidate loop in `fit_oracle.py` gives, and its Newton
iteration what bisection gives."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qdfit.basis as basis
import qdfit.cli
import qdfit.fitting as fitting
from fit_oracle import bisect_day_values, day_values, day_values_loop, fit_loop, split
from golden_cases import TRIM, _waves, run_scenario, scenarios
from qdfit.fitting import (
    IllConditionedError,
    PiecewiseCurve,
    assemble_design,
    chord_length_params,
    data_points,
    default_omega_grid,
    fit,
    solve_normal_equations,
)
from synthetic import two_bump_counts


def assert_same_fit(batched, looped):
    assert batched.omega == looped.omega
    assert batched.mse == looped.mse
    assert batched.omega_grid_scores == looped.omega_grid_scores
    np.testing.assert_array_equal(batched.curve.controls, looped.curve.controls)
    np.testing.assert_array_equal(batched.discretized, looped.discretized)


def two_bump(n_days):
    counts, _ = two_bump_counts(n_days, (0.3 * n_days, 0.76 * n_days), (0.06 * n_days, 0.08 * n_days))
    f = counts[3:-3] + 1.0
    return f / f.sum()


def per_stack(n_days):
    """Candidates per stack: design rows within the row budget."""
    return max(1, fitting.STACK_ROWS // n_days)


@pytest.mark.parametrize("n_days", [29, 60, 120, 250, 500, 2000])
def test_default_grid_matches_loop(n_days):
    # the 81 candidates fill no whole number of stacks below 2000 days
    f = two_bump(n_days)
    assert_same_fit(fit(f), fit_loop(f))


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_golden_inputs_match_loop(scenario, tmp_path, monkeypatch):
    calls = []

    def recording(data, omega_grid, n_samples=None):
        result = fit(data, omega_grid, n_samples)
        calls.append((data, omega_grid, result))
        return result

    monkeypatch.setattr(qdfit.cli, "fit", recording)
    run_scenario(scenario, tmp_path)
    assert calls
    for data, grid, result in calls:
        assert_same_fit(result, fit_loop(data, grid))


def test_grid_not_a_multiple_of_the_chunk():
    # the grid is scored a stack of candidates at a time; the last is short.
    # The window is long enough that a stack holds about 40 candidates, so
    # that two stacks and a bit fit inside (0, 1) at steps of 0.01
    rng = np.random.default_rng(41)
    f = rng.random(fitting.STACK_ROWS // 40) + 0.05
    f /= f.sum()
    size = per_stack(f.size)
    grid = np.round(0.12 + 0.01 * np.arange(2 * size + 3), 12)
    assert 1 < size and grid.size % size != 0
    assert grid[-1] < 1.0
    result = fit(f, grid)
    assert math.isinf(max(score for _, score in result.omega_grid_scores))  # gates fail some
    assert_same_fit(result, fit_loop(f, grid))


def test_one_candidate_grid():
    f = two_bump(120)
    assert_same_fit(fit(f, [0.43]), fit_loop(f, [0.43]))


@pytest.mark.parametrize("n_samples", [2, 3000])
def test_sample_counts_match_loop(n_samples):
    # fit ignores n_samples: the exact rule takes no samples
    f = two_bump(60)
    assert_same_fit(fit(f, n_samples=n_samples), fit_loop(f))


def test_basis_evaluated_once_per_chunk(monkeypatch):
    # the design of a whole stack is one call of the basis evaluator, plus
    # the pp table's one-time build (one call per knot span); gate (a) and
    # the discretization call it not at all
    real = basis._basis_values
    calls = []

    def counting(ts, spans):
        calls.append(len(ts))
        return real(ts, spans)

    monkeypatch.setattr(basis, "_basis_values", counting)
    basis.pp_table.cache_clear()
    f = two_bump(29)
    fit(f)
    grid_size = default_omega_grid().size
    assert len(calls) <= math.ceil(grid_size / per_stack(f.size)) + basis.NUM_SPANS
    assert per_stack(f.size) > 1


@pytest.mark.parametrize("n_days", [29, 120, 500, 2000])
def test_stacks_stay_within_the_row_budget(n_days, monkeypatch):
    # a stack of one candidate may exceed the row budget.  Gate (a) sees
    # the whole stack, the design only its full-rank candidates
    real_rank, real_design = fitting._full_rank, fitting.assemble_design
    stacks, designs = [], []

    def recording_rank(right, tau, spans):
        stacks.append(tau.shape)
        return real_rank(right, tau, spans)

    def recording_design(params, omega, out=None, split=None):
        designs.append(np.size(omega))
        return real_design(params, omega, out, split)

    monkeypatch.setattr(fitting, "_full_rank", recording_rank)
    monkeypatch.setattr(fitting, "assemble_design", recording_design)
    result = fit(two_bump(n_days))
    grid_size = default_omega_grid().size
    assert len(stacks) == math.ceil(grid_size / per_stack(n_days))
    for candidates, rows in stacks:
        assert rows == n_days
        assert candidates == 1 or candidates * rows <= fitting.STACK_ROWS
    params = chord_length_params(data_points(two_bump(n_days)))
    assert len(designs) <= len(stacks)
    assert sum(designs) == real_rank(*split(params, default_omega_grid())).sum()
    assert len(result.omega_grid_scores) == grid_size


def _lib_shape(shape, n_days):
    """A window of one of the benchmark's five shapes, smoothed and
    normalized as the CLI does: raw counts over the window plus 3 days a side."""
    n = n_days + 2 * TRIM
    raw = {
        "two_bump": _waves(n, ((0.3, 0.06, 1000.0), (0.76, 0.08, 800.0))) + 1.0,
        "single_peak": _waves(n, ((0.5, 0.12, 900.0),)) + 3.0,
        "step": np.where(np.arange(n) < 0.4 * n, 200.0, 500.0),
        "spike": np.where(np.arange(n) == n // 2, 1000.0, 2.0),
        "constant": np.full(n, 300.0),
    }[shape]
    smoothed = np.convolve(raw, np.ones(7) / 7.0, mode="valid")
    return smoothed / smoothed.sum()


def _gate_matches_rank(f):
    params = chord_length_params(data_points(f))
    grid = default_omega_grid()
    rank = [np.linalg.matrix_rank(assemble_design(params, omega)) for omega in grid]
    np.testing.assert_array_equal(fitting._full_rank(*split(params, grid)), np.equal(rank, 29))


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_full_rank_gate_matches_matrix_rank_on_golden_windows(scenario, tmp_path, monkeypatch):
    windows = []
    monkeypatch.setattr(qdfit.cli, "fit", lambda data, *args: windows.append(data.f) or fit(data, *args))
    run_scenario(scenario, tmp_path)
    assert windows
    for f in windows:
        _gate_matches_rank(f)


@pytest.mark.parametrize("n_days", [29, 60, 120])
@pytest.mark.parametrize("shape", ["two_bump", "single_peak", "step", "spike", "constant"])
def test_full_rank_gate_matches_matrix_rank_on_short_windows(shape, n_days):
    f = _lib_shape(shape, n_days)
    assert f.size == n_days
    _gate_matches_rank(f)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=29, max_size=70),
    st.sampled_from(list(default_omega_grid()[::4])),
)
def test_newton_matches_bisection_on_random_fits(values, omega):
    # random strictly increasing x controls, as least squares fits them to
    # random data at the chord-length parameters Newton starts from
    f = np.asarray(values) + 1e-3
    points = data_points(f / f.sum())
    params = chord_length_params(points)
    assume(fitting._full_rank(*split(params, np.array([omega])))[0])
    controls = solve_normal_equations(assemble_design(params, omega), points)
    assume(np.all(np.diff(controls[:, 0]) > 0.0))
    newton = day_values(np.array([omega]), controls[None], params)[0]
    expected = bisect_day_values(PiecewiseCurve(omega, controls), f.size)
    assert np.abs(newton - expected).max() <= 1e-12 * np.abs(controls[:, 1]).max()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=29, max_size=300),
    st.lists(st.sampled_from(list(default_omega_grid())), min_size=1, max_size=12),
)
def test_day_values_match_the_per_curve_loop(values, omegas):
    # one search per stack and one Horner loop for x and x' together give,
    # bit for bit, what a search per curve and two Horner loops give
    f = np.asarray(values) + 1e-3
    points = data_points(f / f.sum())
    params = chord_length_params(points)
    omegas = np.asarray(omegas)
    omegas = omegas[fitting._full_rank(*split(params, omegas))]
    assume(omegas.size)
    controls = solve_normal_equations(assemble_design(params, omegas), points)
    increasing = np.all(np.diff(controls[..., 0], axis=-1) > 0.0, axis=-1)
    assume(increasing.any())
    omegas, controls = omegas[increasing], controls[increasing]
    np.testing.assert_array_equal(
        day_values(omegas, controls, params), day_values_loop(omegas, controls, params)
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["left", "right"]))
def test_one_call_search_matches_the_per_row_loop(data, side):
    # small bounds give the ties within a row and the repeated values that
    # the row offsets must keep apart
    bound = data.draw(st.integers(min_value=1, max_value=40))
    width = data.draw(st.integers(min_value=1, max_value=8))
    keys = st.integers(min_value=0, max_value=bound - 1)
    sorted_row = st.lists(keys, min_size=width, max_size=width).map(sorted)
    rows = np.asarray(data.draw(st.lists(sorted_row, min_size=1, max_size=6)))
    values = np.asarray(data.draw(st.lists(keys, min_size=1, max_size=12)))
    expected = np.stack([np.searchsorted(row, values, side=side) for row in rows])
    np.testing.assert_array_equal(fitting._search_rows(rows, values, side, bound), expected)


GRID = np.round(0.1 + 0.05 * np.arange(17), 12)
F40 = two_bump(40)
F250 = two_bump(250)  # every GRID candidate passes both gates, so each is scored


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(list(GRID)), min_size=1, max_size=2 * per_stack(F40.size) + 2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_winner_ignores_grid_order_and_duplicates(picks, seed):
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(picks + picks[: rng.integers(0, len(picks) + 1)])
    try:
        reference = fit(F40, sorted(set(picks)))
    except IllConditionedError:  # no pick passes the gates, in any order
        with pytest.raises(IllConditionedError):
            fit(F40, shuffled)
        return
    result = fit(F40, shuffled)
    assert result.omega == reference.omega
    assert result.mse == reference.mse
    np.testing.assert_array_equal(result.discretized, reference.discretized)
    expected = dict(reference.omega_grid_scores)
    assert len(result.omega_grid_scores) == len(shuffled)
    assert all(expected[omega] == score for omega, score in result.omega_grid_scores)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.sampled_from([0.5, 0.25, 0.125, math.nan, math.inf, -math.inf]),
        min_size=1,
        max_size=len(GRID),
    )
)
def test_non_finite_score_never_wins(values):
    feed = iter(values)
    grid = GRID[: len(values)]
    with mock.patch.object(fitting, "_mean_square", lambda signal, f: next(feed)):
        if not any(math.isfinite(v) for v in values):
            with pytest.raises(IllConditionedError, match="ill-conditioned"):
                fit(F250, grid)
            return
        result = fit(F250, grid)
    scores = result.omega_grid_scores
    assert sorted(map(repr, (s for _, s in scores))) == sorted(map(repr, values))
    assert (result.mse, result.omega) == min((s, w) for w, s in scores if math.isfinite(s))
