"""`fit` scores the omega grid in chunks of stacked candidates; it must give
exactly what the per-candidate loop in `fit_oracle.py` gives."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdfit.basis as basis
import qdfit.cli
import qdfit.fitting as fitting
from fit_oracle import fit_loop
from golden_cases import run_scenario, scenarios
from qdfit.fitting import IllConditionedError, default_omega_grid, fit
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


def per_chunk(n_days, n_samples=None):
    samples = fitting.SAMPLES_PER_DAY * n_days
    return max(1, fitting.CHUNK_SAMPLES // max(samples if n_samples is None else n_samples, samples))


@pytest.mark.parametrize("n_days", [29, 60, 120, 250, 500, 2000])
def test_default_grid_matches_loop(n_days):
    f = two_bump(n_days)
    assert_same_fit(fit(f), fit_loop(f))


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_golden_inputs_match_loop(scenario, tmp_path, monkeypatch):
    calls = []

    def recording(data, omega_grid, n_samples=None):
        result = fit(data, omega_grid, n_samples)
        calls.append((data, omega_grid, n_samples, result))
        return result

    monkeypatch.setattr(qdfit.cli, "fit", recording)
    run_scenario(scenario, tmp_path)
    assert calls
    for data, grid, n_samples, result in calls:
        assert_same_fit(result, fit_loop(data, grid, n_samples))


def test_grid_not_a_multiple_of_the_chunk():
    rng = np.random.default_rng(41)
    f = rng.random(60) + 0.05
    f /= f.sum()
    size = per_chunk(f.size)
    grid = np.round(0.12 + 0.025 * np.arange(2 * size + 3), 12)
    assert 1 < size and grid.size % size != 0 and grid[-1] < 1.0
    assert_same_fit(fit(f, grid), fit_loop(f, grid))


def test_one_candidate_grid():
    f = two_bump(120)
    assert_same_fit(fit(f, [0.43]), fit_loop(f, [0.43]))


@pytest.mark.parametrize("n_samples", [2, 3000])
def test_sample_counts_match_loop(n_samples):
    f = two_bump(60)
    assert_same_fit(fit(f, n_samples=n_samples), fit_loop(f, n_samples=n_samples))


def test_basis_evaluated_once_per_chunk(monkeypatch):
    # the design of a whole chunk is one call of the basis evaluator, plus
    # the pp table's one-time build (one call per knot span)
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
    assert len(calls) <= math.ceil(grid_size / per_chunk(f.size)) + basis.NUM_SPANS
    assert per_chunk(f.size) > 1


@pytest.mark.parametrize("n_days, n_samples", [(29, None), (120, None), (500, None), (60, 2)])
def test_chunks_stay_within_the_sample_budget(n_days, n_samples, monkeypatch):
    # a chunk's sampling arrays are what bound the fit's memory; with few
    # samples its designs do, each row counted as SAMPLES_PER_DAY samples
    real = fitting.piecewise_spans
    chunks = []

    def recording(ts, omega, out=None, scratch=None):
        chunks.append((np.size(omega), ts.size))
        return real(ts, omega, out, scratch)

    monkeypatch.setattr(fitting, "piecewise_spans", recording)
    fit(two_bump(n_days), n_samples=n_samples)
    size = per_chunk(n_days, n_samples)
    assert len(chunks) == math.ceil(default_omega_grid().size / size)
    for candidates, samples in chunks:
        cost = max(samples, fitting.SAMPLES_PER_DAY * n_days)
        assert candidates == 1 or candidates * cost <= fitting.CHUNK_SAMPLES


GRID = np.round(0.1 + 0.05 * np.arange(17), 12)
F40 = two_bump(40)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.sampled_from(list(GRID)), min_size=1, max_size=2 * per_chunk(F40.size) + 2),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_winner_ignores_grid_order_and_duplicates(picks, seed):
    rng = np.random.default_rng(seed)
    shuffled = rng.permutation(picks + picks[: rng.integers(0, len(picks) + 1)])
    reference = fit(F40, sorted(set(picks)))
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
    with mock.patch.object(fitting, "mse", lambda signal, data: next(feed)):
        if not any(math.isfinite(v) for v in values):
            with pytest.raises(IllConditionedError, match="ill-conditioned"):
                fit(F40, grid)
            return
        result = fit(F40, grid)
    scores = result.omega_grid_scores
    assert sorted(map(repr, (s for _, s in scores))) == sorted(map(repr, values))
    assert (result.mse, result.omega) == min((s, w) for w, s in scores if math.isfinite(s))
