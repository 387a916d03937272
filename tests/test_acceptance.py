"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines even when everything passes.
"""

import time
from datetime import date, timedelta

import numpy as np
import pytest

import qdfit
from qdfit.basis import NUM_PIECEWISE_BASIS, piecewise_basis_matrix, quasi_basis_matrix
from qdfit.fitting import (
    assemble_design,
    chord_length_params,
    data_points,
    default_omega_grid,
    fit,
    solve_normal_equations,
)
from qdfit.ingest import (
    Series,
    WindowSpec,
    extract_window,
    histogram,
    load_presets,
    moving_average_7,
    preset_window,
)
from qdfit.quasidist import quasi_distribution
from qdfit.report import build_report, emit_json
from basis_oracle import closed_form_row
from synthetic import linear_day_curve, roundtrip_data, two_bump_counts

FINLAND_PATTERN = [293.0, 189.0, 266.0, 0.0, 412.0]


def _criterion(number: int, description: str):
    """Decorator printing one PASS/FAIL line per criterion."""

    def wrap(test):
        def run(*args, **kwargs):
            try:
                result = test(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {description}")
                raise
            print(f"criterion {number} PASS: {description}")
            return result

        run.__name__ = test.__name__
        return run

    return wrap


@_criterion(1, "base-family basis identities and closed-form agreement under 1 s")
def test_criterion_1_basis_correctness():
    start = time.perf_counter()
    ts = np.linspace(0.0, 1.0, 2000)
    design = quasi_basis_matrix(ts)

    assert np.abs(design.sum(axis=1) - 1.0).max() <= 1e-12

    reflected = quasi_basis_matrix(1.0 - ts)[:, ::-1]
    assert np.abs(design - reflected).max() <= 1e-12

    for j in range(1, 5):
        mask = ts >= 0.1 * j
        translated = quasi_basis_matrix(ts[mask] - 0.1 * j)[:, 5]
        assert np.abs(quasi_basis_matrix(ts[mask])[:, 5 + j] - translated).max() <= 1e-12

    closed = np.vstack([closed_form_row(t) for t in ts])
    assert np.abs(closed - design).max() <= 1e-9

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"basis suite took {elapsed:.2f}s"


@_criterion(2, "two-piece basis: partition of unity, one-sided support, junction continuity")
def test_criterion_2_piecewise_basis():
    ts = np.linspace(0.0, 1.0, 2000)
    rng = np.random.default_rng(2024)
    for omega in (0.1, 0.25, 0.5, 0.75, 0.9):
        design = piecewise_basis_matrix(ts, omega)
        assert np.abs(design.sum(axis=1) - 1.0).max() <= 1e-12

        left = ts < omega
        assert np.abs(design[left][:, 15:]).max() == 0.0
        assert np.abs(design[ts > omega][:, :14]).max() == 0.0

        probe = piecewise_basis_matrix(
            np.array([np.nextafter(omega, 0.0), omega, np.nextafter(omega, 1.0)]), omega
        )
        for _ in range(100):
            controls = rng.uniform(-1.0, 1.0, size=(NUM_PIECEWISE_BASIS, 2))
            pts = probe @ controls
            assert np.abs(pts - pts[1]).max() <= 1e-10


@_criterion(3, "normal-equation optimality on 20 random datasets, every omega candidate")
def test_criterion_3_least_squares_optimality():
    rng = np.random.default_rng(333)
    grid = default_omega_grid()
    for _ in range(20):
        f = rng.random(500)
        f /= f.sum()
        points = data_points(f)
        params = chord_length_params(points)
        for omega in grid:
            design = assemble_design(params, omega)
            controls = solve_normal_equations(design, points)
            gradient = design.T @ (design @ controls - points)
            scale = np.abs(design.T @ points).max(axis=0)
            assert (np.abs(gradient).max(axis=0) <= 1e-8 * scale).all()


@_criterion(4, "generate-and-refit recovers omega* = 0.3 with near-zero MSE")
def test_criterion_4_generate_and_refit():
    n_days, n_samples = 500, 20 * 500
    truth = linear_day_curve(0.30, n_days)
    f = roundtrip_data(truth, n_days, n_samples)
    assert (f > 0.0).all()

    result = fit(f, n_samples=n_samples)
    assert abs(result.omega - 0.30) <= 0.01 + 1e-12

    # scale: mean squared magnitude of the fitted data points (k, f_k)
    mean_square = float(np.mean(np.arange(1, n_days + 1, dtype=float) ** 2 + f**2))
    assert result.mse <= 1e-14 * mean_square


@_criterion(5, "constant data is reproduced with MSE <= 1e-16 at every candidate")
def test_criterion_5_constant_reproduction():
    n_days = 500
    f = np.full(n_days, 1.0 / n_days)
    result = fit(f)
    assert all(score <= 1e-16 for _, score in result.omega_grid_scores)


@_criterion(6, "end-to-end synthetic epidemic: unit mass, RMSE, and mean location")
def test_criterion_6_synthetic_epidemic():
    n_days = 500
    counts, analytic_mean = two_bump_counts(n_days)
    # frozen oracle: (150*1000*30 + 380*800*40) / (1000*30 + 800*40)
    assert analytic_mean == pytest.approx(16660000.0 / 62000.0, rel=1e-15)

    window_start = date(2021, 1, 1)
    raw = Series("confirmed", window_start - timedelta(days=3), counts)
    window = WindowSpec("synthetic", window_start, window_start + timedelta(days=n_days - 1))
    data = histogram(extract_window(moving_average_7(raw), window))

    result = fit(data)
    quasi = quasi_distribution(result.discretized)

    assert abs(quasi.values.sum() - 1.0) <= 1e-12
    assert np.sqrt(result.mse) <= 0.05 * data.f.max()
    assert abs(quasi.mean - analytic_mean) <= 2.0


@_criterion(7, "zero-then-double reporting anomaly never survives the 7-day average")
def test_criterion_7_moving_average_anomaly():
    pattern = FINLAND_PATTERN
    for lead in range(8):
        values = [0.0] * lead + pattern + [0.0] * (8 - lead)
        raw = Series("confirmed", date(2020, 11, 1), np.array(values))
        smoothed = moving_average_7(raw)
        first = lead + len(pattern) - 1  # last raw index of the pattern
        for k, value in enumerate(smoothed.values):
            window_lo, window_hi = k, k + 6
            if window_lo <= first and window_hi >= lead:  # window touches the pattern
                assert value > 0.0


@_criterion(8, "all 18 preset windows span 500 days; Italy needs its 3-day margins")
def test_criterion_8_preset_integrity():
    presets = load_presets()
    assert len(presets) == 18
    for window in presets.values():
        assert window.days == 500, window.country

    italy = preset_window("Italy")
    assert italy.begin == date(2020, 2, 21)
    assert italy.end == date(2021, 7, 4)

    required_start, required_end = date(2020, 2, 18), date(2021, 7, 7)
    raw = Series(
        "confirmed", required_start, np.ones((required_end - required_start).days + 1)
    )
    assert len(extract_window(moving_average_7(raw), italy)) == 500
    with pytest.raises(ValueError):
        extract_window(moving_average_7(Series("c", required_start, raw.values[:-1])), italy)


@_criterion(9, "full 81-candidate fit of 500 days under 5 s, byte-identical reruns")
def test_criterion_9_performance_and_determinism():
    n_days = 500
    counts, _ = two_bump_counts(n_days)
    window_start = date(2021, 1, 1)
    raw = Series("confirmed", window_start - timedelta(days=3), counts)
    window = WindowSpec("synthetic", window_start, window_start + timedelta(days=n_days - 1))
    data = histogram(extract_window(moving_average_7(raw), window))

    start = time.perf_counter()
    result = fit(data, n_samples=20 * n_days)
    elapsed = time.perf_counter() - start
    assert len(result.omega_grid_scores) == 81
    assert elapsed < 5.0, f"fit took {elapsed:.2f}s"

    rerun = fit(data, n_samples=20 * n_days)
    assert rerun.omega == result.omega
    assert rerun.mse == result.mse
    np.testing.assert_array_equal(rerun.discretized, result.discretized)

    reports = []
    for res in (result, rerun):
        quasi = quasi_distribution(res.discretized)
        reports.append(
            emit_json(
                build_report("confirmed", window, res.omega, res.mse, quasi, res.omega_grid_scores)
            )
        )
    assert reports[0] == reports[1]


def test_public_api_exposes_pipeline():
    for name in ("fit", "quasi_distribution", "parse_csv", "emit_panel_svg"):
        assert hasattr(qdfit, name)
