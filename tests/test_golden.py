"""Fresh CLI outputs must match the committed golden corpus in tests/golden/.

Tolerance policy:
- exact: label, window, days, omega, mean_date, grid omegas, peak count and days;
  SVG files byte for byte;
- rtol 1e-7: gamma, mean_day, variance, peak heights and prominences,
  negative_mass;
- rtol 1e-9, atol 1e-12: mse, min_value and the omega-grid scores.  Solving
  the corpus's normal equations by QR (`np.linalg.lstsq`) instead of
  Cholesky moves them by at most 3.1e-11 relative; scores at rounding level
  (the interpolating 29-day fits, constant data) move by more, but stay
  within atol.  Failed candidates (null) must stay failed.
"""

import json
import math

import numpy as np
import pytest

import qdfit.cli
from golden_cases import golden_files, run_scenario, scenarios
from fit_oracle import bisect_day_values
from qdfit.fitting import fit

STATS_RTOL = 1e-7
SCORE_RTOL, SCORE_ATOL = 1e-9, 1e-12


def _close(actual, expected, where, rtol, atol=0.0):
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=atol, err_msg=where)


def _check_peaks(actual, expected, where):
    assert [p["day"] for p in actual] == [p["day"] for p in expected], where
    for key in ("height", "prominence"):
        if expected and key in expected[0]:
            _close([p[key] for p in actual], [p[key] for p in expected], f"{where} {key}", STATS_RTOL)


def _check_report(actual, expected, where):
    for key in ("label", "window", "days", "omega", "mean_date"):
        assert actual[key] == expected[key], f"{where}: {key}"
    for key in ("gamma", "mean_day", "variance"):
        _close(actual[key], expected[key], f"{where}: {key}", STATS_RTOL)
    _check_peaks(actual["peaks"], expected["peaks"], f"{where}: peaks")
    diag, diag_expected = actual["diagnostics"], expected["diagnostics"]
    _close(diag["negative_mass"], diag_expected["negative_mass"], f"{where}: negative_mass", STATS_RTOL)
    _close(diag["min_value"], diag_expected["min_value"], f"{where}: min_value", SCORE_RTOL, SCORE_ATOL)
    _close(actual["mse"], expected["mse"], f"{where}: mse", SCORE_RTOL, SCORE_ATOL)
    grid, grid_expected = actual["omega_grid"], expected["omega_grid"]
    assert [w for w, _ in grid] == [w for w, _ in grid_expected], f"{where}: grid omegas"
    assert [s is None for _, s in grid] == [s is None for _, s in grid_expected], f"{where}: failed candidates"
    scores = [(s, e) for (_, s), (_, e) in zip(grid, grid_expected) if e is not None]
    _close([s for s, _ in scores], [e for _, e in scores], f"{where}: grid scores", SCORE_RTOL, SCORE_ATOL)


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_outputs_match_golden_corpus(scenario, tmp_path):
    actual = run_scenario(scenario, tmp_path)
    expected = golden_files(scenario)
    assert sorted(actual) == sorted(expected)
    for name, text in expected.items():
        where = f"{scenario.name}/{name}"
        if name.endswith(".svg"):
            assert actual[name] == text, where
        elif name == "comparison.json":
            columns, columns_expected = json.loads(actual[name])["columns"], json.loads(text)["columns"]
            assert [c["label"] for c in columns] == [c["label"] for c in columns_expected], where
            for column, column_expected in zip(columns, columns_expected):
                _check_peaks(column["peaks"], column_expected["peaks"], f"{where} {column['label']}")
        else:
            _check_report(json.loads(actual[name]), json.loads(text), where)


@pytest.mark.parametrize("name", ["min_window_29", "two_bump_500"])
def test_exact_discretization_matches_bisection(name, tmp_path, monkeypatch):
    # every grid candidate of the scenario's fit that passes both gates,
    # Newton's day values against bisection's; the 29-day window has
    # rank-deficient candidates, which score inf
    calls = []

    def recording(data, omega_grid, n_samples=None):
        calls.append((data, omega_grid))
        return fit(data, omega_grid, n_samples)

    monkeypatch.setattr(qdfit.cli, "fit", recording)
    run_scenario(next(s for s in scenarios() if s.name == name), tmp_path)
    (data, grid), = calls
    scored = 0
    for omega, score in fit(data, grid).omega_grid_scores:
        if math.isinf(score):
            continue
        result = fit(data, [omega])
        expected = bisect_day_values(result.curve, data.n_days)
        scale = np.abs(result.curve.controls[:, 1]).max()
        np.testing.assert_allclose(result.discretized, expected, rtol=0.0, atol=1e-12 * scale)
        scored += 1
    assert scored > 0
    if name == "min_window_29":
        assert scored < len(grid)
