"""The quasi-distribution keeps the smoothed window's own mean and variance.

The normal equations make the fit's residual orthogonal to the two-piece
span, which holds every polynomial of degree <= 5 in t, and t_k is nearly
affine in k because each chord is about one day long.  So sum k (y_k - f_k)
and sum k^2 (y_k - f_k) nearly vanish, and the reported `mean_day` and
`variance` are the data's own sum k f_k and sum k^2 f_k - mean^2, to within
the gaps pinned here.  The mean gap is what the benchmark reports as
`mean_err_days`.
"""

from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdfit.cli
from golden_cases import TRIM, run_scenario, scenarios
from qdfit import ingest
from qdfit.fitting import fit
from qdfit.quasidist import quasi_distribution

# largest gaps measured, with headroom: on the golden fits the mean gap is
# at most 2.0e-5 days and the variance gap 6.5e-5 relative (both on
# spike_120, whose residual is 22% of the data).  On 24,600 seeded noisy
# two-wave windows of 120-2000 days the mean gap was at most 1.1e-6 days
# and the variance gap 4.9e-8 relative, both near 125 days; 99% of the
# mean gaps lie below 9e-8 days, and above 300 days all lie below 2e-8
GOLDEN_MEAN_DAYS = 2.5e-5
GOLDEN_VARIANCE_REL = 1e-4
NOISY_MEAN_DAYS = 4e-6
NOISY_VARIANCE_REL = 2e-7


def moment_gaps(f: np.ndarray) -> tuple[float, float]:
    """|quasi mean - data mean| in days and |quasi variance - data variance|
    relative to the data variance, for one fitted window."""
    quasi = quasi_distribution(fit(f).discretized)
    days = np.arange(1, f.size + 1, dtype=float)
    mean = float(days @ f)
    variance = float((days * days) @ f - mean * mean)
    return abs(quasi.mean - mean), abs(quasi.variance - variance) / variance


@pytest.mark.parametrize("scenario", scenarios(), ids=lambda s: s.name)
def test_golden_fits_keep_the_window_moments(scenario, tmp_path, monkeypatch):
    windows = []

    def recording(data, omega_grid, n_samples=None):
        windows.append(np.asarray(data.f))
        return fit(data, omega_grid, n_samples)

    monkeypatch.setattr(qdfit.cli, "fit", recording)
    run_scenario(scenario, tmp_path)
    assert windows
    for f in windows:
        mean_gap, variance_gap = moment_gaps(f)
        assert mean_gap <= GOLDEN_MEAN_DAYS
        assert variance_gap <= GOLDEN_VARIANCE_REL


def noisy_window(n_days: int, seed: int) -> np.ndarray:
    """Poisson counts around two Gaussian waves, smoothed and normalized as
    the CLI does: a window of n_days from n_days + 6 raw days."""
    rng = np.random.default_rng(seed)
    days = np.arange(n_days + 2 * TRIM, dtype=float)
    rate = np.full(days.size, rng.uniform(1.0, 20.0))
    for _ in range(2):
        center, width = rng.uniform(0.15, 0.85) * n_days, rng.uniform(0.04, 0.15) * n_days
        rate += rng.uniform(100.0, 3000.0) * np.exp(-0.5 * ((days - center) / width) ** 2)
    raw = ingest.Series("noisy", date(2021, 1, 1), rng.poisson(rate))
    return ingest.histogram(ingest.moving_average_7(raw)).f


@settings(max_examples=30, deadline=None)
@given(st.integers(120, 2000), st.integers(0, 2**32 - 1))
def test_noisy_windows_keep_their_moments(n_days, seed):
    mean_gap, variance_gap = moment_gaps(noisy_window(n_days, seed))
    assert mean_gap <= NOISY_MEAN_DAYS
    assert variance_gap <= NOISY_VARIANCE_REL
