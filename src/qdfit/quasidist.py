"""Normalization of a fitted signal into a quasi-distribution, plus its stats.

The discretized fitted signal approximates a histogram distribution but
does not sum to exactly 1; rescaling by the adjustment factor
gamma = 1/sum makes it a quasi-distribution: PDF-like over day indices,
though spline undershoot may leave slightly negative cells (they are kept,
not clamped, and surfaced as diagnostics by the report layer).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .ingest import MAX_MAGNITUDE, _check_values

# the peak floor of `find_peaks`, as a fraction of the maximum
PROMINENCE_FRAC = 0.05


class Peak(NamedTuple):
    day: int  # 1-based day index
    height: float
    prominence: float


class QuasiDistribution(NamedTuple):
    values: np.ndarray
    gamma: float
    mean: float
    variance: float
    peaks: list[Peak]


def normalize(signal: np.ndarray) -> tuple[float, np.ndarray]:
    """Rescale a signal to unit sum; returns (gamma, rescaled values).

    The signal must pass `ingest._check_values`.  Negative cells are allowed
    (spline undershoot); a sum that is not positive, which would flip or
    blow up the mass, is not, nor one too small to rescale within the bound.
    """
    signal = _check_values(signal, "signal")
    total = float(signal.sum())
    if total <= 0.0:
        raise ValueError("cannot normalize a signal with zero sum or a negative sum")
    if not total * MAX_MAGNITUDE >= max(1.0, float(np.abs(signal).max())):
        raise ValueError(f"signal sum {total:g} is too small to rescale within magnitude {MAX_MAGNITUDE:g}")
    gamma = 1.0 / total
    return gamma, gamma * signal


def moments(values: np.ndarray) -> tuple[float, float]:
    """Mean and variance over day indices k = 1..N of values that pass
    `ingest._check_values` and sum to 1 within 1e-9: mean = sum k * v_k,
    variance = sum k^2 * v_k - mean^2.
    """
    values = _check_values(values)
    total = float(values.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"values must sum to 1 (got {total!r}); normalize first")
    days = np.arange(1, values.size + 1, dtype=float)
    mean = float(days @ values)
    variance = float((days * days) @ values - mean * mean)
    return mean, variance


def find_peaks(values: np.ndarray) -> list[Peak]:
    """Local maxima with prominence at least PROMINENCE_FRAC * max(values).

    The values must pass `ingest._check_values`.  A peak is a run of equal
    samples strictly higher than the runs on both sides (a run touching
    either end is none); it reports the 1-based day of its leftmost sample.
    Its prominence is its height above the larger of the two side minima,
    each found by searching outward until a sample is higher.  The floor
    suppresses low ripple peaks from quintic oscillation.
    """
    values = _check_values(values)
    if values.size < 3:
        return []
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    heights = values[starts]
    inner = np.arange(1, starts.size - 1)
    runs = inner[(heights[inner - 1] < heights[inner]) & (heights[inner + 1] < heights[inner])]
    floor = PROMINENCE_FRAC * float(values.max())
    peaks = []
    for left, height in zip(starts[runs], heights[runs]):
        # the plateau lies in both searches, so its left edge serves as well as its midpoint
        blocked = np.flatnonzero(values > height)
        k = np.searchsorted(blocked, left)
        lo = blocked[k - 1] + 1 if k > 0 else 0
        hi = blocked[k] if k < blocked.size else values.size
        prominence = height - max(values[lo : left + 1].min(), values[left:hi].min())
        if prominence >= floor:
            peaks.append(Peak(int(left) + 1, float(height), float(prominence)))
    return peaks


def quasi_distribution(signal: np.ndarray) -> QuasiDistribution:
    """Normalize a discretized fitted signal and compute its summary stats:
    `normalize`, then `moments` and `find_peaks` of the rescaled values."""
    gamma, values = normalize(signal)
    mean, variance = moments(values)
    return QuasiDistribution(values, gamma, mean, variance, find_peaks(values))
