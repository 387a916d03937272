"""Quasi-distribution fitting of daily-count series with piecewise B-splines.

The package root exports the pipeline stages a caller strings together and
their types.  The stages' internals (design matrix, solve, discretization,
moments, peak scan, basis evaluation) stay importable from their submodules
`qdfit.basis`, `qdfit.fitting`, `qdfit.quasidist` and `qdfit.report`.
"""

from .fitting import (
    FitResult,
    IllConditionedError,
    PiecewiseCurve,
    default_omega_grid,
    fit,
)
from .ingest import (
    HistogramDistribution,
    Series,
    WindowSpec,
    extract_window,
    histogram,
    load_presets,
    moving_average_7,
    parse_csv,
    preset_window,
)
from .quasidist import Peak, QuasiDistribution, quasi_distribution
from .report import (
    FitReport,
    build_report,
    emit_json,
    emit_overlay_svg,
    emit_panel_svg,
    parse_report,
)

__version__ = "0.1.0"

__all__ = [
    "FitReport",
    "FitResult",
    "HistogramDistribution",
    "IllConditionedError",
    "Peak",
    "PiecewiseCurve",
    "QuasiDistribution",
    "Series",
    "WindowSpec",
    "build_report",
    "default_omega_grid",
    "emit_json",
    "emit_overlay_svg",
    "emit_panel_svg",
    "extract_window",
    "fit",
    "histogram",
    "load_presets",
    "moving_average_7",
    "parse_csv",
    "parse_report",
    "preset_window",
    "quasi_distribution",
]
