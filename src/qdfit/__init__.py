"""Quasi-distribution fitting of daily-count series with piecewise B-splines.

The package root exports the pipeline stages a caller strings together and
their types.  The stages' internals (design matrix, solve, discretization,
moments, peak scan, basis evaluation) stay importable from their submodules
`qdfit.basis`, `qdfit.fitting`, `qdfit.quasidist` and `qdfit.report`.

Importing the package loads numpy with one OpenBLAS thread, unless numpy is
already loaded or OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or OMP_NUM_THREADS
is set, because qdfit's BLAS work (29-column products and factorizations)
gains nothing from a worker thread, while starting one costs a short `qdfit`
process about 0.06 s of CPU.
"""

import os
import sys

# the variables OpenBLAS reads its thread count from, in its order
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy  # noqa: F401  (OpenBLAS reads the variable as it loads)
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]  # child processes see the caller's environment

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
    "preset_window",
    "quasi_distribution",
]
