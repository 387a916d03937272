"""Span recording around qdfit's public functions, and the per-layer arithmetic.

A `Tracer` replaces module attributes that the pipeline looks up at call time
(for example `qdfit.fitting.sample_curve`, or `qdfit.cli.fit`, bound by
`from .fitting import fit`) with wrappers that record one span per call.
Spans stay in memory as plain lists and are turned into per-layer metrics by
`layer_metrics`, which is pure so it can be tested on a synthetic span tree.
"""

from __future__ import annotations

import functools
import math
import sys
import time

# qdfit module -> public functions that get a span.  The span name is
# "<module>.<function>".
WRAPPED = {
    "ingest": ("parse_csv", "moving_average_7", "extract_window", "histogram", "preset_window"),
    "basis": ("piecewise_basis_matrix",),
    "fitting": (
        "fit",
        "fit_fixed_omega",
        "data_points",
        "chord_length_params",
        "assemble_design",
        "solve_normal_equations",
        "sample_curve",
        "discretize",
        "mse",
    ),
    "quasidist": ("quasi_distribution", "find_peaks"),
    "report": ("build_report", "emit_json", "emit_panel_svg", "emit_overlay_svg"),
}


def _scores_info(result) -> dict:
    scores = [s for _, s in result.omega_grid_scores]
    return {"finite": sum(math.isfinite(s) for s in scores), "attempted": len(scores)}


def _quasi_info(result) -> dict:
    return {"peaks": len(result.peaks), "negative_variance": int(result.variance < 0.0)}


def _bytes_info(result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# span name -> counts taken from the call's result after the span has ended
_INFO = {
    "ingest.parse_csv": lambda result: {"rows": len(result[0])},
    "basis.piecewise_basis_matrix": lambda result: {"rows": len(result)},
    "fitting.fit": _scores_info,
    "quasidist.quasi_distribution": _quasi_info,
    "report.emit_json": _bytes_info,
    "report.emit_panel_svg": _bytes_info,
    "report.emit_overlay_svg": _bytes_info,
}

# A span is [request, parent index (-1 for a root), name, start, end, info].
# The root span of a request is "cli.main" in the CLI launcher and "request",
# the library caller's function, in the library worker; both count as the
# entry layer (cli.*).
REQUEST, PARENT, NAME, START, END, INFO = range(6)


class Tracer:
    """Records nested spans; one request is one root span and its descendants."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1

    def call(self, name: str, fn, *args, **kwargs):
        if not self._stack:
            self._request += 1
        span = [self._request, self._stack[-1] if self._stack else -1, name, 0.0, 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span[INFO] = {"error": type(exc).__name__}
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
        extract = _INFO.get(name)
        if extract is not None:
            span[INFO] = extract(result)
        return result

    def install(self):
        """Wrap every binding of the WRAPPED functions in loaded qdfit modules.

        Returns a function that puts the original bindings back.
        """
        wrappers = {}
        for module_name, names in WRAPPED.items():
            module = sys.modules[f"qdfit.{module_name}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrappers[id(original)] = (original, self._wrap(f"{module_name}.{fn_name}", original))
        replaced = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qdfit" and not mod_name.startswith("qdfit."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    replaced.append((module, attr, value))

        def undo() -> None:
            for module, attr, value in replaced:
                setattr(module, attr, value)

        return undo

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are sequential within a request, so children never overlap and
    their durations add up to the part of the parent they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


# per-layer time metric -> span names whose durations it sums
TIME_METRICS = {
    "ingest.parse_s": ("ingest.parse_csv",),
    "ingest.prepare_s": (
        "ingest.preset_window",
        "ingest.moving_average_7",
        "ingest.extract_window",
        "ingest.histogram",
    ),
    "basis.matrix_s": ("basis.piecewise_basis_matrix",),
    "fitting.fit_s": ("fitting.fit",),
    "fitting.candidate_s": ("fitting.fit_fixed_omega",),
    "fitting.params_s": ("fitting.data_points", "fitting.chord_length_params"),
    "fitting.design_s": ("fitting.assemble_design",),
    "fitting.solve_s": ("fitting.solve_normal_equations",),
    "fitting.sample_s": ("fitting.sample_curve",),
    "fitting.discretize_s": ("fitting.discretize",),
    "fitting.mse_s": ("fitting.mse",),
    "quasidist.s": ("quasidist.quasi_distribution",),
    "quasidist.peaks_s": ("quasidist.find_peaks",),
    "report.build_s": ("report.build_report",),
    "report.json_s": ("report.emit_json",),
    "report.svg_s": ("report.emit_panel_svg", "report.emit_overlay_svg"),
    "cli.main_s": ("cli.main", "request"),
}

# self-time metric -> span names whose self times it sums.  fitting.self_s
# covers the grid loop and the per-candidate glue, so that it plus the six
# fitting child metrics (params .. mse) equals fitting.fit_s.
SELF_METRICS = {
    "fitting.self_s": ("fitting.fit", "fitting.fit_fixed_omega"),
    "cli.self_s": ("cli.main", "request"),
}

# one row of the two-piece basis: 29 functions as 8-byte floats
BASIS_ROW_BYTES = 29 * 8

FITTING_CHILDREN = (
    "fitting.params_s",
    "fitting.design_s",
    "fitting.solve_s",
    "fitting.sample_s",
    "fitting.discretize_s",
    "fitting.mse_s",
)


def layer_metrics(spans: list[list], n_requests: int) -> dict[str, float]:
    """Per-request means of every span-derived per-layer metric."""
    if n_requests < 1:
        raise ValueError("need at least one request")
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(i)
    own = self_times(spans)
    totals = {
        metric: sum(spans[i][END] - spans[i][START] for name in names for i in by_name.get(name, ()))
        for metric, names in TIME_METRICS.items()
    }
    for metric, names in SELF_METRICS.items():
        totals[metric] = sum(own[i] for name in names for i in by_name.get(name, ()))

    def info_sum(name: str, key: str) -> float:
        return sum((spans[i][INFO] or {}).get(key, 0) for i in by_name.get(name, ()))

    basis_rows = info_sum("basis.piecewise_basis_matrix", "rows")
    totals.update(
        {
            "ingest.rows": info_sum("ingest.parse_csv", "rows"),
            "basis.calls": len(by_name.get("basis.piecewise_basis_matrix", ())),
            "basis.rows": basis_rows,
            "basis.bytes_computed": basis_rows * BASIS_ROW_BYTES,
            "fitting.candidates": len(by_name.get("fitting.fit_fixed_omega", ())),
            "fitting.ill_conditioned": sum(
                1
                for i in by_name.get("fitting.solve_normal_equations", ())
                if (spans[i][INFO] or {}).get("error") == "IllConditionedError"
            ),
            "quasidist.peaks": info_sum("quasidist.quasi_distribution", "peaks"),
            "quasidist.negative_variance": info_sum(
                "quasidist.quasi_distribution", "negative_variance"
            ),
            "report.bytes": sum(
                info_sum(name, "bytes") for name in TIME_METRICS["report.json_s"] + TIME_METRICS["report.svg_s"]
            ),
        }
    )
    out = {metric: value / n_requests for metric, value in totals.items()}
    attempted = info_sum("fitting.fit", "attempted")
    out["fitting.finite_ratio"] = info_sum("fitting.fit", "finite") / attempted if attempted else 0.0
    return out


def import_times(importtime_stderr: str) -> dict[str, float]:
    """Import metrics from the stderr of `python -X importtime`.

    import.qdfit_s is the cumulative time of the top-level qdfit imports,
    i.e. everything `import qdfit.cli` pulls in; import.scipy_s and
    import.numpy_s sum the self time of every scipy / numpy module.
    """
    out = {"import.qdfit_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:") :].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        own_us, cumulative_us, name_field = int(fields[0]), int(fields[1]), fields[2]
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        top = name.split(".", 1)[0]
        if top == "qdfit" and depth == 0:
            out["import.qdfit_s"] += cumulative_us / 1e6
        elif top in ("scipy", "numpy"):
            out[f"import.{top}_s"] += own_us / 1e6
    return out
