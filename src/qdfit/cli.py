"""Command-line interface: fit one series or compare several.

A window is a bundled preset (--country) or --begin with --days (default 500),
not both, and must end in the calendar; without either flag, a command reads
the whole smoothed range.

Exit status is 0 iff every output file was written.  Exit 1 prints a one-line
diagnostic on stderr and writes no file, also after a write error: a command
fits every column first, and replaces its targets only after every output is
written beside them.  The CLI checks the flags and files it alone reads
(missing file or column, a repeated compare column, a label that names an
output file but is no plain file name, two outputs on one file), and passes on
the library's message for a rule on the fit's input (window under 29 days,
all-zero window, omega grid, prominence, no usable segmentation point).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from datetime import date
from pathlib import Path

import numpy as np

from .fitting import DEFAULT_OMEGA_MAX, DEFAULT_OMEGA_MIN, DEFAULT_OMEGA_STEP, default_omega_grid, fit
from .ingest import WindowSpec, _shift, extract_window, histogram, moving_average_7, parse_csv, preset_window
from .quasidist import QuasiDistribution, quasi_distribution
from .report import FitReport, build_report, emit_json, emit_overlay_svg, emit_panel_svg


def _fit_columns(
    args: argparse.Namespace, labels: list[str]
) -> list[tuple[np.ndarray, QuasiDistribution, FitReport]]:
    """Fit each labeled CSV column over the window the flags select.

    Writes nothing: a command fits every column before it writes a file.
    """
    if args.country and args.begin:
        raise ValueError("give either --country or --begin, not both")
    omega_grid = default_omega_grid(args.omega_min, args.omega_max, args.omega_step)
    window = preset_window(args.country) if args.country else None
    if args.begin:
        begin = date.fromisoformat(args.begin)
        end = _shift(begin, args.days - 1, f"a window of {args.days} days from {begin}")
        window = WindowSpec("custom", begin, end)

    input_path = Path(args.input)
    if not input_path.exists():
        raise ValueError(f"input file not found: {input_path}")
    by_label = {s.label: s for s in parse_csv(input_path.read_text(encoding="utf-8"))}
    for label in labels:
        if label not in by_label:
            raise ValueError(f"column {label!r} not found; available: {', '.join(by_label)}")

    fitted = []
    for label in labels:
        smoothed = moving_average_7(by_label[label])
        span = window or WindowSpec("full-range", smoothed.start_date, smoothed.end_date)
        data = histogram(extract_window(smoothed, span))
        result = fit(data, omega_grid)
        quasi = quasi_distribution(result.discretized, args.prominence)
        report = build_report(label, span, result.omega, result.mse, quasi, result.omega_grid_scores)
        fitted.append((data.f, quasi, report))
    return fitted


def _check_file_label(label: str) -> None:
    """Reject a label that, joined to a directory, would leave it or name no file."""
    if label in ("", ".", "..") or "/" in label or "\\" in label:
        raise ValueError(f"column label {label!r} cannot name an output file")


def _summary_line(report: FitReport) -> str:
    return (
        f"{report.label}: omega={report.omega:.6g} mse={report.mse:.6g} "
        f"mean_date={report.mean_date.isoformat()} var={report.variance:.6g}"
    )


def _write_outputs(outputs: list[tuple[Path, str]]) -> None:
    """Write every (path, text) output or none.

    Two outputs on one file, or an output path that is a directory, fail first.
    Each text goes to a temporary file beside its target, and the files replace
    their targets once all are written; an error removes the temporary files.
    """
    reals = [os.path.realpath(path) for path, _ in outputs]
    for k, (path, _) in enumerate(outputs):
        if reals[k] in reals[:k]:
            raise ValueError(f"two outputs name one file: {path}")
        if os.path.isdir(reals[k]):
            raise ValueError(f"output path is a directory: {path}")
    staged: list[str] = []
    try:
        for real, (path, text) in zip(reals, outputs):
            with open(f"{real}.{os.getpid()}.tmp", "x", encoding="utf-8") as out:
                staged.append(out.name)
                out.write(text)
        for temp, real, (path, _) in zip(staged, reals, outputs):
            os.replace(temp, real)
    except OSError as exc:
        for temp in staged:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(temp)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _cmd_fit(args: argparse.Namespace) -> int:
    label = args.column
    if not (args.json_out and args.svg_out):
        _check_file_label(label)
    [(f, quasi, report)] = _fit_columns(args, [label])

    json_path = Path(args.json_out or f"{label}.report.json")
    svg_path = Path(args.svg_out or f"{label}.panel.svg")
    _write_outputs([
        (json_path, emit_json(report)),
        (svg_path, emit_panel_svg(f, quasi.values, label, report.omega, report.variance)),
    ])
    print(_summary_line(report))
    print(f"wrote {json_path} and {svg_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    columns = [c.strip() for c in args.columns.split(",") if c.strip()]
    if len(columns) < 2:
        raise ValueError("overlay needs >=2 columns (comma-separated via --columns)")
    if len(set(columns)) != len(columns):
        raise ValueError(f"--columns repeats a column: {args.columns}")
    for label in columns:
        _check_file_label(label)
    fitted = _fit_columns(args, columns)

    out_dir = Path(args.json_out or ".")
    svg_path = Path(args.svg_out or "overlay.svg")
    comparison_path = out_dir / "comparison.json"
    reports = [report for _, _, report in fitted]
    peaks = [{"label": r.label, "peaks": [{"day": p.day, "height": p.height} for p in r.peaks]}
             for r in reports]
    outputs = [(out_dir / f"{r.label}.report.json", emit_json(r)) for r in reports] + [
        (svg_path, emit_overlay_svg([(r.label, quasi.values) for _, quasi, r in fitted])),
        (comparison_path, json.dumps({"columns": peaks}, indent=2) + "\n"),
    ]
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_outputs(outputs)
    except (ValueError, OSError):
        for d in made:
            with contextlib.suppress(OSError):
                d.rmdir()
        raise
    for report in reports:
        print(_summary_line(report))
    print(f"wrote {svg_path}, {comparison_path}, and {len(columns)} reports in {out_dir}")
    return 0


def _add_fit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="input CSV path (date,<columns...>)")
    sub.add_argument("--country", help="bundled preset window, e.g. Italy")
    sub.add_argument("--begin", help="window start date (ISO), instead of --country")
    sub.add_argument(
        "--days",
        type=int,
        default=500,
        help="window length from --begin (default 500); unused without --begin",
    )
    sub.add_argument("--omega-min", type=float, default=DEFAULT_OMEGA_MIN)
    sub.add_argument("--omega-max", type=float, default=DEFAULT_OMEGA_MAX)
    sub.add_argument("--omega-step", type=float, default=DEFAULT_OMEGA_STEP)
    sub.add_argument(
        "--prominence",
        type=float,
        default=0.05,
        help="peak prominence floor as a fraction of the maximum (default 0.05)",
    )
    sub.add_argument("--json-out", help="report JSON path (fit) or directory (compare)")
    sub.add_argument("--svg-out", help="panel/overlay SVG path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdfit",
        description="Fit daily-count series with piecewise quasi-uniform B-spline "
        "curves and report quasi-distribution statistics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fit_p = subs.add_parser("fit", help="fit one column and write report + panel SVG")
    _add_fit_options(fit_p)
    fit_p.add_argument("--column", required=True, help="CSV column to fit")
    fit_p.set_defaults(func=_cmd_fit)

    cmp_p = subs.add_parser("compare", help="fit several columns and write an overlay")
    _add_fit_options(cmp_p)
    cmp_p.add_argument("--columns", required=True, help="comma-separated CSV columns")
    cmp_p.set_defaults(func=_cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
