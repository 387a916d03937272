"""Command-line interface: fit one series, compare several, or dump the basis.

Exit status is 0 iff every requested output file was written.  A domain error
exits 1 with a one-line diagnostic on stderr and writes no file (`compare`
fits every column before it writes anything): the CLI checks the flags and
files it alone reads (missing file or column, a repeated compare column, a
label that names an output file but is no plain file name), and passes on
the library's message for a rule on the fit's input (window under 29 days,
all-zero window, omega grid, prominence, no usable segmentation point).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from .basis import NUM_PIECEWISE_BASIS, NUM_QUASI_BASIS, piecewise_basis_matrix, quasi_basis_matrix
from .fitting import DEFAULT_OMEGA_MAX, DEFAULT_OMEGA_MIN, DEFAULT_OMEGA_STEP, default_omega_grid, fit
from .ingest import (
    WindowSpec,
    extract_window,
    histogram,
    moving_average_7,
    parse_csv,
    preset_window,
)
from .quasidist import QuasiDistribution, quasi_distribution
from .report import FitReport, build_report, emit_json, emit_overlay_svg, emit_panel_svg


def _fit_columns(
    args: argparse.Namespace, labels: list[str]
) -> list[tuple[np.ndarray, QuasiDistribution, FitReport]]:
    """Fit each labeled CSV column over the window the flags select.

    Writes nothing: a command fits every column before it writes a file.
    """
    begin = date.fromisoformat(args.begin) if args.begin else None
    end = date.fromisoformat(args.end) if args.end else None
    if args.country and (begin or end):
        raise ValueError("give either --country or --begin/--end, not both")
    if end and not begin:
        raise ValueError("--end requires --begin")
    omega_grid = default_omega_grid(args.omega_min, args.omega_max, args.omega_step)
    window = preset_window(args.country) if args.country else None
    if begin:
        window = WindowSpec("custom", begin, end or begin + timedelta(days=args.days - 1))

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
        report = build_report(
            label, span, result.omega, result.mse, quasi, result.omega_grid_scores
        )
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


def _cmd_fit(args: argparse.Namespace) -> int:
    label = args.column
    if not (args.json_out and args.svg_out):
        _check_file_label(label)
    [(f, quasi, report)] = _fit_columns(args, [label])

    json_path = Path(args.json_out or f"{label}.report.json")
    svg_path = Path(args.svg_out or f"{label}.panel.svg")
    json_path.write_text(emit_json(report), encoding="utf-8")
    svg_path.write_text(
        emit_panel_svg(f, quasi.values, label, report.omega, report.variance),
        encoding="utf-8",
    )
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
    out_dir.mkdir(parents=True, exist_ok=True)
    svg_path = Path(args.svg_out or "overlay.svg")
    curves: list[tuple[str, np.ndarray]] = []
    comparison: list[dict] = []
    for label, (_, quasi, report) in zip(columns, fitted):
        report_path = out_dir / f"{label}.report.json"
        report_path.write_text(emit_json(report), encoding="utf-8")
        curves.append((label, quasi.values))
        comparison.append(
            {
                "label": label,
                "peaks": [{"day": p.day, "height": p.height} for p in report.peaks],
            }
        )
        print(_summary_line(report))

    svg_path.write_text(emit_overlay_svg(curves), encoding="utf-8")
    comparison_path = out_dir / "comparison.json"
    comparison_path.write_text(
        json.dumps({"columns": comparison}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {svg_path}, {comparison_path}, and {len(columns)} reports in {out_dir}")
    return 0


def _cmd_basis(args: argparse.Namespace) -> int:
    if args.samples < 2:
        raise ValueError("need at least 2 sample rows")
    ts = np.linspace(0.0, 1.0, args.samples)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if args.omega is None:
        writer.writerow(["t"] + [f"N{i}" for i in range(NUM_QUASI_BASIS)])
        rows = quasi_basis_matrix(ts)
    else:
        writer.writerow(["t"] + [f"N{i}" for i in range(NUM_PIECEWISE_BASIS)])
        rows = piecewise_basis_matrix(ts, args.omega)
    for t, row in zip(ts, rows):
        writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
    text = out.getvalue()
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _add_fit_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--input", required=True, help="input CSV path (date,<columns...>)")
    sub.add_argument("--country", help="bundled preset window, e.g. Italy")
    sub.add_argument("--begin", help="window start date (ISO), overrides presets")
    sub.add_argument("--end", help="window end date (ISO)")
    sub.add_argument(
        "--days",
        type=int,
        default=500,
        help="window length when only --begin is given (default 500)",
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

    basis_p = subs.add_parser("basis", help="dump basis-function samples as CSV")
    basis_p.add_argument("--samples", type=int, default=101, help="number of t samples")
    basis_p.add_argument(
        "--omega", type=float, default=None, help="dump the 29-function two-piece basis"
    )
    basis_p.add_argument("--out", help="output CSV path (default: stdout)")
    basis_p.set_defaults(func=_cmd_basis)
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
