"""Warm in-process worker for the lib-fit-windows workload.

    python perfbench/worker.py --seed N --seconds S --mode {setup,timed,traced} --out FILE

It imports qdfit first (so `-X importtime` charges every import to qdfit),
runs one untimed warm-up request and prints "ready"; the parent times that
line as set-up.  In `timed` mode it then runs whole cycles of the seeded
window list until S seconds have passed.  In `traced` mode each cycle runs
once untraced and once traced, so the difference is the tracing overhead.
Per-request outputs are checked between requests, outside the timed region.
"""

from __future__ import annotations

import qdfit.cli  # noqa: F401  (first import: what a user of the library pays)
from qdfit import fitting, ingest, quasidist, report

import argparse
import json
import resource
import statistics
import time
from datetime import timedelta

import checks
import gen
import spans


def request(window: gen.LibWindow):
    """parse_csv -> moving_average_7 -> extract_window -> histogram -> fit -> quasi -> report."""
    (raw,) = ingest.parse_csv(window.text)
    spec = ingest.WindowSpec(window.name, window.begin, window.begin + timedelta(days=window.days - 1))
    data = ingest.histogram(ingest.extract_window(ingest.moving_average_7(raw), spec))
    result = fitting.fit(data)
    quasi = quasidist.quasi_distribution(result.discretized)
    rep = report.build_report(window.name, spec, result.omega, result.mse, quasi, result.omega_grid_scores)
    text = report.emit_json(rep)
    svg = report.emit_panel_svg(data.f, quasi.values, window.name, rep.omega, rep.variance)
    return data, quasi, text, svg


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # all threads of this process
    return usage.ru_utime + usage.ru_stime


def _timed(window: gen.LibWindow, tracer: spans.Tracer | None, grid: frozenset[float]) -> dict:
    cpu0 = _cpu()
    start = time.perf_counter()
    try:
        if tracer is None:
            out = request(window)
        else:
            out = tracer.call("request", request, window)
    except (ValueError, RuntimeError) as exc:
        return {"wall": time.perf_counter() - start, "cpu": _cpu() - cpu0, "error": f"{window.name}: {exc}"}
    wall = time.perf_counter() - start
    cpu = _cpu() - cpu0
    data, quasi, text, svg = out
    problem = checks.check_library_request(text, svg, quasi.values, grid)
    return {
        "wall": wall,
        "cpu": cpu,
        "error": f"{window.name}: {problem}" if problem else None,
        "err_days": checks.mean_error_days(data.f, quasi.mean),
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--out")
    args = parser.parse_args()

    windows = gen.lib_windows(args.seed)
    request(windows[-1])  # warm-up: the longest window, last in the cycle
    print("ready", flush=True)
    if args.mode == "setup":
        return

    plain: list[dict] = []
    traced: list[dict] = []
    tracer = spans.Tracer()
    grid = checks.default_grid()
    deadline = time.perf_counter() + args.seconds
    while not plain or time.perf_counter() < deadline:
        plain.extend(_timed(w, None, grid) for w in windows)
        if args.mode == "traced":
            undo = tracer.install()
            try:
                traced.extend(_timed(w, tracer, grid) for w in windows)
            finally:
                undo()

    result = {"requests": plain + traced}
    if args.mode == "traced":
        layers = spans.layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_s"] = statistics.fmean(r["wall"] for r in traced) - statistics.fmean(
            r["wall"] for r in plain
        )
        result["layers"] = layers
    result["finished"] = time.monotonic()  # the parent's cli.exit_s counts from here
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
