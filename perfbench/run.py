"""qdfit benchmark: whole-process CLI runs, warm library fits, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of cli-fit-preset, lib-fit-windows, cli-compare-long, or `all`
to run the three in turn.  Inputs are generated from the seed under
.perfbench_work/ in the checkout, the program is qdfit from src/ (through
PYTHONPATH, in the caller's environment otherwise unchanged), and every
request is closed loop with one client.  With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones from a
separate traced run.  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the run's metadata and raw
samples go to .perfbench_work/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PRESETS = SRC / "qdfit" / "data" / "country_windows.csv"

SETUP_RUNS = 3  # fresh interpreters per run; setup_s is their median
REQUEST_TIMEOUT_S = 60.0  # a request still running after this is killed and failed
TAIL_BEYOND = 10  # wall_tail_s: highest percentile with this many samples above it
CONSOLE_SCRIPT = "import sys; from qdfit.cli import main; sys.exit(main())"
WORKLOADS = ("cli-fit-preset", "lib-fit-windows", "cli-compare-long")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed request)."""


@dataclass
class Outcome:
    """Everything one workload run measured."""

    records: list[dict] = field(default_factory=list)  # one per attempted request
    setup: list[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    layers: dict[str, float] = field(default_factory=dict)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(cmd: list[str], cwd: Path, env: dict[str, str], timeout: float, wait_ready: bool = False) -> dict:
    """Run one process to completion; wall time and rusage from os.wait4.

    With wait_ready, the child's stdout is a pipe and "ready" is the time until
    it printed its first line, which must be "ready".
    """
    with open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        stdout = subprocess.PIPE if wait_ready else subprocess.DEVNULL
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        ready = None
        try:
            if wait_ready:
                if proc.stdout.readline().strip() == b"ready":
                    ready = time.perf_counter() - start
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        reaped = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "ready": ready,
        "reaped": reaped,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "status": proc.returncode,
        "stderr": (cwd / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    }


def measure_setup(cmd: list[str], runs: int, cwd: Path, env: dict[str, str]) -> list[float]:
    """Seconds from spawning a fresh interpreter until it prints "ready"."""
    samples = []
    for _ in range(runs):
        child = run_child(cmd, cwd, env, REQUEST_TIMEOUT_S, wait_ready=True)
        if child["ready"] is None or child["status"] != 0:
            raise BenchError(f"set-up process failed: {child['stderr'][-2000:]}")
        samples.append(child["ready"])
    return samples


def tail(samples: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it.

    Nearest-rank percentile; with fewer than 2 * TAIL_BEYOND samples no tail
    above the median is resolved, so the median (percentile 50) is reported.
    """
    n = len(samples)
    pct = math.floor(100 * (n - TAIL_BEYOND) / n) if n else 0
    if pct <= 50:
        return statistics.median(samples), 50
    return sorted(samples)[math.ceil(pct * n / 100) - 1], pct


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliRequest:
    args: list[str]  # qdfit arguments
    outputs: tuple[str, ...]  # files the request must write in the output directory
    labels: tuple[str, ...]  # series it fits


def _cli_fit_preset(seed: int, work: Path) -> tuple[list[CliRequest], Path, str | None]:
    csv_path, out = work / "preset.csv", work / "out"
    country = gen.write_preset_csv(seed, gen.read_presets(PRESETS), csv_path)
    cycle = [
        CliRequest(
            ["fit", "--input", str(csv_path), "--column", label, "--country", country,
             "--json-out", str(out / "report.json"), "--svg-out", str(out / "panel.svg")],
            ("report.json", "panel.svg"),
            (label,),
        )
        for label in gen.COLUMNS
    ]
    return cycle, csv_path, country


def _cli_compare_long(seed: int, work: Path) -> tuple[list[CliRequest], Path, str | None]:
    csv_path, out = work / "long.csv", work / "out"
    gen.write_long_csv(seed, csv_path)
    request = CliRequest(
        ["compare", "--input", str(csv_path), "--columns", ",".join(gen.COLUMNS),
         "--json-out", str(out), "--svg-out", str(out / "overlay.svg")],
        tuple(f"{c}.report.json" for c in gen.COLUMNS) + ("comparison.json", "overlay.svg"),
        gen.COLUMNS,
    )
    return [request], csv_path, None


def _cli_request(request: CliRequest, prefix: list[str], work: Path, env) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    record = run_child(prefix + request.args, work, env, REQUEST_TIMEOUT_S)
    record["files"] = {
        name: (out / name).read_text(encoding="utf-8") if (out / name).is_file() else None
        for name in request.outputs
    }
    record["request"] = request
    return record


def run_cli(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    import checks  # imports qdfit, so only once src/ is on sys.path

    make = _cli_fit_preset if workload == "cli-fit-preset" else _cli_compare_long
    cycle, csv_path, country = make(seed, work)
    env = child_env()
    outcome = Outcome()
    if not trace:
        ready = "import qdfit.cli; print('ready', flush=True)"
        outcome.setup = measure_setup([sys.executable, "-c", ready], SETUP_RUNS, work, env)

    plain_cmd = [sys.executable, "-c", CONSOLE_SCRIPT]
    spans_file = work / "spans.txt"
    traced_cmd = [sys.executable, "-X", "importtime", str(HERE / "launcher.py"), str(spans_file)]
    plain: list[dict] = []
    traced: list[dict] = []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        for request in cycle:
            plain.append(_cli_request(request, plain_cmd, work, env))
            if not trace:
                continue
            spans_file.unlink(missing_ok=True)
            record = _cli_request(request, traced_cmd, work, env)
            if record["status"] == 0:
                head, body = spans_file.read_text(encoding="utf-8").split("\n", 1)
                layers = spans.layer_metrics(json.loads(body), 1)
                layers.update(spans.import_times(record["stderr"]))
                layers["cli.exit_s"] = record["reaped"] - float(head)
                record["layers"] = layers
            traced.append(record)

    # Reference outputs are computed in-process after the timed loop.
    refs = checks.reference_fits(csv_path.read_text(encoding="utf-8"), gen.COLUMNS, country)
    grid = checks.default_grid()
    for record in plain + traced:
        request = record.pop("request")
        files = record.pop("files")
        stderr = record.pop("stderr")
        if record["status"] != 0:
            last = stderr.strip().splitlines()[-1:] or [""]
            record["error"] = f"exit status {record['status']}: {last[0]}"
        elif len(request.labels) == 1:
            record["error"] = checks.check_fit_outputs(files, refs[request.labels[0]], grid)
        else:
            record["error"] = checks.check_compare_outputs(files, refs, grid)
        record["series"] = len(request.labels)
        if record["error"] is None:
            record["err_days"] = statistics.fmean(refs[label].err_days for label in request.labels)
    outcome.records = plain + traced
    outcome.peak_rss_kb = max(r["rss_kb"] for r in plain)
    if trace:
        outcome.layers = _cli_layers(plain, traced)
    return outcome


def _cli_layers(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Per-layer means over the traced processes, plus the tracing overhead."""
    per_process = [r.pop("layers") for r in traced if "layers" in r]
    if not per_process:
        raise BenchError("no traced CLI request completed")
    out = {key: statistics.fmean(p[key] for p in per_process) for key in per_process[0]}
    out["trace.overhead_s"] = statistics.fmean(r["wall"] for r in traced) - statistics.fmean(
        r["wall"] for r in plain
    )
    return out


# ---------------------------------------------------------------------------
# Library workload
# ---------------------------------------------------------------------------


def run_lib(seed: int, seconds: float, trace: bool, work: Path) -> Outcome:
    env = child_env()
    worker = [sys.executable, str(HERE / "worker.py"), "--seed", str(seed), "--seconds", str(seconds)]
    outcome = Outcome()
    if not trace:
        outcome.setup = measure_setup(worker + ["--mode", "setup"], SETUP_RUNS - 1, work, env)

    result_path = work / "worker.json"
    cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + worker[1:]
    cmd += ["--mode", "traced" if trace else "timed", "--out", str(result_path)]
    child = run_child(cmd, work, env, seconds + 2 * REQUEST_TIMEOUT_S, wait_ready=True)
    if child["ready"] is None or child["status"] != 0:
        raise BenchError(f"library worker failed (status {child['status']}): {child['stderr'][-2000:]}")
    if not trace:
        outcome.setup.append(child["ready"])
    result = json.loads(result_path.read_text(encoding="utf-8"))
    outcome.records = [r | {"series": 1} for r in result["requests"]]
    outcome.peak_rss_kb = child["rss_kb"]
    if trace:
        exit_s = child["reaped"] - result["finished"]
        outcome.layers = result["layers"] | spans.import_times(child["stderr"]) | {"cli.exit_s": exit_s}
    return outcome


# ---------------------------------------------------------------------------
# Metrics, metadata, output
# ---------------------------------------------------------------------------


def end_to_end(outcome: Outcome) -> tuple[dict[str, float], dict]:
    records = outcome.records
    walls = [r["wall"] for r in records]
    series = sum(r["series"] for r in records)
    errors = [r["err_days"] for r in records if r.get("error") is None and "err_days" in r]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "setup_s": statistics.median(outcome.setup),
        "wall_p50_s": statistics.median(walls),
        "wall_tail_s": tail_value,
        "fits_per_s": series / sum(walls),
        "cpu_per_fit_s": sum(r["cpu"] for r in records) / series,
        "peak_rss_mb": outcome.peak_rss_kb / 1024.0,
        "mean_err_days": statistics.fmean(errors) if errors else -1.0,  # -1: nothing succeeded
    }
    detail = {"wall_tail_percentile": tail_pct, "wall_samples": len(walls), "setup_samples": outcome.setup}
    return metrics, detail


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: ") :]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def metadata(seed: int) -> dict:
    from importlib import metadata as md

    import numpy as np

    def version(pkg: str) -> str:
        try:
            return md.version(pkg)
        except md.PackageNotFoundError:
            return "not installed"

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")) if cache_dir.is_dir() else ():
        level = _read(str(index / "level")).strip()
        kind = _read(str(index / "type")).strip()
        caches[f"L{level} {kind}"] = _read(str(index / "size")).strip()
    thread_vars = ("OPENBLAS", "OMP_", "MKL_", "BLIS_", "GOTO", "VECLIB", "NUMEXPR")
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_thread_env": {k: v for k, v in os.environ.items() if k.startswith(thread_vars)},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": caches,
    }


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict, meta: dict) -> dict:
    work = WORK / f"{workload}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if workload == "lib-fit-windows":
            outcome = run_lib(seed, seconds, trace, work)
        else:
            outcome = run_cli(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(outcome.records)
    failures = [r["error"] for r in outcome.records if r.get("error")]
    if trace:
        values, detail = outcome.layers, {}
        wanted = spec["per_layer"]
    else:
        values, detail = end_to_end(outcome)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:20],
        "detail": detail,
        "walls": [r["wall"] for r in outcome.records],
        "meta": meta,
        "result": result,
    }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"== {workload}  seed {seed}  trace {int(trace)}  requests {attempted}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':28s} {record['failed_frac']:.6g} ratio ({len(failures)}/{attempted})")
    if detail:
        print(f"  wall_tail_s is p{detail['wall_tail_percentile']} of {detail['wall_samples']} samples")
    for failure in failures[:5]:
        print(f"  FAILED: {failure}")
    print(f"  details: {out.relative_to(ROOT)}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "qdfit" / "cli.py").is_file():
        print(f"error: qdfit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the in-process reference uses the same sources
    try:
        spec = load_spec()
        meta = metadata(args.seed)
        print("meta: " + json.dumps(meta))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), spec, meta) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}:{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
