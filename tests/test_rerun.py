"""Reruns are byte-identical: the same window gives the same report JSON and
panel SVG bytes, within one process and across processes whose string
hashing or BLAS thread count differs."""

import os
import subprocess
import sys
from datetime import date, timedelta

import numpy as np
from hypothesis import given, settings, strategies as st

import qdfit
from qdfit.fitting import fit
from qdfit.ingest import Series, WindowSpec, extract_window, histogram, moving_average_7
from qdfit.quasidist import quasi_distribution
from qdfit.report import build_report, emit_json, emit_panel_svg

START = date(2021, 1, 1)

bumps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0),  # centre, a fraction of the window
        st.floats(min_value=0.02, max_value=0.3),  # width, a fraction of the window
        st.floats(min_value=1.0, max_value=1000.0),  # height
    ),
    min_size=1,
    max_size=3,
)


def _counts(n_days, waves):
    """Raw counts over the window's days plus the 3-day margins smoothing drops."""
    days = np.arange(-3, n_days + 3, dtype=float)
    counts = np.ones_like(days)
    for centre, width, height in waves:
        counts += height * np.exp(-((days - centre * n_days) ** 2) / (2.0 * (width * n_days) ** 2))
    return counts


def _outputs(n_days, waves):
    raw = Series("confirmed", START - timedelta(days=3), _counts(n_days, waves))
    window = WindowSpec("custom", START, START + timedelta(days=n_days - 1))
    data = histogram(extract_window(moving_average_7(raw), window))
    result = fit(data)
    quasi = quasi_distribution(result.discretized)
    report = build_report(raw.label, window, result.omega, result.mse, quasi, result.omega_grid_scores)
    svg = emit_panel_svg(data.f, quasi.values, raw.label, report.omega, report.variance)
    return emit_json(report).encode(), svg.encode()


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=29, max_value=200), bumps)
def test_in_process_reruns_are_byte_identical(n_days, waves):
    assert _outputs(n_days, waves) == _outputs(n_days, waves)


def test_cli_reruns_are_byte_identical_across_hash_seeds(tmp_path):
    n_days = 96
    counts = _counts(n_days, [(0.3, 0.08, 900.0), (0.75, 0.1, 500.0)])
    lines = ["date,confirmed"] + [
        f"{(START + timedelta(days=k - 3)).isoformat()},{value:.4f}" for k, value in enumerate(counts)
    ]
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = os.path.dirname(os.path.dirname(qdfit.__file__))
    outputs = []
    # the third run loads OpenBLAS with two threads, not the one `import qdfit` sets
    for seed, blas in (("0", {}), ("4242", {}), ("7", {"OPENBLAS_NUM_THREADS": "2"})):
        json_out, svg_out = tmp_path / f"{seed}.json", tmp_path / f"{seed}.svg"
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            **blas,
        )
        subprocess.run(
            [sys.executable, "-m", "qdfit.cli", "fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", START.isoformat(), "--days", str(n_days),
             "--json-out", str(json_out), "--svg-out", str(svg_out)],
            env=env, capture_output=True, check=True,
        )
        outputs.append((json_out.read_bytes(), svg_out.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]
