"""Tests of the benchmark itself (run: python -m pytest perfbench/tests)."""

from __future__ import annotations

import json
from datetime import date, timedelta

import numpy as np
import pytest

import checks
import gen
import run
import spans


# --- generator ---------------------------------------------------------------


def test_lib_windows_deterministic_per_seed():
    a, b, other = gen.lib_windows(7), gen.lib_windows(7), gen.lib_windows(8)
    assert [w.name for w in a] == [w.name for w in b] == [w.name for w in other]
    assert [w.text for w in a] == [w.text for w in b]
    assert [w.text for w in a] != [w.text for w in other]


def test_lib_windows_cover_lengths_and_shapes():
    windows = gen.lib_windows(0)
    assert sorted({w.days for w in windows}) == list(gen.LIB_LENGTHS)
    assert {w.name.split("-")[0] for w in windows} == set(gen.LIB_SHAPES)
    assert all(w.text.count("\n") == 1 + w.days + 2 * gen.TRIM for w in windows)


def test_csv_files_deterministic_per_seed(tmp_path):
    presets = gen.read_presets(run.PRESETS)
    texts = []
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.write_preset_csv(seed, presets, tmp_path / f"{name}.csv")
        gen.write_long_csv(seed, tmp_path / f"{name}-long.csv")
        texts.append(((tmp_path / f"{name}.csv").read_text(), (tmp_path / f"{name}-long.csv").read_text()))
    assert texts[0] == texts[1]
    assert texts[0][0] != texts[2][0] and texts[0][1] != texts[2][1]


def test_preset_csv_covers_window_plus_trim(tmp_path):
    presets = gen.read_presets(run.PRESETS)
    country = gen.write_preset_csv(5, presets, tmp_path / "p.csv")
    rows = (tmp_path / "p.csv").read_text().splitlines()
    _, begin, end = next(p for p in presets if p[0] == country)
    assert rows[0] == "date," + ",".join(gen.COLUMNS)
    assert len(rows) - 1 == (end - begin).days + 1 + 2 * gen.TRIM == 506
    assert rows[1].startswith((begin - timedelta(days=gen.TRIM)).isoformat())


# --- output checks -----------------------------------------------------------


@pytest.fixture(scope="module")
def small_refs():
    """References for a short full-range CSV (fast to fit)."""
    days = np.arange(40, dtype=float)
    bump = 100.0 * np.exp(-((days - 18.0) ** 2) / 50.0) + 1.0
    lines = ["date,confirmed,deaths"] + [
        f"{date(2021, 1, 1) + timedelta(days=k)},{int(bump[k])},{int(bump[k] / 10) + 1}"
        for k in range(40)
    ]
    return checks.reference_fits("\n".join(lines) + "\n", ("confirmed", "deaths"), None)


def test_correct_outputs_pass(small_refs):
    ref = small_refs["confirmed"]
    files = {"report.json": ref.report_json, "panel.svg": ref.panel_svg}
    assert checks.check_fit_outputs(files, ref, checks.default_grid()) is None


def test_corrupted_report_fails(small_refs):
    ref = small_refs["confirmed"]
    for broken in (ref.report_json[:-20], ref.report_json.replace('"omega"', '"omegax"'), ""):
        files = {"report.json": broken, "panel.svg": ref.panel_svg}
        assert checks.check_fit_outputs(files, ref, checks.default_grid()) is not None


def test_mismatched_report_fails(small_refs):
    # a valid report, but of the other column
    ref = small_refs["confirmed"]
    files = {"report.json": small_refs["deaths"].report_json, "panel.svg": ref.panel_svg}
    assert "differs" in checks.check_fit_outputs(files, ref, checks.default_grid())


def test_missing_output_fails(small_refs):
    ref = small_refs["confirmed"]
    files = {"report.json": ref.report_json, "panel.svg": None}
    assert "missing" in checks.check_fit_outputs(files, ref, checks.default_grid())


def test_off_grid_omega_and_infinite_mse_fail(small_refs):
    payload = json.loads(small_refs["confirmed"].report_json)
    grid = checks.default_grid()
    off_grid = dict(payload, omega=0.105)
    assert "grid" in checks.check_report(json.dumps(off_grid, indent=2) + "\n", grid)
    assert checks.check_quasi(np.array([0.5, 0.5 + 1e-6])) is not None
    assert checks.check_quasi(np.array([0.25, 0.75])) is None


def test_compare_outputs(small_refs):
    from qdfit import report

    files = {f"{label}.report.json": ref.report_json for label, ref in small_refs.items()}
    files["comparison.json"] = json.dumps({"columns": [{"label": l} for l in small_refs]})
    files["overlay.svg"] = report.emit_overlay_svg([(l, r.quasi.values) for l, r in small_refs.items()])
    grid = checks.default_grid()
    assert checks.check_compare_outputs(files, small_refs, grid) is None
    files["deaths.report.json"] = files["confirmed.report.json"]
    assert checks.check_compare_outputs(files, small_refs, grid).startswith("deaths")


# --- span arithmetic -----------------------------------------------------------


def _span(parent, name, start, end, info=None):
    return [0, parent, name, start, end, info]


def test_self_time_on_synthetic_tree():
    tree = [
        _span(-1, "cli.main", 0.0, 10.0),  # 0
        _span(0, "ingest.parse_csv", 0.5, 1.5, {"rows": 506}),  # 1
        _span(0, "fitting.fit", 2.0, 9.0, {"finite": 2, "attempted": 3}),  # 2
        _span(2, "fitting.fit_fixed_omega", 2.5, 5.5),  # 3
        _span(3, "fitting.assemble_design", 2.6, 3.0),  # 4
        _span(4, "basis.piecewise_basis_matrix", 2.7, 2.9, {"rows": 40}),  # 5
        _span(3, "fitting.sample_curve", 3.0, 5.0),  # 6
        _span(6, "basis.piecewise_basis_matrix", 3.1, 4.9, {"rows": 800}),  # 7
        _span(2, "fitting.fit_fixed_omega", 6.0, 8.0),  # 8
        _span(8, "fitting.solve_normal_equations", 6.5, 7.0, {"error": "IllConditionedError"}),  # 9
        _span(0, "report.emit_json", 9.2, 9.4, {"bytes": 100}),  # 10
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 1.0 - 7.0 - 0.2)
    assert own[2] == pytest.approx(7.0 - 3.0 - 2.0)
    assert own[3] == pytest.approx(3.0 - 0.4 - 2.0)
    assert own[4] == pytest.approx(0.4 - 0.2)
    assert own[5] == pytest.approx(0.2)

    m = spans.layer_metrics(tree, 2)  # per-request means over 2 requests
    assert m["cli.main_s"] == pytest.approx(5.0)
    assert m["cli.self_s"] == pytest.approx(0.9)
    assert m["fitting.fit_s"] == pytest.approx(3.5)
    assert m["fitting.self_s"] == pytest.approx((2.0 + 0.6 + 1.5) / 2)
    children = sum(m[k] for k in spans.FITTING_CHILDREN)
    assert m["fitting.self_s"] + children == pytest.approx(m["fitting.fit_s"])
    assert m["basis.calls"] == 1 and m["basis.rows"] == 420
    assert m["basis.bytes_computed"] == 420 * 29 * 8
    assert m["basis.matrix_s"] == pytest.approx(1.0)
    assert m["ingest.rows"] == 253 and m["report.bytes"] == 50
    assert m["fitting.candidates"] == 1 and m["fitting.ill_conditioned"] == 0.5
    assert m["fitting.finite_ratio"] == pytest.approx(2 / 3)


def test_tracer_records_nesting_and_restores_bindings():
    import qdfit.cli
    from qdfit import fitting

    original, original_fit = fitting.sample_curve, fitting.fit
    tracer = spans.Tracer()
    undo = tracer.install()
    try:
        # `from .fitting import fit` in qdfit.cli is rebound too
        assert qdfit.cli.fit is fitting.fit and fitting.fit.__wrapped__ is original_fit
        data = np.exp(-((np.arange(40.0) - 20.0) ** 2) / 60.0)
        tracer.call("request", fitting.fit, data / data.sum(), [0.4, 0.5])
    finally:
        undo()
    assert fitting.sample_curve is original and qdfit.cli.fit is original_fit
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[:2] == ["request", "fitting.fit"]
    assert names.count("fitting.fit_fixed_omega") == 2
    m = spans.layer_metrics(tracer.spans, 1)
    children = sum(m[k] for k in spans.FITTING_CHILDREN)
    assert m["fitting.self_s"] + children == pytest.approx(m["fitting.fit_s"], rel=1e-9)


def test_import_times_parses_importtime_output():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |   numpy.core",
            "import time:       200 |        300 |     numpy",
            "import time:        50 |         50 |     scipy._lib",
            "import time:       400 |        450 |   scipy",
            "import time:        10 |        900 |   qdfit",
            "import time:        20 |       1000 | qdfit.cli",
            "import time:         5 |          5 | json",
        ]
    )
    got = spans.import_times(text)
    assert got["import.qdfit_s"] == pytest.approx(1000e-6)
    assert got["import.numpy_s"] == pytest.approx(300e-6)
    assert got["import.scipy_s"] == pytest.approx(450e-6)


def test_tail_percentile_rule():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50)
    samples = [float(k) for k in range(1, 101)]
    value, pct = run.tail(samples)
    assert pct == 90 and value == 90.0
    assert sum(s > value for s in samples) >= run.TAIL_BEYOND
