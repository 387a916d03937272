import json
import os
import subprocess
import sys
from datetime import date, timedelta

import numpy as np
import pytest

import qdfit
from qdfit.basis import piecewise_basis_matrix
from qdfit.cli import main
from qdfit.report import parse_report


def _write_csv(path, columns, n_days=96, start=date(2021, 1, 1)):
    """Synthetic daily counts: one Gaussian bump per column, 3-day margins."""
    days = np.arange(-3, n_days + 3)
    lines = ["date," + ",".join(columns)]
    for offset, day in enumerate(days):
        row_date = start + timedelta(days=int(day))
        vals = []
        for j, _ in enumerate(columns):
            center = n_days * (0.4 + 0.1 * j)
            vals.append(f"{1000.0 * np.exp(-((day - center) ** 2) / (2 * 15.0**2)):.6f}")
        lines.append(row_date.isoformat() + "," + ",".join(vals))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return start, n_days


FIT_SPEED_FLAGS = ["--omega-step", "0.1"]


def _write_italy_csv(path):
    """One 'deaths' column covering the Italy preset window with 3-day margins."""
    start = date(2020, 2, 18)
    n = (date(2021, 7, 7) - start).days + 1
    days = np.arange(n, dtype=float)
    lines = ["date,deaths"]
    for k, day in enumerate(days):
        value = 100.0 + 80.0 * np.exp(-((day - 250.0) ** 2) / (2 * 60.0**2))
        lines.append(f"{(start + timedelta(days=k)).isoformat()},{value:.4f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestFitCommand:
    def test_writes_report_and_panel(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        start, n_days = _write_csv(csv_path, ["confirmed"])
        json_out = tmp_path / "r.json"
        svg_out = tmp_path / "p.svg"
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", start.isoformat(), "--days", str(n_days),
             "--json-out", str(json_out), "--svg-out", str(svg_out)]
            + FIT_SPEED_FLAGS
        )
        assert code == 0
        report = parse_report(json_out.read_text())
        assert report.label == "confirmed"
        assert report.days == n_days
        assert report.window.begin == start
        assert np.sqrt(report.mse) <= 0.05 * 0.05  # loose: rmse far below max f
        svg = svg_out.read_text()
        assert svg.startswith("<svg")
        out = capsys.readouterr().out
        assert "omega=" in out and "mean_date=" in out and "var=" in out

    def test_missing_column_named(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(["fit", "--input", str(csv_path), "--column", "deaths"])
        assert code == 1
        assert "'deaths'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        code = main(["fit", "--input", str(tmp_path / "nope.csv"), "--column", "x"])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_window_shortfall(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        start, _ = _write_csv(csv_path, ["confirmed"], n_days=60)
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", start.isoformat(), "--days", "120"]
        )
        assert code == 1
        assert "short" in capsys.readouterr().err

    def test_all_zero_window(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        days = [date(2021, 1, 1) + timedelta(days=k) for k in range(80)]
        text = "date,x\n" + "\n".join(f"{d.isoformat()},0" for d in days) + "\n"
        csv_path.write_text(text, encoding="utf-8")
        code = main(["fit", "--input", str(csv_path), "--column", "x"] + FIT_SPEED_FLAGS)
        assert code == 1
        assert "zero total" in capsys.readouterr().err

    def test_default_output_paths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(["fit", "--input", str(csv_path), "--column", "confirmed"] + FIT_SPEED_FLAGS)
        assert code == 0
        assert (tmp_path / "confirmed.report.json").exists()
        assert (tmp_path / "confirmed.panel.svg").exists()

    def test_byte_identical_reruns(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        start, n_days = _write_csv(csv_path, ["confirmed"])
        outputs = []
        for tag in ("a", "b"):
            json_out = tmp_path / f"{tag}.json"
            svg_out = tmp_path / f"{tag}.svg"
            assert (
                main(
                    ["fit", "--input", str(csv_path), "--column", "confirmed",
                     "--begin", start.isoformat(), "--days", str(n_days),
                     "--json-out", str(json_out), "--svg-out", str(svg_out)]
                    + FIT_SPEED_FLAGS
                )
                == 0
            )
            outputs.append((json_out.read_bytes(), svg_out.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_days_flows_through(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        start, _ = _write_csv(csv_path, ["confirmed"], n_days=120)
        json_out = tmp_path / "r.json"
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", start.isoformat(), "--days", "64",
             "--json-out", str(json_out), "--svg-out", str(tmp_path / "p.svg")]
            + FIT_SPEED_FLAGS
        )
        assert code == 0
        report = parse_report(json_out.read_text())
        assert report.days == 64
        assert len(report.window.begin.isoformat()) == 10

    def test_too_small_window_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        start, _ = _write_csv(csv_path, ["confirmed"])
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", start.isoformat(), "--days", "20"]
        )
        assert code == 1
        assert "at least 29" in capsys.readouterr().err

    def test_bad_omega_bounds(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed", "--omega-min", "0.9",
             "--omega-max", "0.2"]
        )
        assert code == 1
        assert "omega" in capsys.readouterr().err

    def test_country_and_begin_conflict(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--country", "Italy", "--begin", "2021-01-01"]
        )
        assert code == 1
        assert "not both" in capsys.readouterr().err

    def test_country_preset_sets_window(self, tmp_path):
        csv_path = tmp_path / "italy.csv"
        _write_italy_csv(csv_path)
        json_out = tmp_path / "r.json"
        code = main(
            ["fit", "--input", str(csv_path), "--column", "deaths",
             "--country", "Italy",
             "--json-out", str(json_out), "--svg-out", str(tmp_path / "p.svg")]
            + FIT_SPEED_FLAGS
        )
        assert code == 0
        report = parse_report(json_out.read_text())
        assert report.window.begin == date(2020, 2, 21)
        assert report.window.end == date(2021, 7, 4)
        assert report.days == 500

    def test_days_unused_with_country(self, tmp_path):
        # --days sizes only a --begin window; the 29-day minimum is fit's rule
        csv_path = tmp_path / "italy.csv"
        _write_italy_csv(csv_path)
        json_out = tmp_path / "r.json"
        code = main(
            ["fit", "--input", str(csv_path), "--column", "deaths",
             "--country", "Italy", "--days", "10",
             "--json-out", str(json_out), "--svg-out", str(tmp_path / "p.svg")]
            + FIT_SPEED_FLAGS
        )
        assert code == 0
        assert parse_report(json_out.read_text()).days == 500

    def test_prominence_out_of_range_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        start, n_days = _write_csv(csv_path, ["confirmed"])
        json_out, svg_out = tmp_path / "r.json", tmp_path / "p.svg"
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", start.isoformat(), "--days", str(n_days), "--prominence", "1.5",
             "--json-out", str(json_out), "--svg-out", str(svg_out)]
            + FIT_SPEED_FLAGS
        )
        assert code == 1
        assert "prominence fraction" in capsys.readouterr().err
        assert not json_out.exists() and not svg_out.exists()


class TestCompareCommand:
    def test_three_columns(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        start, n_days = _write_csv(csv_path, ["confirmed", "recovered", "fatality"])
        out_dir = tmp_path / "out"
        svg_out = tmp_path / "overlay.svg"
        code = main(
            ["compare", "--input", str(csv_path),
             "--columns", "confirmed,recovered,fatality",
             "--begin", start.isoformat(), "--days", str(n_days),
             "--json-out", str(out_dir), "--svg-out", str(svg_out)]
            + FIT_SPEED_FLAGS
        )
        assert code == 0
        assert svg_out.read_text().count("<polyline") == 3
        for label in ("confirmed", "recovered", "fatality"):
            assert (out_dir / f"{label}.report.json").exists()
        comparison = json.loads((out_dir / "comparison.json").read_text())
        assert [c["label"] for c in comparison["columns"]] == [
            "confirmed", "recovered", "fatality",
        ]
        for c in comparison["columns"]:
            assert all(set(p) == {"day", "height"} for p in c["peaks"])

    def test_single_column_rejected(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(["compare", "--input", str(csv_path), "--columns", "confirmed"])
        assert code == 1
        assert ">=2" in capsys.readouterr().err

    def test_identical_columns_identical_reports(self, tmp_path):
        csv_path = tmp_path / "data.csv"
        days = np.arange(-3, 67)
        rows = ["date,a,b"]
        for day in days:
            v = f"{100.0 + 50.0 * np.exp(-((day - 30.0) ** 2) / 50.0):.6f}"
            rows.append(f"{(date(2021, 1, 1) + timedelta(days=int(day))).isoformat()},{v},{v}")
        csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        code = main(
            ["compare", "--input", str(csv_path), "--columns", "a,b",
             "--begin", "2021-01-01", "--days", "64",
             "--json-out", str(out_dir), "--svg-out", str(tmp_path / "o.svg")]
            + FIT_SPEED_FLAGS
        )
        assert code == 0
        a = json.loads((out_dir / "a.report.json").read_text())
        b = json.loads((out_dir / "b.report.json").read_text())
        a.pop("label"), b.pop("label")
        assert a == b

    def test_failing_column_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # column a fits, column b is all zeros: every column is fitted before
        # any output is written, so the error leaves no directory and no file
        monkeypatch.chdir(tmp_path)
        csv_path = tmp_path / "data.csv"
        days = [date(2021, 1, 1) + timedelta(days=k) for k in range(80)]
        rows = [f"{d.isoformat()},{100.0 + k:.1f},0" for k, d in enumerate(days)]
        csv_path.write_text("date,a,b\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(
            ["compare", "--input", str(csv_path), "--columns", "a,b", "--json-out", "out3"]
            + FIT_SPEED_FLAGS
        )
        assert code == 1
        assert "zero total" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]


class TestBasisCommand:
    def test_quasi_table_shape(self, tmp_path):
        out = tmp_path / "basis.csv"
        assert main(["basis", "--samples", "101", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 102  # header + 101 sample rows
        assert lines[0].split(",") == ["t"] + [f"N{i}" for i in range(15)]
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert len(cells) == 16
            assert sum(cells[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_table_shape(self, tmp_path):
        out = tmp_path / "basis.csv"
        assert main(["basis", "--samples", "11", "--omega", "0.4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 12
        assert len(lines[0].split(",")) == 30
        for line in lines[1:]:
            cells = [float(c) for c in line.split(",")]
            assert sum(cells[1:]) == pytest.approx(1.0, abs=1e-12)

    def test_piecewise_dump_is_the_fit_evaluator(self, tmp_path):
        out = tmp_path / "basis.csv"
        assert main(["basis", "--samples", "11", "--omega", "0.4", "--out", str(out)]) == 0
        rows = [[float(c) for c in line.split(",")] for line in out.read_text().splitlines()[1:]]
        ts = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(np.array(rows), np.column_stack([ts, piecewise_basis_matrix(ts, 0.4)]))

    def test_stdout_default(self, capsys):
        assert main(["basis", "--samples", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t,N0")
        assert len(out.strip().splitlines()) == 4

    def test_invalid_omega(self, capsys):
        assert main(["basis", "--samples", "5", "--omega", "1.5"]) == 1
        assert "segmentation point" in capsys.readouterr().err

    def test_too_few_samples(self, capsys):
        assert main(["basis", "--samples", "1"]) == 1
        assert "at least 2" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; a fresh interpreter shows what
    # `import qdfit.cli` pulls in, whatever this test session imported before
    src = os.path.dirname(os.path.dirname(qdfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, qdfit.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_does_no_numerical_work():
    # the pp table is built on first use; importing must not build it or
    # call into LAPACK or einsum (import work shows in every CLI process)
    src = os.path.dirname(os.path.dirname(qdfit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import numpy as np\n"
        "calls = []\n"
        "def spy(module, name):\n"
        "    real = getattr(module, name)\n"
        "    setattr(module, name, lambda *a, **k: calls.append(name) or real(*a, **k))\n"
        "for name in ('solve', 'cholesky', 'inv', 'lstsq', 'svd', 'qr', 'eigh'):\n"
        "    spy(np.linalg, name)\n"
        "spy(np, 'einsum')\n"
        "import qdfit.cli, qdfit.basis\n"
        "print(qdfit.basis.pp_table.cache_info().currsize, calls)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0 []"
