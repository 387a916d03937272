import csv
import json
import os
import subprocess
import sys
from datetime import date, timedelta

import numpy as np
import pytest

import qdfit
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

    def test_oversized_cell_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a cell past the csv module's field size limit is an input error,
        # not a traceback, and nothing is written
        monkeypatch.chdir(tmp_path)
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        lines[5] += "0" * csv.field_size_limit()  # row 6's count, lengthened
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["fit", "--input", str(csv_path), "--column", "confirmed"] + FIT_SPEED_FLAGS)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: row 6: field larger than field limit") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_byte_order_mark_accepted(self, tmp_path):
        # a "CSV UTF-8" spreadsheet export starts with U+FEFF; the report is
        # the one of the same file without it
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        _write_csv(plain, ["confirmed"])
        marked.write_text("\ufeff" + plain.read_text(encoding="utf-8"), encoding="utf-8")
        for csv_path in (plain, marked):
            args = ["fit", "--input", str(csv_path), "--column", "confirmed",
                    "--json-out", str(csv_path.with_suffix(".json")),
                    "--svg-out", str(csv_path.with_suffix(".svg"))]
            assert main(args + FIT_SPEED_FLAGS) == 0
        assert marked.with_suffix(".json").read_bytes() == plain.with_suffix(".json").read_bytes()

    def test_default_output_paths(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(["fit", "--input", str(csv_path), "--column", "confirmed"] + FIT_SPEED_FLAGS)
        assert code == 0
        assert (tmp_path / "confirmed.report.json").exists()
        assert (tmp_path / "confirmed.panel.svg").exists()

    @pytest.mark.parametrize("label", ["../escaped", "sub/name", "a\\b", "", ".", ".."])
    def test_label_that_names_no_plain_file_rejected(self, tmp_path, monkeypatch, capsys, label):
        # default outputs are named after the label; it must not leave the
        # working directory or name no file, and nothing may be written
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, [label])
        code = main(["fit", "--input", str(csv_path), "--column", label] + FIT_SPEED_FLAGS)
        assert code == 1
        assert "cannot name an output file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "work"]
        assert list(work.iterdir()) == []

    def test_explicit_outputs_take_any_label(self, tmp_path, monkeypatch):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        csv_path = tmp_path / "data.csv"
        start, n_days = _write_csv(csv_path, ["../escaped"])
        json_out, svg_out = tmp_path / "r.json", tmp_path / "p.svg"
        args = ["fit", "--input", str(csv_path), "--column", "../escaped",
                "--begin", start.isoformat(), "--days", str(n_days)] + FIT_SPEED_FLAGS
        assert main(args + ["--json-out", str(json_out)]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "work"]
        assert main(args + ["--json-out", str(json_out), "--svg-out", str(svg_out)]) == 0
        assert parse_report(json_out.read_text()).label == "../escaped"
        assert svg_out.exists()

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

    @pytest.mark.parametrize(
        "window",
        [["--begin", "9999-12-30"], ["--begin", "2020-02-01", "--days", "1000000000"]],
    )
    def test_window_past_the_calendar_rejected(self, tmp_path, monkeypatch, capsys, window):
        # the end date --days implies overflows date or timedelta
        monkeypatch.chdir(tmp_path)
        _write_csv(tmp_path / "data.csv", ["confirmed"])
        assert main(["fit", "--input", "data.csv", "--column", "confirmed", *window]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a window of ") and "leaves the calendar" in err
        assert err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_end_is_no_flag(self, tmp_path, capsys):
        # --begin with --days names every explicit window
        _write_csv(tmp_path / "data.csv", ["confirmed"])
        with pytest.raises(SystemExit) as exit_info:
            main(["fit", "--input", str(tmp_path / "data.csv"), "--column", "confirmed",
                  "--begin", "2021-01-01", "--end", "2021-03-01"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --end" in capsys.readouterr().err

    def test_bad_omega_bounds(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed"])
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed", "--omega-min", "0.9",
             "--omega-max", "0.2"]
        )
        assert code == 1
        assert "omega" in capsys.readouterr().err

    def test_omega_step_too_fine_rejected(self, tmp_path, monkeypatch, capsys):
        # 1e-9 would make an 800-million-candidate grid; it is refused unallocated
        monkeypatch.chdir(tmp_path)
        start, n_days = _write_csv(tmp_path / "data.csv", ["confirmed"])
        code = main(
            ["fit", "--input", "data.csv", "--column", "confirmed", "--begin", start.isoformat(),
             "--days", str(n_days), "--omega-step", "1e-9"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: omega grid step 1e-09 gives 8e+08 candidates, more than 100000\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_infinite_omega_step_is_one_error_line(self, tmp_path, monkeypatch, capsys):
        # inf * 0 made the grid [nan], with a RuntimeWarning on stderr first
        monkeypatch.chdir(tmp_path)
        start, n_days = _write_csv(tmp_path / "data.csv", ["confirmed"])
        code = main(
            ["fit", "--input", "data.csv", "--column", "confirmed", "--begin", start.isoformat(),
             "--days", str(n_days), "--omega-step", "inf"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: omega grid step must be positive and finite, got inf\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    @pytest.mark.parametrize(
        "cells, row, cell",
        [({20: "nan"}, 22, "nan"), ({20: "inf"}, 22, "inf"), ({15: "1e308", 25: "1e308"}, 17, "1e308")],
    )
    def test_value_outside_the_rule_is_one_error_line(self, tmp_path, cells, row, cell):
        # two 1e308 counts ten days apart printed a RuntimeWarning, its source
        # line and "zero total": the window's total overflowed
        lines = ["date,cases"] + [
            f"{date(2021, 1, 1) + timedelta(days=k)},{cells.get(k, '10')}" for k in range(46)
        ]
        (tmp_path / "data.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        src = os.path.dirname(os.path.dirname(qdfit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "qdfit.cli", "fit", "--input", "data.csv", "--column", "cases"],
            cwd=tmp_path, env=env, capture_output=True, text=True,
        )
        assert out.returncode == 1
        assert out.stderr == f"error: row {row}: value {cell!r} in column 'cases' is not finite or above 1e+150\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_omega_grid_stays_within_its_bounds(self, tmp_path):
        # 0.05 + 8 * 0.02 = 0.21 would pass --omega-max 0.2
        csv_path = tmp_path / "data.csv"
        start, n_days = _write_csv(csv_path, ["confirmed"])
        json_out = tmp_path / "r.json"
        code = main(
            ["fit", "--input", str(csv_path), "--column", "confirmed",
             "--begin", start.isoformat(), "--days", str(n_days),
             "--omega-min", "0.05", "--omega-max", "0.2", "--omega-step", "0.02",
             "--json-out", str(json_out), "--svg-out", str(tmp_path / "p.svg")]
        )
        assert code == 0
        report = parse_report(json_out.read_text())
        omegas = sorted(w for w, _ in report.omega_grid_scores)
        np.testing.assert_array_equal(omegas, np.arange(5, 20, 2) / 100)

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

    @pytest.mark.parametrize("label", ["../escaped", "a\\b", ".", ".."])
    def test_label_that_names_no_plain_file_rejected(self, tmp_path, monkeypatch, capsys, label):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["confirmed", label])
        code = main(
            ["compare", "--input", str(csv_path), "--columns", f"confirmed,{label}",
             "--json-out", "out"] + FIT_SPEED_FLAGS
        )
        assert code == 1
        assert "cannot name an output file" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv", "work"]
        assert list(work.iterdir()) == []

    def test_repeated_column_rejected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        csv_path = tmp_path / "data.csv"
        _write_csv(csv_path, ["c", "d"])
        code = main(
            ["compare", "--input", str(csv_path), "--columns", "c,d,c", "--json-out", "out"]
            + FIT_SPEED_FLAGS
        )
        assert code == 1
        assert "repeats" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

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


def _snapshot(root):
    """Every path under root, with its bytes if it is a file."""
    return {str(p.relative_to(root)): p.is_file() and p.read_bytes() for p in root.rglob("*")}


class TestOutputs:
    @pytest.mark.parametrize(
        "command, outputs, message",
        [
            ("fit", ["--json-out", "x", "--svg-out", "x"], "two outputs name one file: x"),
            ("fit", ["--json-out", "x", "--svg-out", "./x"], "two outputs name one file: x"),
            ("compare", ["--json-out", "rep", "--svg-out", "rep/confirmed.report.json"], "two outputs"),
            ("compare", ["--json-out", "rep", "--svg-out", "rep/comparison.json"], "two outputs"),
            ("fit", ["--json-out", "r.json", "--svg-out", "nodir/p.svg"], "No such file or directory: 'nodir/p.svg'"),
            ("fit", ["--svg-out", "d"], "output path is a directory: d"),
            ("compare", ["--json-out", "newdir", "--svg-out", "nodir/o.svg"], "'nodir/o.svg'"),
            ("compare", ["--json-out", "newdir/sub", "--svg-out", "nodir/o.svg"], "'nodir/o.svg'"),
        ],
    )
    def test_failed_write_changes_nothing(self, tmp_path, monkeypatch, capsys, command, outputs, message):
        # exit 1 means no file was written, replaced or left behind, and no
        # directory was created, whichever output fails
        monkeypatch.chdir(tmp_path)
        _write_csv(tmp_path / "data.csv", ["confirmed", "recovered"])
        (tmp_path / "r.json").write_text("an older report\n", encoding="utf-8")
        (tmp_path / "d").mkdir()
        columns = ["--column", "confirmed"] if command == "fit" else ["--columns", "confirmed,recovered"]
        before = _snapshot(tmp_path)
        assert main([command, "--input", "data.csv", *columns, *outputs] + FIT_SPEED_FLAGS) == 1
        captured = capsys.readouterr()
        assert message in captured.err and ".tmp" not in captured.err
        assert captured.out == ""
        assert _snapshot(tmp_path) == before

    def test_write_replaces_outputs_and_leaves_no_temporary_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        _write_csv(tmp_path / "data.csv", ["confirmed", "recovered"])
        (tmp_path / "o.svg").write_text("an older overlay\n", encoding="utf-8")
        code = main(
            ["compare", "--input", "data.csv", "--columns", "confirmed,recovered",
             "--json-out", "new/sub", "--svg-out", "o.svg"] + FIT_SPEED_FLAGS
        )
        assert code == 0
        assert sorted(_snapshot(tmp_path)) == [
            "data.csv", "new", "new/sub", "new/sub/comparison.json",
            "new/sub/confirmed.report.json", "new/sub/recovered.report.json", "o.svg",
        ]
        assert (tmp_path / "o.svg").read_text().startswith("<svg")
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["confirmed", "recovered"]
        assert lines[2:] == ["wrote o.svg, new/sub/comparison.json, and 2 reports in new/sub"]


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
