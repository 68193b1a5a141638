"""End-to-end tests of the command line interface."""

import argparse
import csv
import datetime as dt
import io
import json
import logging
import os
import statistics
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from hurstks import cli, minimize, pipeline
from hurstks.cli import main
from hurstks.fgn import EmbeddingError, FgnSpec, simulate_fbm
from hurstks.ksdist import ks_critical
from hurstks.pipeline import load_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_CHUNK_EDGES = [
    cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS, cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 3,
    4 * cli._CHUNK_ROWS, 4 * cli._CHUNK_ROWS + 1,
]


def _before_chunk_edge(day: str) -> str:
    # The start date whose second chunk opens on ``day``.
    return (dt.date.fromisoformat(day) - dt.timedelta(days=cli._CHUNK_ROWS)).isoformat()


def _csv_writer_bytes(length: int, first: dt.date) -> bytes:
    # Reference for `simulate --hurst 0.3 --seed 5`: the csv.writer loop,
    # one row per point, whose bytes the chunked writer must reproduce.
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["date", "value"])
    values = simulate_fbm(FgnSpec(hurst=0.3, length=length, seed=5)).values
    for k, value in enumerate(values):
        day = dt.date.fromordinal(first.toordinal() + k)
        writer.writerow([day.isoformat(), repr(float(value))])
    return want.getvalue().encode()


class TestSimulate:
    def test_writes_date_value_csv(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, stdout, _ = run(
            capsys, "simulate", "--hurst", "0.5", "--length", "64",
            "--seed", "7", "--out", str(out),
        )
        assert code == 0
        assert "wrote 64 points" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["date", "value"]
        assert len(rows) == 65
        assert rows[1] == ["2000-01-03", "0.0"]

    def test_round_trips_to_full_precision(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, _, _ = run(
            capsys, "simulate", "--hurst", "0.7", "--length", "128",
            "--seed", "3", "--out", str(out),
        )
        assert code == 0
        want = simulate_fbm(FgnSpec(hurst=0.7, length=128, seed=3)).values
        got = load_series(str(out), value_scale="log").path.values
        assert np.array_equal(got, want)

    def test_bad_hurst_is_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "simulate", "--hurst", "1.5", "--length", "64",
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 1
        assert "error" in err

    # Lengths at and beside chunk edges, and one that ends inside a
    # chunk; the last two starts put the first chunk edge between Feb 28
    # and Feb 29, and between Dec 31 and Jan 1.
    @pytest.mark.parametrize("length", [1, 2, *_CHUNK_EDGES, 70000])
    @pytest.mark.parametrize(
        "start",
        ["1999-12-31", "2000-02-28", "last", "0999-12-20", "1899-12-30",
         *(_before_chunk_edge(day) for day in ("2004-02-29", "2001-01-01"))],
    )
    def test_bytes_match_csv_writer(self, tmp_path, capsys, length, start):
        last_fit = dt.date.max - dt.timedelta(days=length - 1)
        first = last_fit if start == "last" else dt.date.fromisoformat(start)
        out = tmp_path / "p.csv"
        code, _, err = run(
            capsys, "simulate", "--hurst", "0.3", "--length", str(length), "--seed", "5",
            "--start-date", first.isoformat(), "--out", str(out),
        )
        if length < 2:
            assert code == 1 and "length must be at least 2" in err
            assert not out.exists()
            return
        assert code == 0
        assert out.read_bytes() == _csv_writer_bytes(length, first)

    def test_dates_past_year_9999_rejected_before_writing(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code, stdout, err = run(
            capsys, "simulate", "--hurst", "0.5", "--length", "100",
            "--start-date", "9999-12-01", "--out", str(out),
        )
        assert code == 1
        assert err == "error: 100 daily points from 9999-12-01 run past 9999-12-31\n"
        assert stdout == ""
        assert not out.exists()


class TestEstimate:
    def test_recovers_exponent_from_simulated_path(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        run(capsys, "simulate", "--hurst", "0.5", "--length", "4096",
            "--seed", "7", "--out", str(out))
        code, stdout, _ = run(
            capsys, "estimate", "--input", str(out), "--amax", "50",
            "--subseq", "500", "--optimizer", "brent", "--seed", "7",
        )
        assert code == 0
        h_hat = float(stdout.split("h_hat = ")[1].split("\n")[0])
        assert 0.3 < h_hat < 0.7
        assert h_hat == pytest.approx(0.518700, abs=1e-6)
        assert "delta_min = " in stdout
        assert "critical = " in stdout
        assert "significant = true\nconverged = true\n" in stdout
        assert "ci = [" in stdout

    def test_exhausted_budget_prints_not_converged(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        run(capsys, "simulate", "--hurst", "0.5", "--length", "4096",
            "--seed", "7", "--out", str(out))
        code, stdout, _ = run(
            capsys, "estimate", "--input", str(out), "--amax", "50",
            "--subseq", "500", "--seed", "7", "--max-evals", "30",
        )
        assert code == 0
        assert "converged = false\n" in stdout

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity"])
    def test_infinite_value_is_input_error_with_line(self, tmp_path, capsys, cell):
        file = tmp_path / "inf.csv"
        file.write_text(f"date,value\n2001-01-01,1.0\n2001-01-02,{cell}\n2001-01-03,2.0\n")
        code, _, err = run(capsys, "estimate", "--input", str(file), "--amax", "2")
        assert code == 1
        assert f"{file}: line 3: non-finite value {cell!r}" in err

    def test_non_utf8_series_is_input_error_with_line(self, tmp_path, capsys):
        file = tmp_path / "latin1.csv"
        file.write_bytes(b"date,value\r\n2001-01-01,1.0\r\n2001-01-02,\xff\r\n")
        code, stdout, err = run(capsys, "estimate", "--input", str(file), "--amax", "2")
        assert code == 1
        assert stdout == ""
        assert err == f"error: {file}: line 3: not UTF-8 text\n"

    @pytest.mark.parametrize("size", [1 << 16, 1])
    def test_overlong_quoted_field_is_input_error_with_line(
        self, tmp_path, capsys, monkeypatch, size
    ):
        # csv.reader takes over at line 1, or at line 3 in pieces of one
        # line; a quoted line break puts the long field on line 5.
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        file = tmp_path / "long.csv"
        file.write_text(
            'date,value\n2001-01-01,1.0\n"2001-01-02"," 2.0\n"\n'
            f'2001-01-03,"{"1" * 140_000}"\n2001-01-04,3.0\n'
        )
        code, stdout, err = run(capsys, "estimate", "--input", str(file), "--amax", "2")
        assert code == 1
        assert stdout == ""
        limit = csv.field_size_limit()
        assert err == f"error: {file}: line 5: field larger than field limit ({limit})\n"

    def test_missing_input_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "estimate")
        assert code == 1
        assert "usage" in err or "required" in err

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "estimate", "--input", "/no/such/file.csv")
        assert code == 1
        assert "error" in err

    def test_constant_series_is_numerical_failure(self, tmp_path, capsys):
        file = tmp_path / "flat.csv"
        with open(file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "value"])
            for day in range(1, 21):
                writer.writerow([f"2001-01-{day:02d}", "1.0"])
        code, _, err = run(
            capsys, "estimate", "--input", str(file), "--amax", "2",
        )
        assert code == 2
        assert "error" in err

    def test_series_shorter_than_lag_is_input_error(self, tmp_path, capsys):
        file = tmp_path / "short.csv"
        with open(file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "value"])
            for day in range(1, 11):
                writer.writerow([f"2001-01-{day:02d}", str(float(day))])
        code, _, err = run(capsys, "estimate", "--input", str(file), "--amax", "50")
        assert code == 1
        assert "error" in err


def _level_csv(tmp_path, name, n, hurst=0.5, seed=0):
    import datetime as dt

    path = simulate_fbm(FgnSpec(hurst=hurst, length=n, seed=seed))
    file = tmp_path / name
    day = dt.date(2000, 1, 3)
    one = dt.timedelta(days=1)
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for v in np.exp(path.values):
            writer.writerow([day.isoformat(), repr(float(v))])
            day += one
    return str(file)


class TestAnalyze:
    def test_windowed_run_from_flags(self, tmp_path, capsys):
        file = _level_csv(tmp_path, "v.csv", 9018)
        out_dir = tmp_path / "out"
        code, stdout, _ = run(
            capsys, "analyze", "--input", file, "--out-dir", str(out_dir),
            "--seed", "5",
        )
        assert code == 0
        assert "5 windows (remainder 1458)" in stdout
        assert "constancy chi2(4)" in stdout
        assert (out_dir / "report.json").exists()
        assert (out_dir / "windows.csv").exists()
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["series"][0]["n_windows"] == 5

    def test_two_window_run_prints_df_one(self, tmp_path, capsys):
        file = _level_csv(tmp_path, "v.csv", 3024)
        code, stdout, _ = run(
            capsys, "analyze", "--input", file, "--out-dir", str(tmp_path / "o"),
        )
        assert code == 0
        assert "chi2(1)" in stdout

    def test_manifest_drives_the_run(self, tmp_path, capsys):
        file = _level_csv(tmp_path, "v.csv", 3024)
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            f"input = {file}\n"
            f"out_dir = {tmp_path / 'mout'}\n"
            "window_length = 1512\n"
            "seed = 5\n"
        )
        code, stdout, _ = run(capsys, "analyze", "--manifest", str(manifest))
        assert code == 0
        assert (tmp_path / "mout" / "report.json").exists()

    def test_manifest_and_flags_agree(self, tmp_path, capsys):
        file = _level_csv(tmp_path, "v.csv", 3024)
        manifest = tmp_path / "run.manifest"
        manifest.write_text(
            f"input = {file}\nout_dir = {tmp_path / 'a'}\nseed = 9\n"
            "a_max = 15\nalpha = 0.1\noptimizer = nelder_mead\ngrid_step = 1e-3\n"
        )
        run(capsys, "analyze", "--manifest", str(manifest))
        run(capsys, "analyze", "--input", file, "--out-dir", str(tmp_path / "b"),
            "--seed", "9", "--amax", "15", "--alpha", "0.1", "--optimizer", "nelder_mead",
            "--grid-step", "1e-3")
        for name in ("report.json", "windows.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_flag_destinations_are_manifest_keys(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        dests = {a.dest for a in sub.choices["analyze"]._actions} - {"help", "manifest"}
        assert dests == set(pipeline._MANIFEST_KEYS)

    def test_exhausted_budget_is_numerical_failure(self, tmp_path, capsys):
        file = _level_csv(tmp_path, "v.csv", 3024)
        out_dir = tmp_path / "o"
        code, _, err = run(
            capsys, "analyze", "--input", file, "--out-dir", str(out_dir),
            "--max-evals", "30",
        )
        assert code == 2
        assert f"{file}: window 0: minimizer ran out of its budget of 30 evaluations" in err
        assert not (out_dir / "report.json").exists()
        assert not (out_dir / "windows.csv").exists()

    def test_two_series_prints_z(self, tmp_path, capsys):
        fa = _level_csv(tmp_path, "a.csv", 3024, seed=0)
        fb = _level_csv(tmp_path, "b.csv", 3024, seed=1)
        code, stdout, _ = run(
            capsys, "analyze", "--input", fa, "--input2", fb,
            "--out-dir", str(tmp_path / "o2"),
        )
        assert code == 0
        assert "z = " in stdout
        assert "one-sided p = " in stdout

    def test_manifest_takes_no_other_flags(self, tmp_path, capsys):
        file = _level_csv(tmp_path, "v.csv", 3024)
        manifest = tmp_path / "run.manifest"
        manifest.write_text(f"input = {file}\nout_dir = {tmp_path / 'm'}\n")
        code, _, err = run(
            capsys, "analyze", "--manifest", str(manifest), "--seed", "5",
            "--amax", "50", "--out-dir", str(tmp_path / "o"),
        )
        assert code == 1
        assert err == "error: --manifest takes no other flags: ['a_max', 'out_dir', 'seed']\n"
        assert not (tmp_path / "m").exists()
        assert not (tmp_path / "o").exists()

    def test_needs_manifest_or_input(self, capsys):
        code, _, err = run(capsys, "analyze")
        assert code == 1
        assert "error" in err

    def test_malformed_csv_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,value\n2001-01-01,1.0\n2001-01-01,2.0\n")
        code, _, err = run(
            capsys, "analyze", "--input", str(bad), "--out-dir", str(tmp_path / "o"),
        )
        assert code == 1
        assert "duplicate date" in err

    @pytest.mark.parametrize("rows,message", [
        ("2001-01-01,1.0\n2001-01-02,abc\n", "line 3: bad value 'abc'"),
        ("2001-01-01,1.0\n", "fewer than two usable rows"),
        ("2001-01-01,1.0\n2001-01-02,1.1\n", "shorter than one window"),
    ], ids=["bad-value", "one-row", "short"])
    def test_bad_second_input_fails_before_the_first_window(
        self, tmp_path, capsys, monkeypatch, rows, message
    ):
        def estimate_hurst(*args, **kwargs):
            raise AssertionError("a window was estimated before every input was read")

        monkeypatch.setattr(pipeline, "estimate_hurst", estimate_hurst)
        good = _level_csv(tmp_path, "a.csv", 3024)
        bad = tmp_path / "bad.csv"
        bad.write_text("date,value\n" + rows)
        code, _, err = run(
            capsys, "analyze", "--input", good, "--input2", str(bad),
            "--out-dir", str(tmp_path / "o"),
        )
        assert code == 1
        assert message in err

    def test_window_errors_name_the_file(self, tmp_path, capsys, caplog):
        # 3,100 points make two windows of 1,512 and a tail of 76.
        level = _level_csv(tmp_path, "level.csv", 3100)
        short = tmp_path / "short.csv"
        short.write_text("date,value\n2001-01-01,1.0\n2001-01-02,1.1\n2001-01-03,1.2\n")
        with caplog.at_level(logging.INFO, logger="hurstks.pipeline"):
            code, _, err = run(
                capsys, "analyze", "--input", level, "--input2", str(short),
                "--out-dir", str(tmp_path / "o"),
            )
        assert code == 1
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {short}: series of 3 points is shorter than one window (1512)"
        ]
        assert [r.getMessage() for r in caplog.records if "trailing" in r.getMessage()] == [
            f"{level}: discarding 76 trailing points"
        ]

    def test_flat_window_names_the_file_and_window(self, tmp_path, capsys):
        values = np.exp(simulate_fbm(FgnSpec(hurst=0.5, length=3024, seed=0)).values)
        values[1512:] = 1.0
        start = dt.date(2000, 1, 3)
        file = tmp_path / "flat.csv"
        file.write_text("date,value\n" + "".join(
            f"{start + dt.timedelta(i)},{v!r}\n" for i, v in enumerate(values.tolist())
        ))
        out = tmp_path / "o"
        code, _, err = run(capsys, "analyze", "--input", str(file), "--out-dir", str(out))
        assert code == 2
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: {file}: window 1: constant increment sample"
        ]
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("line,message", [
        ("a_max = 2.5", "line 2: a_max: expected int, got '2.5'"),
        ("alpha = x", "line 2: alpha: expected float, got 'x'"),
        ("max_evals = 1e3", "line 2: max_evals: expected int, got '1e3'"),
    ], ids=["a_max", "alpha", "max_evals"])
    def test_bad_manifest_value_names_line_and_key(self, tmp_path, capsys, line, message):
        manifest = tmp_path / "m.manifest"
        manifest.write_text(f"input = a.csv\n{line}\n")
        code, _, err = run(capsys, "analyze", "--manifest", str(manifest))
        assert code == 1
        assert err == f"error: {manifest}: {message}\n"

    def test_non_utf8_manifest_is_input_error_with_line(self, tmp_path, capsys):
        manifest = tmp_path / "m.manifest"
        manifest.write_bytes(b"input = a.csv\n\n# r\xe9sum\xe9\n")
        code, stdout, err = run(capsys, "analyze", "--manifest", str(manifest))
        assert code == 1
        assert stdout == ""
        assert err == f"error: {manifest}: line 3: not UTF-8 text\n"

    @pytest.mark.parametrize("lines,message", [
        ("a_max = 1", "line 2: a_max: a_max must exceed 1"),
        ("optimizer = newton", "line 2: optimizer: method must be one of ("),
        # The block scheme is a library tool, not a manifest key.
        ("perm_scheme = block", "line 2: unknown key 'perm_scheme'"),
        # The stopping bracket is fixed; grid_step sets the resolution.
        ("tolerance = 1e-6", "line 2: unknown key 'tolerance'"),
        ("seed = -1", "line 2: seed: master_seed must be non-negative"),
        (
            "window_length = 10\n# comment\nsubseq = 5",
            "line 2: window_length, line 4: subseq: window_length must exceed a_max",
        ),
        # A one-value sample is constant.
        ("subseq = 1", "line 2: subseq: subseq must lie in [2, window_length - a_max]"),
        (
            "a_max = 10\nwindow_length = 11",
            "line 2: a_max, line 3: window_length: window_length must exceed a_max + 1",
        ),
        (
            "grid_step = 1e-20",
            "line 2: grid_step: grid_step 1e-20 gives more than sys.maxsize mesh cells",
        ),
        ("alpha = 1e-17", "line 2: alpha: alpha 1e-17 is too small: 1 - alpha/2 rounds to 1"),
    ], ids=["a_max", "optimizer", "perm_scheme", "tolerance", "seed", "window", "subseq",
            "one-increment-window", "grid_step", "tiny-alpha"])
    def test_manifest_value_out_of_range_names_line_and_key(
        self, tmp_path, capsys, lines, message
    ):
        manifest = tmp_path / "m.manifest"
        manifest.write_text(f"input = a.csv\n{lines}\n")
        code, _, err = run(capsys, "analyze", "--manifest", str(manifest))
        assert code == 1
        assert err.startswith(f"error: {manifest}: {message}")


class TestBench:
    def test_writes_csv_with_requested_cells(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "2",
            "--methods", "brent", "--length", "1025", "--subseq", "200",
            "--out", str(out),
        )
        assert code == 0
        assert "wrote 2 rows" in stdout
        assert "(0 failures, 0 not converged)" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["method"] for r in rows} == {"brent"}
        assert all(0.0 < float(r["h_hat"]) <= 1.0 for r in rows)

    def test_exhausted_budget_is_counted_apart_from_failures(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent,grid",
            "--length", "1025", "--subseq", "200", "--max-evals", "30", "--out", str(out),
        )
        assert code == 0
        assert "wrote 2 rows" in stdout
        assert "(0 failures, 2 not converged)" in stdout
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["evaluations"], r["error"], r["converged"]) for r in rows] == [
            ("30", "", "False")
        ] * 2

    def test_unknown_method_is_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "bench", "--methods", "newton", "--out", str(tmp_path / "b.csv"),
        )
        assert code == 1
        assert "unknown methods" in err

    def test_bad_h_list_is_input_error(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "bench", "--h-list", "0.2;0.4", "--out", str(tmp_path / "b.csv"),
        )
        assert code == 1
        assert "error" in err

    @staticmethod
    def _never_called(*args, **kwargs):
        raise AssertionError("a bench cell ran")

    @pytest.mark.parametrize(
        "flags",
        [
            ["--h-list", ""],
            ["--methods", ""],
            ["--h-list", "0.5,1.5"],
            ["--h-list", "0.5,0.5"],
            ["--methods", "brent,brent"],
            ["--reps", "0"],
            ["--subseq", "976"],
            ["--subseq", "1"],
            ["--subseq", "0"],
            ["--length", "40"],
        ],
    )
    def test_bad_settings_fail_before_any_cell(self, tmp_path, capsys, monkeypatch, flags):
        monkeypatch.setattr(cli, "bench_optimizers", self._never_called)
        out = tmp_path / "b.csv"
        code, stdout, err = run(
            capsys, "bench", "--reps", "2", "--methods", "brent", "--length", "1025",
            "--subseq", "200", *flags, "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: ") and stdout == ""
        assert not out.exists()

    @staticmethod
    def _table(stdout):
        """Table lines of ``bench`` output by (method, h_true), and the
        closing line."""
        lines = stdout.splitlines()
        assert lines[0].startswith("wrote ")
        assert lines[2].split()[:3] == ["method", "h_true", "kept"]
        rows = {(ln.split()[0], float(ln.split()[1])): ln.split() for ln in lines[3:-1]}
        return rows, lines[-1]

    def test_table_matches_csv(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        code, stdout, _ = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "2", "--methods", "grid,brent",
            "--length", "1025", "--subseq", "200", "--out", str(out),
        )
        assert code == 0
        rows, last = self._table(stdout)
        assert list(rows) == [("grid", 0.5), ("brent", 0.5)]
        with open(out, newline="") as fh:
            cells = list(csv.DictReader(fh))
        grid = {c["rep"]: float(c["h_hat"]) for c in cells if c["method"] == "grid"}
        critical = ks_critical(200, 200, 0.05)
        for method in ("grid", "brent"):
            mine = [c for c in cells if c["method"] == method]
            hats = [float(c["h_hat"]) for c in mine]
            mean = statistics.fmean(hats)
            fits = sum(float(c["delta_min"]) < critical for c in mine)
            agree = sum(abs(float(c["h_hat"]) - grid[c["rep"]]) <= 2e-3 for c in mine)
            got = rows[method, 0.5]
            assert got[2] == "2/2"
            assert got[3:6] == [f"{mean:.4f}", f"{mean - 0.5:.4f}", f"{statistics.stdev(hats):.4f}"]
            assert got[7] == str(fits)
            assert got[8] == ("-" if method == "grid" else f"{agree}/2")
        assert last.startswith("left out 0 cells")

    def test_table_leaves_out_unconverged_cells(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "2", "--methods", "grid,brent",
            "--length", "1025", "--subseq", "200", "--max-evals", "30",
            "--out", str(tmp_path / "bench.csv"),
        )
        assert code == 0
        rows, last = self._table(stdout)
        assert [row[2:] for row in rows.values()] == [
            ["0/2", "nan", "nan", "nan", "nan", "0", "-", "nan", "nan"],
            ["0/2", "nan", "nan", "nan", "nan", "0", "0/0", "nan", "nan"],
        ]
        assert last.startswith("left out 4 cells")

    def test_one_kept_cell_has_no_spread(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, _ = run(
                capsys, "bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
                "--length", "1025", "--subseq", "200", "--out", str(tmp_path / "bench.csv"),
            )
        assert code == 0
        rows, _ = self._table(stdout)
        row = rows["brent", 0.5]
        assert row[2] == "1/1"
        assert row[5:7] == ["nan", "nan"]
        assert float(row[3]) == float(row[4]) + 0.5

    def test_failed_grid_cell_is_left_out_of_agree(self, tmp_path, capsys, monkeypatch):
        real = minimize.minimize_scalar

        def grid_fails(objective, config):
            if config.method == "grid":
                raise ValueError("grid failed")
            return real(objective, config)

        monkeypatch.setattr(minimize, "minimize_scalar", grid_fails)
        code, stdout, _ = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent,grid",
            "--length", "1025", "--subseq", "200", "--out", str(tmp_path / "bench.csv"),
        )
        assert code == 0
        assert stdout.startswith("wrote 2 rows") and "(1 failures, 0 not converged)" in stdout
        rows, last = self._table(stdout)
        assert (rows["brent", 0.5][2], rows["brent", 0.5][8]) == ("1/1", "0/0")
        assert rows["grid", 0.5][2] == "0/1"
        assert last.startswith("left out 1 cells") and "and 1 more from agree" in last

    def test_agree_needs_the_grid(self, tmp_path, capsys):
        code, stdout, _ = run(
            capsys, "bench", "--h-list", "0.3,0.6", "--reps", "1", "--methods", "brent",
            "--length", "1025", "--subseq", "200", "--out", str(tmp_path / "bench.csv"),
        )
        assert code == 0
        rows, _ = self._table(stdout)
        assert list(rows) == [("brent", 0.3), ("brent", 0.6)]
        assert all(row[8] == "-" for row in rows.values())


class TestOutputPaths:
    """An output path that cannot be written is an input error (exit 1,
    one ``error:`` line), not a traceback."""

    @staticmethod
    def _plain_file(tmp_path):
        file = tmp_path / "taken"
        file.write_text("not a directory\n")
        return file

    @pytest.mark.parametrize("sub", ["", "sub"])
    def test_analyze_out_dir_fails_before_the_first_window(
        self, tmp_path, capsys, monkeypatch, sub
    ):
        file = _level_csv(tmp_path, "v.csv", 3024)
        taken = self._plain_file(tmp_path)
        out_dir = taken / sub if sub else taken

        def no_estimates(*args, **kwargs):
            raise AssertionError("a window was estimated")

        monkeypatch.setattr(pipeline, "estimate_hurst", no_estimates)
        code, stdout, err = run(capsys, "analyze", "--input", file, "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert stdout == ""

    def test_simulate_out_under_a_file(self, tmp_path, capsys):
        out = self._plain_file(tmp_path) / "x.csv"
        code, stdout, err = run(
            capsys, "simulate", "--hurst", "0.5", "--length", "64", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: ") and stdout == ""

    def test_bench_out_under_a_file(self, tmp_path, capsys):
        out = self._plain_file(tmp_path) / "b.csv"
        code, stdout, err = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
            "--length", "1025", "--subseq", "200", "--out", str(out),
        )
        assert code == 1
        assert err.startswith("error: ") and stdout == ""

    @staticmethod
    def _never_called(*args, **kwargs):
        raise AssertionError("work ran before the output was opened")

    def test_simulate_out_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "simulate_fbm", self._never_called)
        code, stdout, err = run(
            capsys, "simulate", "--hurst", "0.5", "--length", "64",
            "--out", str(tmp_path / "missing" / "p.csv"),
        )
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert stdout == ""

    def test_failed_simulation_keeps_an_existing_out(self, tmp_path, capsys, monkeypatch):
        def no_embedding(*args, **kwargs):
            raise EmbeddingError("no embedding")

        out = tmp_path / "p.csv"
        out.write_text("date,value\n2000-01-03,0.0\n")
        monkeypatch.setattr(cli, "simulate_fbm", no_embedding)
        code, stdout, err = run(
            capsys, "simulate", "--hurst", "0.5", "--length", "64", "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: ") and stdout == ""
        assert out.read_text() == "date,value\n2000-01-03,0.0\n"

    def test_failed_simulation_leaves_no_new_out(self, tmp_path, capsys, monkeypatch):
        def no_embedding(*args, **kwargs):
            raise EmbeddingError("no embedding")

        monkeypatch.setattr(cli, "simulate_fbm", no_embedding)
        code, stdout, err = run(
            capsys, "simulate", "--hurst", "0.5", "--length", "64",
            "--out", str(tmp_path / "fresh.csv"),
        )
        assert code == 2
        assert err.startswith("error: ") and stdout == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "existing", [None, "method,h_true\r\ngrid,0.5\r\n"], ids=["fresh", "existing"]
    )
    def test_failed_bench_keeps_or_leaves_no_out(self, tmp_path, capsys, monkeypatch, existing):
        # A failure in the first cell leaves an existing --out as it was
        # and removes one the command created.
        def no_embedding(*args, **kwargs):
            raise EmbeddingError("no embedding")

        out = tmp_path / "b.csv"
        if existing is not None:
            out.write_bytes(existing.encode())
        monkeypatch.setattr(minimize, "simulate_fbm", no_embedding)
        code, stdout, err = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
            "--out", str(out),
        )
        assert code == 2
        assert err.startswith("error: ") and stdout == ""
        if existing is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert out.read_bytes() == existing.encode()

    _SIMULATE = ["simulate", "--hurst", "0.3", "--length", "300", "--seed", "5"]
    _BENCH = ["bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
              "--length", "1025", "--subseq", "200"]

    # A device or a pipe cannot be truncated; the command writes to it.
    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_out_to_devnull(self, capsys, command):
        argv = self._SIMULATE if command == "simulate" else self._BENCH
        code, stdout, err = run(capsys, *argv, "--out", os.devnull)
        assert (code, err) == (0, "")
        assert stdout.startswith("wrote ")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /dev/fd")
    def test_out_to_a_pipe(self, capsys):
        # The output (~9 kB) fits in the pipe's buffer, so nothing reads
        # until the command is done.
        read_end, write_end = os.pipe()
        try:
            code, _, err = run(capsys, *self._SIMULATE, "--out", f"/dev/fd/{write_end}")
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as fh:
            got = fh.read()
        assert (code, err) == (0, "")
        assert got == _csv_writer_bytes(300, dt.date(2000, 1, 3))

    @pytest.mark.parametrize("command", ["simulate", "bench"])
    def test_existing_longer_out_is_emptied_first(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        out.write_bytes(b"old,row\r\n" * 100_000)
        argv = self._SIMULATE if command == "simulate" else self._BENCH
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert (code, err) == (0, "")
        if command == "simulate":
            assert out.read_bytes() == _csv_writer_bytes(300, dt.date(2000, 1, 3))
        else:
            with open(out, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [(row["method"], row["h_true"]) for row in rows] == [("brent", "0.5")]

    def test_bench_out_fails_before_the_first_cell(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "bench_optimizers", self._never_called)
        code, stdout, err = run(
            capsys, "bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
            "--out", str(tmp_path / "missing" / "b.csv"),
        )
        assert code == 1
        assert err.startswith("error: ") and "Traceback" not in err
        assert stdout == ""


@pytest.mark.parametrize(
    "command, flags, output",
    [
        ("simulate", ["--hurst", "0.5", "--length", "64"], "--out"),
        ("estimate", ["--amax", "10"], None),
        ("analyze", ["--window", "1000", "--amax", "10"], "--out-dir"),
        ("bench", ["--h-list", "0.5", "--reps", "1", "--methods", "brent"], "--out"),
    ],
)
def test_negative_seed_fails_before_any_output(tmp_path, capsys, command, flags, output):
    argv = [command, *flags, "--seed", "-1"]
    if command in ("estimate", "analyze"):
        argv += ["--input", _level_csv(tmp_path, "v.csv", 1000), "--input-scale", "level"]
    if output:
        argv += [output, str(tmp_path / "out")]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and "seed must be non-negative" in err
    assert stdout == ""
    assert not (tmp_path / "out").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("a front end estimated a sample it should have rejected")


# A one-value sample is constant.  ``points`` is the length of the
# input series, or None for no input file at all: those settings are
# rejected before any input is read.
@pytest.mark.parametrize(
    "command, flags, points, message",
    [
        ("estimate", ["--amax", "10", "--subseq", "1"], None, "--subseq must be at least 2"),
        ("estimate", ["--amax", "10"], 11, "series of 11 points is shorter than --amax + 2"),
        ("analyze", ["--window", "500", "--amax", "10", "--subseq", "1"], None,
         "subseq must lie in [2, window_length - a_max]"),
        ("analyze", ["--window", "11", "--amax", "10"], None,
         "window_length must exceed a_max + 1"),
    ],
    ids=["estimate-subseq", "estimate-series", "analyze-subseq", "analyze-window"],
)
def test_one_value_sample_is_an_input_error(
    tmp_path, capsys, monkeypatch, command, flags, points, message
):
    # bench's --subseq 1 is a case of TestBench::test_bad_settings_fail_before_any_cell.
    monkeypatch.setattr(cli, "estimate_hurst", _no_work)
    monkeypatch.setattr(cli, "run_static_analysis", _no_work)
    file = tmp_path / "v.csv"
    if points is not None:
        file = _level_csv(tmp_path, "v.csv", points)
    out = tmp_path / "out"
    argv = [command, *flags, "--input", str(file), "--input-scale", "level"]
    if command == "analyze":
        argv += ["--out-dir", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error: ") and message in err
    assert stdout == ""
    assert not out.exists()


# Settings that lie in their stated ranges but past what a float or an
# index can carry: a mesh of more than sys.maxsize cells, or an alpha
# so small that 1 - alpha/2 rounds to 1 and the interval has no quantile.
@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("estimate", ["--grid-step", "1e-20"], "grid_step 1e-20 gives more than sys.maxsize mesh cells"),
        ("estimate", ["--grid-step", "5e-324"], "grid_step 5e-324 gives more than sys.maxsize mesh cells"),
        ("analyze", ["--grid-step", "1e-20"], "grid_step 1e-20 gives more than sys.maxsize mesh cells"),
        ("analyze", ["--alpha", "1e-17"], "alpha 1e-17 is too small: 1 - alpha/2 rounds to 1"),
        ("estimate", ["--alpha", "1e-17"], "alpha 1e-17 is too small: 1 - alpha/2 rounds to 1"),
    ],
    ids=["estimate-step", "estimate-subnormal-step", "analyze-step", "analyze-alpha", "estimate-alpha"],
)
def test_settings_past_float_range_fail_before_any_estimate(
    tmp_path, capsys, monkeypatch, command, flags, message
):
    monkeypatch.setattr(cli, "estimate_hurst", _no_work)
    monkeypatch.setattr(cli, "run_static_analysis", _no_work)
    out = tmp_path / "out"
    argv = [command, *flags, "--optimizer", "grid", "--input-scale", "level"]
    argv += ["--input", _level_csv(tmp_path, "v.csv", 300)]
    if command == "analyze":
        argv += ["--out-dir", str(out)]
    code, stdout, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {message}\n"
    assert stdout == ""
    assert not out.exists()


def test_estimate_alpha_too_small_for_the_interval_names_alpha(tmp_path, capsys, monkeypatch):
    # The level is rejected before the series is read, so nothing is
    # printed.
    monkeypatch.setattr(cli, "load_series", _never_read)
    file = _level_csv(tmp_path, "v.csv", 300)
    code, stdout, err = run(
        capsys, "estimate", "--input", file, "--input-scale", "level", "--alpha", "1e-17"
    )
    assert code == 1
    assert err == "error: alpha 1e-17 is too small: 1 - alpha/2 rounds to 1\n"
    assert stdout == ""


def test_estimate_subseq_above_the_coarse_sample_is_an_input_error(tmp_path, capsys, monkeypatch):
    # 300 points leave 250 lag-50 increments, the binding limit (the
    # fine sample has 299); the check names the flag, not the library
    # field, and comes before any estimate.
    monkeypatch.setattr(cli, "estimate_hurst", _no_work)
    file = _level_csv(tmp_path, "v.csv", 300)
    code, stdout, err = run(
        capsys, "estimate", "--input", str(file), "--input-scale", "level",
        "--amax", "50", "--subseq", "280",
    )
    assert code == 1
    assert err == "error: --subseq 280 exceeds the 250 lag-50 increments of the series\n"
    assert stdout == ""


def _never_read(*args, **kwargs):
    raise AssertionError("estimate read an input it should have rejected unread")


@pytest.mark.parametrize("amax", ["0", "1", "-3"])
@pytest.mark.parametrize("command", ["estimate", "bench"])
def test_amax_below_two_fails_before_any_input_or_output(
    tmp_path, capsys, monkeypatch, command, amax
):
    # A coarse lag below 2 leaves nothing to rescale; the check names
    # the flag and comes before estimate reads its input and before
    # bench opens --out.
    monkeypatch.setattr(cli, "load_series", _never_read)
    monkeypatch.setattr(cli, "bench_optimizers", _no_work)
    out = tmp_path / "b.csv"
    if command == "estimate":
        argv = ["estimate", "--input", _level_csv(tmp_path, "v.csv", 300)]
    else:
        argv = ["bench", "--reps", "1", "--methods", "brent", "--out", str(out)]
    code, stdout, err = run(capsys, *argv, "--amax", amax)
    assert code == 1
    assert err == "error: --amax must be at least 2\n"
    assert stdout == ""
    assert not out.exists()


# Bad level files, as the rows after the header, with the error and the
# dropped-rows line that both front ends must report for them.
_ROUTE_CASES = {
    "one-row": ("2001-01-01,1.0\n2001-01-02,-1.0\n", "fewer than two usable rows",
                "dropped 1 of 2 rows (>1%)"),
    "duplicate-date": ("2001-01-01,1.0\n2001-01-02,\n2001-01-01,2.0\n",
                       "duplicate date 2001-01-01", None),
    "bad-value": ("2001-01-01,1.0\n2001-01-02,abc\n2001-01-03,\n", "line 3: bad value 'abc'",
                  None),
    "dropped-31": (None, None, "dropped 31 of 3024 rows (>1%)"),
}


@pytest.mark.parametrize("case", list(_ROUTE_CASES))
def test_estimate_and_analyze_read_input_alike(tmp_path, capsys, caplog, case):
    rows, error, dropped = _ROUTE_CASES[case]
    if rows is None:
        values = np.exp(simulate_fbm(FgnSpec(hurst=0.5, length=3024, seed=0)).values)
        values[1:32] = -1.0
        start = dt.date(2000, 1, 3)
        rows = "".join(
            f"{start + dt.timedelta(i)},{v!r}\n" for i, v in enumerate(values.tolist())
        )
    file = tmp_path / "v.csv"
    file.write_text("date,value\n" + rows)
    seen = []
    for argv in (["estimate", "--input-scale", "level"], ["analyze", "--out-dir", str(tmp_path)]):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="hurstks.pipeline"):
            code, _, err = run(capsys, *argv, "--input", str(file))
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        logged = [r.getMessage() for r in caplog.records if "dropped" in r.getMessage()]
        seen.append((code, errors, logged))
    want = (
        1 if error else 0,
        [f"error: {file}: {error}"] if error else [],
        [f"{file}: {dropped}"] if dropped else [],
    )
    assert seen == [want, want]


class TestTopLevel:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["simulate", "--wibble", "3"]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert main(["transmogrify"]) == 1

    # Both front ends always subsample uniformly; the block scheme is
    # left to the library.
    @pytest.mark.parametrize("command", ["estimate", "analyze"])
    @pytest.mark.parametrize("flag", [["--perm-scheme", "block"], ["--block-length", "7"]])
    def test_block_scheme_flags_exit_one(self, tmp_path, capsys, command, flag):
        code, _, err = run(capsys, command, "--input", str(tmp_path / "p.csv"), *flag)
        assert code == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in err

    # The local methods' stopping bracket is fixed, not a setting.
    @pytest.mark.parametrize("command", ["estimate", "analyze", "bench"])
    def test_tolerance_flag_exits_one(self, tmp_path, capsys, command):
        required = "--out" if command == "bench" else "--input"
        code, _, err = run(
            capsys, command, required, str(tmp_path / "p.csv"), "--tolerance", "1e-5"
        )
        assert code == 1
        assert "unrecognized arguments: --tolerance 1e-5" in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("command", ["estimate", "bench"])
    def test_closed_stdout_ends_quietly(self, tmp_path, capsys, command):
        # The reader goes away before the command prints: the work is
        # done, the exit code is 141 (128 + SIGPIPE) and stderr is empty.
        path, out = tmp_path / "p.csv", tmp_path / "e.csv"
        run(capsys, "simulate", "--hurst", "0.5", "--length", "1025", "--out", str(path))
        argv = {
            "estimate": ["estimate", "--input", str(path), "--subseq", "500"],
            "bench": ["bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
                      "--length", "1025", "--subseq", "500", "--out", str(out)],
        }[command]
        src = str(Path(cli.__file__).resolve().parents[1])
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "hurstks.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        try:
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (code, err) == (141, "")
        if command == "bench":
            with open(out, newline="") as fh:
                got = list(csv.DictReader(fh))
            assert run(capsys, *argv[:-1], str(tmp_path / "ref.csv"))[0] == 0
            with open(tmp_path / "ref.csv", newline="") as fh:
                want = list(csv.DictReader(fh))
            for row in got + want:
                del row["wall_time_s"]
            assert got == want and len(got) == 1


# Run in a fresh interpreter: which modules a front end loads is a
# property of the process, and this test process has SciPy loaded.
_SCIPY_PROBE = """
import json, sys
loaded = {}
import hurstks
loaded["import hurstks"] = "scipy" in sys.modules
import hurstks.cli
from hurstks.cli import main
loaded["import hurstks.cli"] = "scipy" in sys.modules
tmp, level = sys.argv[1], sys.argv[2]
runs = {
    "simulate": ["simulate", "--hurst", "0.5", "--length", "1025", "--seed", "3",
                 "--out", tmp + "/p.csv"],
    "estimate": ["estimate", "--input", tmp + "/p.csv", "--subseq", "500"],
    "bench": ["bench", "--h-list", "0.5", "--reps", "1", "--methods", "brent",
              "--length", "1025", "--subseq", "500", "--out", tmp + "/b.csv"],
    "analyze": ["analyze", "--input", level, "--out-dir", tmp + "/o"],
}
for name, argv in runs.items():
    assert main(argv) == 0, name
    loaded[name] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    level = _level_csv(tmp_path, "v.csv", 3024)
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(tmp_path), level],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import hurstks": False,
        "import hurstks.cli": False,
        "simulate": False,
        "estimate": False,
        "bench": False,
        "analyze": False,
    }
