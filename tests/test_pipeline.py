"""Tests for CSV ingestion, windowing, manifests, and the full
windowed analysis run."""

import csv
import datetime as dt
import json
import logging
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurstks import pipeline
from hurstks.fgn import FgnSpec, Path, simulate_fbm
from hurstks.pipeline import (
    VALUE_SCALES,
    CsvFormatError,
    RunManifest,
    WindowConfig,
    _parse_series,
    load_series,
    log_transform,
    parse_manifest,
    run_static_analysis,
    window_partition,
)


def _write(path, text):
    path.write_text(text)
    return str(path)


def _write_level_csv(path, values, start=dt.date(2000, 1, 3)):
    day = start
    one = dt.timedelta(days=1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for v in values:
            writer.writerow([day.isoformat(), repr(float(v))])
            day += one
    return str(path)


def _level_series(tmp_path, n, hurst=0.5, seed=0, name="series.csv"):
    path = simulate_fbm(FgnSpec(hurst=hurst, length=n, seed=seed))
    return _write_level_csv(tmp_path / name, np.exp(path.values))


class TestLoadSeries:
    def test_parses_and_sorts_by_date(self, tmp_path):
        file = _write(
            tmp_path / "s.csv",
            "date,value\n2001-01-03,1.5\n2001-01-01,1.0\n2001-01-02,1.2\n",
        )
        series = load_series(file)
        assert [d.day for d in series.dates.tolist()] == [1, 2, 3]
        assert series.path.values.tolist() == np.log([1.0, 1.2, 1.5]).tolist()

    def test_reads_every_date_form_of_fromisoformat(self, tmp_path):
        # date.fromisoformat reads basic and week dates from Python 3.11
        # on, the oldest version the package supports; ordinal dates not.
        file = _write(
            tmp_path / "s.csv",
            "date,value\n20010103,1.5\n2001-W01-2,1.2\n2001-01-01,1.0\n2001W014,1.8\n",
        )
        series = load_series(file)
        assert series.dates.tolist() == [dt.date(2001, 1, d) for d in (1, 2, 3, 4)]
        assert series.path.values.tolist() == np.log([1.0, 1.2, 1.5, 1.8]).tolist()
        for ordinal in ("2001-001", "2001001"):
            _write(tmp_path / "o.csv", f"date,value\n{ordinal},1.0\n")
            with pytest.raises(CsvFormatError, match="line 2.*bad date"):
                load_series(tmp_path / "o.csv")

    def test_rejects_wrong_header(self, tmp_path):
        file = _write(tmp_path / "s.csv", "time,value\n2001-01-01,1.0\n")
        with pytest.raises(CsvFormatError, match="header"):
            load_series(file)

    def test_rejects_empty_file(self, tmp_path):
        file = _write(tmp_path / "s.csv", "")
        with pytest.raises(CsvFormatError, match="empty"):
            load_series(file)

    def test_field_count_error_carries_line_number(self, tmp_path):
        file = _write(tmp_path / "s.csv", "date,value\n2001-01-01,1.0\n2001-01-02,1.0,9\n")
        with pytest.raises(CsvFormatError, match="line 3"):
            load_series(file)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_misaligned_rows_are_field_count_errors(self, tmp_path, newline):
        # Two commas on one line and none on the next: one per line on
        # average, still a 3-field row.  A row follows, so that the pair
        # is not cut apart at the last line break.
        rows = ["date,value", "2001-01-03,1.0", "2001-01-01,1.0,2001-01-02", "2.0",
                "2001-01-04,1.0"]
        file = tmp_path / "s.csv"
        file.write_bytes(newline.join(rows).encode())
        with pytest.raises(CsvFormatError) as got:
            load_series(file)
        assert str(got.value) == f"{file}: line 3: expected 2 fields"

    def test_bad_date_error_carries_line_number(self, tmp_path):
        file = _write(tmp_path / "s.csv", "date,value\n01/02/2001,1.0\n")
        with pytest.raises(CsvFormatError, match="line 2.*bad date"):
            load_series(file)

    def test_bad_value_error_carries_line_number(self, tmp_path):
        file = _write(tmp_path / "s.csv", "date,value\n2001-01-01,1.0\n2001-01-02,x\n")
        with pytest.raises(CsvFormatError, match="line 3.*bad value"):
            load_series(file)

    def test_duplicate_dates_rejected(self, tmp_path):
        file = _write(
            tmp_path / "s.csv", "date,value\n2001-01-01,1.0\n2001-01-01,2.0\n"
        )
        with pytest.raises(CsvFormatError, match="duplicate date 2001-01-01"):
            load_series(file)

    def test_blank_lines_skipped(self, tmp_path):
        file = _write(tmp_path / "s.csv", "date,value\n\n2001-01-01,1.0\n\n2001-01-02,2.0\n")
        assert len(load_series(file)) == 2

    def test_level_scale_drops_nonpositive_and_missing(self, tmp_path):
        file = _write(
            tmp_path / "s.csv",
            "date,value\n2001-01-01,1.0\n2001-01-02,-3.0\n2001-01-03,0.0\n"
            "2001-01-04,\n2001-01-05,nan\n2001-01-06,2.0\n",
        )
        series = load_series(file, value_scale="level")
        assert series.path.values.tolist() == np.log([1.0, 2.0]).tolist()
        assert (series.rows_parsed, series.rows_dropped) == (6, 4)

    def test_log_scale_keeps_negative_values(self, tmp_path):
        file = _write(
            tmp_path / "s.csv", "date,value\n2001-01-01,-1.5\n2001-01-02,0.0\n"
        )
        series = load_series(file, value_scale="log")
        assert series.path.values.tolist() == [-1.5, 0.0]

    def test_unknown_scale_rejected(self, tmp_path):
        file = _write(tmp_path / "s.csv", "date,value\n2001-01-01,1.0\n")
        with pytest.raises(ValueError):
            load_series(file, value_scale="sqrt")


def _row_by_row_parse(file, value_scale):
    # Reference for the columnar parser: one record per row, sorted and
    # filtered as records.  Returns ([(date, value)], parsed, dropped).
    records = []
    dropped = 0
    parsed = 0
    with open(file, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{file}: empty file") from None
        if [h.strip().lower() for h in header] != ["date", "value"]:
            raise CsvFormatError(f"{file}: header must be 'date,value'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not f.strip() for f in row):
                continue
            if len(row) != 2:
                raise CsvFormatError(f"{file}: line {lineno}: expected 2 fields")
            parsed += 1
            raw_date, raw_value = row[0].strip(), row[1].strip()
            try:
                date = dt.date.fromisoformat(raw_date)
            except ValueError:
                raise CsvFormatError(
                    f"{file}: line {lineno}: bad date {raw_date!r}"
                ) from None
            if raw_value == "":
                dropped += 1
                continue
            try:
                value = float(raw_value)
            except ValueError:
                raise CsvFormatError(
                    f"{file}: line {lineno}: bad value {raw_value!r}"
                ) from None
            if not math.isfinite(value):
                if math.isnan(value):
                    dropped += 1
                    continue
                raise CsvFormatError(
                    f"{file}: line {lineno}: non-finite value {raw_value!r}"
                )
            records.append((date, value))
    records.sort(key=lambda r: r[0])
    for prev, cur in zip(records, records[1:]):
        if prev[0] == cur[0]:
            raise CsvFormatError(f"{file}: duplicate date {cur[0].isoformat()}")
    if value_scale == "level":
        kept = [r for r in records if r[1] > 0.0]
        dropped += len(records) - len(kept)
        records = kept
    return records, parsed, dropped


_VALUE_TEXT = st.one_of(
    st.floats(1e-3, 1e3).map(repr),  # volatility levels
    st.floats(-8.0, 8.0).map(repr),  # log levels
    st.sampled_from(["", "nan", "NaN", "-0.0", "0.0", "0", "1e-320", "+2.5", "1_000"]),
)
_JUNK_ROWS = st.sampled_from(["", "   ", ",", " , ", ",,", '""', '"",""', '" ",'])
# One file in three gets one bad row.  "{nl}" is the file's newline:
# a 3-field row then a 1-field row have one comma per line between them.
_BAD_ROWS = st.sampled_from(
    [None] * 24
    + ["2001-01-01", "2001-01-01,1.0,2", "2001-02-30,1.0", "01/02/2001,1.0", ",1.0",
       "2001-01-01,x", "2001-01-01,1.0.0", "2001-01-01,inf", "2001-01-01, -Infinity",
       '"2001-01-01","1,5"', '"2001-01-01","1\n5"', '"2001-01-01","1{nl}5"',
       "2001-01-01,1.0,2001-01-02{nl}2.0"]
)
_HEADERS = st.sampled_from(
    ["date,value"] * 6 + [" Date , VALUE ", '"date","value"', "date,value,", "time,value"]
)


@st.composite
def _csv_text(draw):
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    offsets = draw(st.lists(st.integers(-400, 400), max_size=25, unique=True))
    for _ in range(draw(st.sampled_from([0] * 8 + [1, 2])) if offsets else 0):
        offsets.append(draw(st.sampled_from(offsets)))
    # Half the files hold no quote, apart from a bad row, so that they
    # take the plain tokenizer.  The last two quoted forms hold a line
    # break, so that later records are numbered apart from the lines.
    quoted = draw(st.booleans())
    forms = ["{},{}", "{},{}", " {} ,\t{} "]
    if quoted:
        forms += ['"{}","{}"', '" {}",{} ', '"{}\n",{}', '"{}","{}\r\n"']
    rows = []
    for off in draw(st.permutations(offsets)):
        date = (dt.date(2001, 1, 1) + dt.timedelta(days=off)).isoformat()
        value = draw(_VALUE_TEXT)
        rows.append(draw(st.sampled_from(forms)).format(date, value))
    junk = _JUNK_ROWS if quoted else _JUNK_ROWS.filter(lambda row: '"' not in row)
    for _ in range(draw(st.integers(0, 4))):
        rows.insert(draw(st.integers(0, len(rows))), draw(junk))
    bad = draw(_BAD_ROWS)
    if bad is not None:
        rows.insert(draw(st.integers(0, len(rows))), bad.replace("{nl}", newline))
    header = draw(_HEADERS)
    return newline.join([header, *rows]) + draw(st.sampled_from(["", newline]))


def _check_against_reference(tmp_path_factory, text, value_scale):
    file = tmp_path_factory.mktemp("parse") / "s.csv"
    file.write_bytes(text.encode())
    try:
        want = _row_by_row_parse(file, value_scale)
    except CsvFormatError as exc:
        with pytest.raises(CsvFormatError) as got:
            _parse_series(file, value_scale)
        assert str(got.value) == str(exc)
        return
    records, parsed, dropped = want
    dates, values, got_parsed, got_dropped = _parse_series(file, value_scale)
    assert dates.dtype == np.dtype("datetime64[D]")
    assert dates.tolist() == [r[0] for r in records]
    assert values.tobytes() == np.array([r[1] for r in records], dtype=float).tobytes()
    assert (got_parsed, got_dropped) == (parsed, dropped)
    # load_series takes the same columns on to a path, from two rows on.
    if len(records) < 2:
        with pytest.raises(CsvFormatError) as got:
            load_series(file, value_scale)
        assert str(got.value) == f"{file}: fewer than two usable rows"
        return
    series = load_series(file, value_scale)
    want = np.log(values) if value_scale == "level" else values
    assert series.path.values.tobytes() == want.tobytes()
    assert series.dates.tobytes() == dates.tobytes()
    assert (series.rows_parsed, series.rows_dropped) == (parsed, dropped)


def _fail(*args):
    raise AssertionError("chunk left the fast path")


def _forbid_row_split(monkeypatch):
    monkeypatch.setattr(pipeline, "_rows", _fail)
    monkeypatch.setattr(pipeline, "_locate_error", _fail)


class TestColumnarParse:
    @settings(max_examples=400, deadline=None)
    @given(text=_csv_text(), value_scale=st.sampled_from(VALUE_SCALES))
    def test_matches_row_by_row_reference(self, tmp_path_factory, text, value_scale):
        _check_against_reference(tmp_path_factory, text, value_scale)

    # Tiny pieces and chunks put their boundaries inside the examples.
    @pytest.mark.parametrize("size", [1, 2, 7])
    @settings(max_examples=400, deadline=None)
    @given(text=_csv_text(), value_scale=st.sampled_from(VALUE_SCALES))
    def test_matches_reference_across_tiny_chunks(
        self, tmp_path_factory, size, text, value_scale
    ):
        with mock.patch.multiple(pipeline, _PIECE_BYTES=size, _CHUNK_ROWS=size):
            _check_against_reference(tmp_path_factory, text, value_scale)

    # Valid rows of one comma each, quote-free, are converted by column
    # alone and at once: the per-row split, the error locator and the
    # cleanup route fail here.
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("size", [1 << 16, 7])
    def test_valid_rows_take_the_fast_path(self, tmp_path, monkeypatch, newline, size):
        _forbid_row_split(monkeypatch)
        monkeypatch.setattr(pipeline, "_cleaned", _fail)
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        n = 4000
        days = np.datetime_as_string(np.datetime64("2001-01-01") + np.arange(n)).tolist()
        values = np.random.default_rng(5).standard_normal(n).tolist()
        lines = ["date,value", *map(",".join, zip(days, map(repr, values))), ""]
        file = tmp_path / "s.csv"
        file.write_bytes(newline.join(lines).encode())
        _, got, parsed, dropped = _parse_series(file, "log")
        assert got.tolist() == values
        assert (parsed, dropped) == (n, 0)

    # Rows of one width and pieces of five rows: the third piece alone
    # holds a padded date, a blank row, a missing value and a value
    # padded with a separator that str.strip drops and float does not.
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_only_a_chunk_that_needs_it_is_cleaned(
        self, tmp_path_factory, monkeypatch, newline
    ):
        rows = [f"{dt.date(2001, 1, 1) + dt.timedelta(days=k)},{k:08.3f}" for k in range(20)]
        rows[9:13] = [" 2001-01-10 ,09.000", " " * 19, "2001-01-12,", "2001-01-13,12.0\x1c"]
        rows = [row.ljust(19) for row in rows]
        text = newline.join(["date,value".ljust(19), *rows, ""])
        cleaned = []

        def spy(dates, values):
            cleaned.append(dates)
            return cleaner(dates, values)

        cleaner = pipeline._cleaned
        monkeypatch.setattr(pipeline, "_cleaned", spy)
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", 5 * (19 + len(newline)))
        _check_against_reference(tmp_path_factory, text, "log")
        # Each of the two parses in the check cleans the third piece alone.
        piece = [row.split(",")[0] for row in rows[9:14] if "," in row]
        assert cleaned == [piece, piece]

    def test_missing_and_nan_values_take_the_fast_path(self, tmp_path, monkeypatch):
        _forbid_row_split(monkeypatch)
        file = _write(
            tmp_path / "s.csv",
            "date,value\n2001-01-01,1.0\n2001-01-02,\n2001-01-03,nan\n"
            "2001-01-04, NaN \n 2001-01-05 , -2.0\n2001-01-06,3.0\n",
        )
        _, values, parsed, dropped = _parse_series(file, "level")
        assert values.tolist() == [1.0, 3.0]
        assert (parsed, dropped) == (6, 4)

    # A last line without a line break stays in the piece before it.
    @pytest.mark.parametrize(
        "size, chunks",
        [
            (1 << 16, [(2, "2001-01-03,1.0\n2001-01-01,1.0\n2001-01-02,2.0")]),
            (32, [(2, "2001-01-03,1.0"), (3, "2001-01-01,1.0\n2001-01-02,2.0")]),
        ],
        ids=["one-block", "two-blocks"],
    )
    def test_unterminated_last_line_joins_the_piece_before(
        self, tmp_path, monkeypatch, size, chunks
    ):
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        file = tmp_path / "s.csv"
        file.write_bytes(b"date,value\n2001-01-03,1.0\n2001-01-01,1.0\n2001-01-02,2.0")
        with open(file, "rb") as fh:
            assert list(pipeline._records(file, fh)) == chunks

    def test_memory_stays_near_the_file_size(self, tmp_path):
        # Whole-file lists of fields or date objects would take several
        # times the file; the columnar parse holds one piece at a time.
        n = 200_000
        days = np.datetime_as_string(np.datetime64("1700-01-01") + np.arange(n)).tolist()
        values = map(repr, np.random.default_rng(4).standard_normal(n).tolist())
        file = tmp_path / "s.csv"
        file.write_text("date,value\r\n" + "\r\n".join(map(",".join, zip(days, values))))
        tracemalloc.start()
        try:
            _, values, parsed, _ = _parse_series(file, "log")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed == values.size == n
        assert peak < 2 * file.stat().st_size


class TestUtf8:
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("size", [1 << 16, 1, 7])
    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "quoted"])
    def test_series_error_names_file_and_line(self, tmp_path, monkeypatch, newline, size, quoted):
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        rows = ["date,value", '"2001-01-01",1.0' if quoted else "2001-01-01,1.0", "2001-01-02,"]
        file = tmp_path / "s.csv"
        file.write_bytes(newline.join(rows).encode() + b"\xff" + newline.encode())
        with pytest.raises(CsvFormatError) as got:
            _parse_series(file, "level")
        assert str(got.value) == f"{file}: line 3: not UTF-8 text"

    def test_series_is_read_as_utf8(self, tmp_path):
        file = tmp_path / "s.csv"
        file.write_bytes("date,value\n2001-01-01,1.0\n2001-01-02,\u00e9\n".encode())
        with pytest.raises(CsvFormatError) as got:
            load_series(file)
        assert str(got.value) == f"{file}: line 3: bad value '\u00e9'"

    def test_manifest_error_names_file_and_line(self, tmp_path):
        file = tmp_path / "m.manifest"
        file.write_bytes(b"input = a.csv\r\n# caf\xe9\r\nseed = 3\r\n")
        with pytest.raises(CsvFormatError) as got:
            parse_manifest(file)
        assert str(got.value) == f"{file}: line 2: not UTF-8 text"

    # An Excel "CSV UTF-8" export opens with a byte-order mark; one-byte
    # pieces cut the mark apart.
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("size", [1 << 16, 1])
    def test_series_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, newline, size):
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        text = newline.join(["date,value", "2001-01-02,2.0", "2001-01-01,1.0", ""])
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        want = load_series(plain, "log")
        got = load_series(marked, "log")
        assert got.dates.tolist() == want.dates.tolist()
        assert got.path.values.tolist() == want.path.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("size", [1 << 16, 1])
    def test_manifest_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, newline, size):
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        file = tmp_path / "m.manifest"
        file.write_bytes(b"\xef\xbb\xbf" + newline.join(["input = a.csv", "seed = 3", ""]).encode())
        manifest = parse_manifest(file)
        assert manifest.inputs == ("a.csv",)
        assert manifest.master_seed == 3

    # Only the mark that opens the file is skipped.
    @pytest.mark.parametrize("size", [1 << 16, 1])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"date,value\n\xef\xbb\xbf2001-01-01,1.0\n", "line 2: bad date '\\ufeff2001-01-01'"),
            (b"\xef\xbb\xbf\xef\xbb\xbfdate,value\n", "header must be 'date,value'"),
            (b"\xef\xbbdate,value\n", "line 1: not UTF-8 text"),
        ],
        ids=["second-line", "twice", "cut-short"],
    )
    def test_other_byte_order_marks_are_errors(self, tmp_path, monkeypatch, size, data, message):
        monkeypatch.setattr(pipeline, "_PIECE_BYTES", size)
        file = tmp_path / "s.csv"
        file.write_bytes(data)
        with pytest.raises(CsvFormatError) as got:
            load_series(file)
        assert str(got.value) == f"{file}: {message}"

    def test_manifest_is_read_as_utf8(self, tmp_path):
        file = tmp_path / "m.manifest"
        file.write_bytes("input = caf\u00e9.csv\rseed = 3\r".encode())
        manifest = parse_manifest(file)
        assert manifest.inputs == ("caf\u00e9.csv",)
        assert manifest.master_seed == 3


class TestLogTransform:
    def test_takes_natural_logs(self):
        path = log_transform(np.array([1.0, math.e, math.e**2]))
        assert np.allclose(path.values, [0.0, 1.0, 2.0], atol=1e-15)

    def test_needs_two_records(self):
        with pytest.raises(ValueError):
            log_transform(np.array([1.0]))

    def test_needs_positive_values(self):
        with pytest.raises(ValueError):
            log_transform(np.array([1.0, -1.0]))


class TestWindowConfig:
    def test_default_subseq_balances_sample_sizes(self):
        wc = WindowConfig()
        assert wc.window_length == 1512
        assert wc.a_max == 21
        assert wc.resolved_subseq() == 1491

    @pytest.mark.parametrize("kwargs", [
        {"a_max": 1},
        {"window_length": 21, "a_max": 21},
        {"alpha": 0.0},
        {"alpha": 1.0},
        {"subseq": 0},
        {"subseq": 1492},
        # A one-value sample is constant.
        {"subseq": 1},
        {"window_length": 22, "a_max": 21},
        # 1 - alpha/2 rounds to 1: the interval has no quantile.
        {"alpha": 1e-17},
        {"alpha": 2.0**-53},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            WindowConfig(**kwargs)


class TestWindowPartition:
    def test_five_windows_from_9018_points(self):
        path = Path(values=np.arange(9018, dtype=float))
        windows = window_partition(path, WindowConfig())
        assert len(windows) == 5
        assert all(len(w) == 1512 for w in windows)
        assert windows[0].values[0] == 0.0
        assert windows[4].values[-1] == 5 * 1512 - 1
        assert 9018 - 5 * 1512 == 1458  # discarded tail

    def test_three_windows_from_4713_points(self):
        path = Path(values=np.arange(4713, dtype=float))
        windows = window_partition(path, WindowConfig())
        assert len(windows) == 3
        assert 4713 - 3 * 1512 == 177

    def test_anchored_at_series_start(self):
        path = Path(values=np.arange(10.0))
        windows = window_partition(path, WindowConfig(window_length=4, a_max=2))
        assert np.array_equal(windows[0].values, [0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(windows[1].values, [4.0, 5.0, 6.0, 7.0])

    def test_short_series_is_an_error(self):
        path = Path(values=np.arange(100.0))
        with pytest.raises(ValueError, match="shorter than one window"):
            window_partition(path, WindowConfig())


class TestManifest:
    GOOD = (
        "# analysis manifest\n"
        "input = vol.csv\n"
        "window_length = 756\n"
        "a_max = 21\n"
        "alpha = 0.05\n"
        "optimizer = grid\n"
        "seed = 11\n"
        "out_dir = out\n"
    )

    def test_parses_flat_key_values(self, tmp_path):
        (tmp_path / "vol.csv").write_text("date,value\n")
        file = _write(tmp_path / "run.manifest", self.GOOD)
        m = parse_manifest(file)
        assert m.inputs == ("vol.csv",)
        assert m.window.window_length == 756
        assert m.optimizer.method == "grid"
        assert m.master_seed == 11
        assert m.out_dir == "out"

    def test_hash_inside_a_value_is_kept(self, tmp_path):
        file = _write(
            tmp_path / "m",
            "# full-line comment\n"
            "   # indented comment\n"
            "input = runs/a#1.csv\n"
            "input2 = runs/b.csv # inline comment\n"
            "seed = 4\t# tab before the comment\n",
        )
        m = parse_manifest(file)
        assert m.inputs == ("runs/a#1.csv", "runs/b.csv")
        assert m.master_seed == 4

    def test_second_input_is_optional(self, tmp_path):
        file = _write(tmp_path / "m", "input = a.csv\ninput2 = b.csv\n")
        assert parse_manifest(file).inputs == ("a.csv", "b.csv")

    def test_unknown_key_carries_line_number(self, tmp_path):
        file = _write(tmp_path / "m", "input = a.csv\nwibble = 3\n")
        with pytest.raises(CsvFormatError, match="line 2.*wibble"):
            parse_manifest(file)

    def test_duplicate_key_rejected(self, tmp_path):
        file = _write(tmp_path / "m", "input = a.csv\ninput = b.csv\n")
        with pytest.raises(CsvFormatError, match="duplicate key"):
            parse_manifest(file)

    def test_missing_input_rejected(self, tmp_path):
        file = _write(tmp_path / "m", "seed = 4\n")
        with pytest.raises(CsvFormatError, match="missing required key"):
            parse_manifest(file)

    def test_line_without_equals_rejected(self, tmp_path):
        file = _write(tmp_path / "m", "input a.csv\n")
        with pytest.raises(CsvFormatError, match="line 1"):
            parse_manifest(file)

    def test_bad_number_rejected(self, tmp_path):
        file = _write(tmp_path / "m", "input = a.csv\nseed = many\n")
        with pytest.raises(CsvFormatError):
            parse_manifest(file)

    def test_manifest_validation_propagates(self):
        with pytest.raises(ValueError):
            RunManifest(inputs=())
        with pytest.raises(ValueError):
            RunManifest(inputs=("a", "b", "c"))
        with pytest.raises(ValueError):
            RunManifest(inputs=("a",), input_scale="sqrt")
        with pytest.raises(ValueError, match="master_seed must be non-negative"):
            RunManifest(inputs=("a",), master_seed=-1)


class TestRunStaticAnalysis:
    def _manifest(self, tmp_path, n=3024, seeds=(0,), **kwargs):
        inputs = tuple(
            _level_series(tmp_path, n, seed=s, name=f"in{s}.csv") for s in seeds
        )
        defaults = dict(
            inputs=inputs,
            window=WindowConfig(window_length=1512),
            master_seed=5,
            out_dir=str(tmp_path / "out"),
        )
        defaults.update(kwargs)
        return RunManifest(**defaults)

    def test_single_series_report_shape(self, tmp_path):
        manifest = self._manifest(tmp_path)
        report = run_static_analysis(manifest)
        assert len(report.series) == 1
        rep = report.series[0]
        assert rep.n_windows == 2
        assert rep.remainder == 0
        assert rep.rows_parsed == 3024
        assert rep.aggregate is not None
        assert rep.aggregate.chi2_df == 1
        assert report.z_stat is None and report.z_p is None
        for row in rep.windows:
            assert 0.0 < row.result.h_hat <= 1.0
            assert row.ci_lo <= row.result.h_hat <= row.ci_hi
            assert row.result.n == row.result.m == 1491

    @pytest.mark.parametrize("dropped,over", [(30, False), (31, True)])
    def test_one_rule_for_dropped_rows(self, tmp_path, caplog, dropped, over):
        # More than 1% of the 3024 data rows dropped is a warning, logged
        # the same way by load_series and the analysis, which also puts
        # it in the report.
        values = np.exp(simulate_fbm(FgnSpec(hurst=0.5, length=3024, seed=0)).values)
        values[1 : dropped + 1] = -1.0
        file = _write_level_csv(tmp_path / "v.csv", values)
        message = f"{file}: dropped {dropped} of 3024 rows" + (" (>1%)" if over else "")
        manifest = RunManifest(
            inputs=(file,), window=WindowConfig(window_length=1512), out_dir=str(tmp_path / "o")
        )
        with caplog.at_level(logging.INFO, logger="hurstks.pipeline"):
            load_series(file)
            report = run_static_analysis(manifest)
        # The test's own directory name holds "dropped", and the log of
        # the discarded window tail names the file too.
        logged = [
            (r.levelno, r.getMessage()) for r in caplog.records
            if r.getMessage().startswith(f"{file}: dropped")
        ]
        assert logged == [(logging.WARNING if over else logging.INFO, message)] * 2
        assert list(report.warnings) == ([message] if over else [])

    def test_warnings_keep_input_order(self, tmp_path):
        files = []
        for seed in (1, 0):
            values = np.exp(simulate_fbm(FgnSpec(hurst=0.5, length=3024, seed=seed)).values)
            values[1:41] = -1.0
            files.append(_write_level_csv(tmp_path / f"v{seed}.csv", values))
        manifest = RunManifest(
            inputs=tuple(files), window=WindowConfig(window_length=1512),
            out_dir=str(tmp_path / "o"),
        )
        report = run_static_analysis(manifest)
        assert list(report.warnings) == [f"{f}: dropped 40 of 3024 rows (>1%)" for f in files]

    def test_window_dates_cover_each_window(self, tmp_path):
        manifest = self._manifest(tmp_path)
        report = run_static_analysis(manifest)
        rows = report.series[0].windows
        assert rows[0].start_date == dt.date(2000, 1, 3)
        assert (rows[0].end_date - rows[0].start_date).days == 1511
        assert (rows[1].start_date - rows[0].end_date).days == 1

    def test_two_series_adds_z_comparison(self, tmp_path):
        manifest = self._manifest(tmp_path, seeds=(0, 1))
        report = run_static_analysis(manifest)
        assert len(report.series) == 2
        assert report.z_stat is not None
        assert 0.0 < report.z_p < 1.0

    def test_report_files_written_and_byte_stable(self, tmp_path):
        m1 = self._manifest(tmp_path, out_dir=str(tmp_path / "out1"))
        m2 = self._manifest(tmp_path, out_dir=str(tmp_path / "out2"))
        run_static_analysis(m1)
        run_static_analysis(m2)
        j1 = (tmp_path / "out1" / "report.json").read_bytes()
        j2 = (tmp_path / "out2" / "report.json").read_bytes()
        assert j1 == j2
        c1 = (tmp_path / "out1" / "windows.csv").read_bytes()
        c2 = (tmp_path / "out2" / "windows.csv").read_bytes()
        assert c1 == c2

    def test_windows_csv_columns(self, tmp_path):
        manifest = self._manifest(tmp_path)
        run_static_analysis(manifest)
        with open(tmp_path / "out" / "windows.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "window_index", "start_date", "end_date", "h_hat", "delta_min",
            "critical", "significant", "ci_lo", "ci_hi",
        ]
        assert len(rows) == 3
        assert rows[1][0] == "0" and rows[2][0] == "1"
        assert rows[1][6] in ("true", "false")
        float(rows[1][3])  # h_hat round-trips

    def test_report_json_structure(self, tmp_path):
        manifest = self._manifest(tmp_path)
        report = run_static_analysis(manifest)
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["settings"]["window_length"] == 1512
        assert doc["settings"]["subseq"] == 1491
        assert doc["settings"]["master_seed"] == 5
        assert len(doc["series"]) == 1
        entry = doc["series"][0]
        assert entry["n_windows"] == 2
        assert len(entry["windows"]) == 2
        assert entry["windows"][0]["h_hat"] == report.series[0].windows[0].result.h_hat
        assert "aggregate" in entry

    def test_numbers_do_not_depend_on_out_dir(self, tmp_path):
        m1 = self._manifest(tmp_path, out_dir=str(tmp_path / "a"))
        m2 = self._manifest(tmp_path, out_dir=str(tmp_path / "b"))
        r1 = run_static_analysis(m1)
        r2 = run_static_analysis(m2)
        assert [w.result for w in r1.series[0].windows] == [
            w.result for w in r2.series[0].windows
        ]

    def test_master_seed_changes_window_streams(self, tmp_path):
        m1 = self._manifest(tmp_path, master_seed=1)
        m2 = self._manifest(tmp_path, master_seed=2)
        r1 = run_static_analysis(m1)
        r2 = run_static_analysis(m2)
        a = [w.result.h_hat for w in r1.series[0].windows]
        b = [w.result.h_hat for w in r2.series[0].windows]
        assert a != b

    def test_windows_use_distinct_streams(self, tmp_path):
        manifest = self._manifest(tmp_path)
        report = run_static_analysis(manifest)
        rows = report.series[0].windows
        assert rows[0].result.seed != rows[1].result.seed

    def test_remainder_is_reported(self, tmp_path):
        manifest = self._manifest(tmp_path, n=4713)
        report = run_static_analysis(manifest)
        assert report.series[0].n_windows == 3
        assert report.series[0].remainder == 177

    def test_too_short_series_is_an_error(self, tmp_path):
        manifest = self._manifest(tmp_path, n=1000)
        with pytest.raises(ValueError, match="shorter than one window"):
            run_static_analysis(manifest)

    def test_size_control_between_identical_exponents(self, tmp_path):
        # Two independent series with the same H0: the two-sided mean
        # comparison at 5% should reject rarely (the dispersion model
        # is conservative, so near-zero rejections over 100 master
        # seeds; the band just guards against systematic inflation).
        rej = 0
        for i in range(100):
            fa = _write_level_csv(
                tmp_path / f"a{i}.csv",
                np.exp(simulate_fbm(FgnSpec(hurst=0.4, length=3024, seed=100000 + 2 * i)).values),
            )
            fb = _write_level_csv(
                tmp_path / f"b{i}.csv",
                np.exp(simulate_fbm(FgnSpec(hurst=0.4, length=3024, seed=100001 + 2 * i)).values),
            )
            manifest = RunManifest(
                inputs=(fa, fb),
                window=WindowConfig(window_length=1512),
                master_seed=i,
                out_dir=str(tmp_path / "out_sc"),
            )
            report = run_static_analysis(manifest)
            p_two = 2.0 * min(report.z_p, 1.0 - report.z_p)
            rej += int(p_two < 0.05)
        assert rej <= 10
