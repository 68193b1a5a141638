"""Windowed analysis of volatility series from CSV to report.

A series of positive levels (implied or realized volatility) is
log-transformed, cut into fixed-length non-overlapping windows, and
each window's scaling exponent is estimated independently; the window
estimates are then tested for constancy, and two series can be
compared with a z-test.  Everything downstream of the master seed is
deterministic, and per-window random streams are derived by position
so windows could be processed in any order or in parallel.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import logging
import math
import os
import re
from dataclasses import asdict, dataclass
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping

import numpy as np

from hurstks.fgn import Path, increments
from hurstks.ksdist import RescaledPair
from hurstks.minimize import EstimationResult, OptimizerConfig, estimate_hurst
from hurstks.permute import DegenerateSampleError, PermutationPlan
from hurstks.stats import (
    AggregateReport,
    aggregate_windows,
    confidence_interval,
    estimator_sd,
    z_test_means,
)

__all__ = [
    "Series",
    "WindowConfig",
    "RunManifest",
    "WindowRow",
    "SeriesReport",
    "RunReport",
    "CsvFormatError",
    "NotConvergedError",
    "load_series",
    "log_transform",
    "window_partition",
    "parse_manifest",
    "build_manifest",
    "optimizer_config",
    "run_static_analysis",
]

logger = logging.getLogger(__name__)

VALUE_SCALES = ("level", "log")


class CsvFormatError(ValueError):
    """Input file violates the expected CSV layout."""


class NotConvergedError(RuntimeError):
    """A window's minimizer ran out of its evaluation budget."""


@dataclass(frozen=True)
class Series:
    """An estimation-ready series loaded from a ``date,value`` CSV.

    ``dates`` holds the strictly increasing ``datetime64[D]`` days kept
    and ``path`` the log values on them.  ``rows_parsed`` counts the
    data rows of the file and ``rows_dropped`` those left out;
    ``warning`` is the text of the warning logged when more than 1% of
    the data rows were dropped, or None.
    """

    dates: np.ndarray
    path: Path
    rows_parsed: int
    rows_dropped: int
    warning: str | None

    def __len__(self) -> int:
        return len(self.path)


@dataclass(frozen=True)
class WindowConfig:
    """Windowing and estimation sizes for one analysis run.

    Parameters
    ----------
    window_length : int
        Points per window; the series is cut into consecutive
        non-overlapping windows of this length starting at the first
        observation, and the remainder is discarded.
    a_max : int
        Coarse lag of the increment comparison.
    subseq : int, optional
        Decorrelated subsample size per window; defaults to
        ``window_length - a_max`` so that both increment samples end
        up with the same size.  Both are at least 2: a one-value
        sample is constant.
    alpha : float
        Level for the goodness-of-fit flag and confidence interval, in
        (0, 1) and above about 1.1e-16, as the interval requires.
    """

    window_length: int = 1512
    a_max: int = 21
    subseq: int | None = None
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.a_max <= 1:
            raise ValueError("a_max must exceed 1")
        if self.window_length <= self.a_max + 1:
            raise ValueError("window_length must exceed a_max + 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if 1.0 - self.alpha / 2.0 == 1.0:
            raise ValueError(f"alpha {self.alpha!r} is too small: 1 - alpha/2 rounds to 1")
        if self.subseq is not None and not (
            2 <= self.subseq <= self.window_length - self.a_max
        ):
            raise ValueError("subseq must lie in [2, window_length - a_max]")

    def resolved_subseq(self) -> int:
        return self.subseq if self.subseq is not None else self.window_length - self.a_max


@dataclass(frozen=True)
class RunManifest:
    """Full description of one analysis run.

    Numeric results depend only on the inputs, the window and
    optimizer settings, and ``master_seed``; ``out_dir`` merely says
    where the report files go.  Every window is decorrelated by a
    uniform subsample of ``window.resolved_subseq()`` values, with a
    seed derived from ``master_seed`` and the window's position.
    """

    inputs: tuple[str, ...]
    window: WindowConfig = WindowConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    input_scale: str = "level"
    master_seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not 1 <= len(self.inputs) <= 2:
            raise ValueError("manifest needs one or two input files")
        if self.input_scale not in VALUE_SCALES:
            raise ValueError(f"input_scale must be one of {VALUE_SCALES}")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")


@dataclass(frozen=True)
class WindowRow:
    """Per-window output row."""

    window_index: int
    start_date: dt.date
    end_date: dt.date
    result: EstimationResult
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class SeriesReport:
    """Everything derived from one input series."""

    input: str
    rows_parsed: int
    rows_dropped: int
    n_windows: int
    remainder: int
    windows: tuple[WindowRow, ...]
    aggregate: AggregateReport | None


@dataclass(frozen=True)
class RunReport:
    """Result of a full analysis run (one or two series)."""

    series: tuple[SeriesReport, ...]
    z_stat: float | None
    z_p: float | None
    warnings: tuple[str, ...]


# Bytes read per piece of a series file, and records per chunk of a
# quoted one: the most text that one columnar conversion holds.
_PIECE_BYTES = 1 << 16
_CHUNK_ROWS = 1 << 11


def _pieces(file, fh) -> Iterator[str]:
    # The UTF-8 text of a file opened in binary mode, in pieces of about
    # _PIECE_BYTES that end on a line break (a CR is never parted from
    # the LF after it) or at the end of the file.  Line ends are kept.
    # The next block is read ahead, so the last piece runs to the end of
    # the file even when no line break ends it.  A byte-order mark that
    # opens the file is skipped: no line break is in it, so the first
    # piece holds all of it.
    # Bytes that are not UTF-8 raise CsvFormatError with their line: one
    # past the line breaks (LF, CRLF or a lone CR) before them.
    carry = b""
    start = 0  # file offset of carry
    block = fh.read(_PIECE_BYTES)
    while block:
        ahead = fh.read(_PIECE_BYTES)
        data = carry + block
        cut = len(data)
        if ahead:
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, cut - 1)) + 1
        try:
            text = data[:cut].decode("utf-8")
        except UnicodeDecodeError as exc:
            fh.seek(0)
            head = fh.read(start + exc.start)
            line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
            raise CsvFormatError(f"{file}: line {line}: not UTF-8 text") from None
        if not start:
            text = text.removeprefix("\ufeff")
        carry, start = data[cut:], start + cut
        if text:
            yield text
        block = ahead


def _check_header(file, header: list[str]) -> None:
    if [h.strip().lower() for h in header] != ["date", "value"]:
        raise CsvFormatError(f"{file}: header must be 'date,value'")


# Every byte but the field and record separators of LF text: what
# bytes.translate deletes to leave the separators alone.
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b",\n")


def _records(file, fh):
    # Check the header, then yield (line, records) per chunk of the data
    # records: the number of the chunk's first record, counted as
    # csv.reader counts them, and either the text of a quote-free piece,
    # LF line ends and no final LF, or a list of csv.reader rows.
    pieces = _pieces(file, fh)
    line = 0  # the next record's number, once the header is read
    for piece in pieces:
        if '"' in piece:
            # A quoted field may hold a comma or a line break, so
            # csv.reader tokenizes the rest, from this piece on.  Until
            # then a record was a line: the reader's first is line ``first``.
            reader = csv.reader(
                chain.from_iterable(map(io.StringIO, chain([piece], pieces), repeat("")))
            )
            first = line or 1
            try:
                if not line:
                    _check_header(file, next(reader))
                    line = 2
                while chunk := list(islice(reader, _CHUNK_ROWS)):
                    yield line, chunk
                    line += len(chunk)
            except csv.Error as exc:
                line = first + reader.line_num - 1
                raise CsvFormatError(f"{file}: line {line}: {exc}") from None
            return
        text = piece.replace("\r\n", "\n").replace("\r", "\n")
        if not line:
            header, _, text = text.partition("\n")
            _check_header(file, header.split(","))
            line = 2
        if text:
            # A piece of one blank line is still one record.
            text = text.removesuffix("\n")
            yield line, text
            line += text.count("\n") + 1
    if not line:
        raise CsvFormatError(f"{file}: empty file")


def _rows(records) -> list[list[str]]:
    # The fields of each record of a chunk from _records.
    if isinstance(records, str):
        return [line.split(",") for line in records.split("\n")]
    return records


def _columns(records) -> tuple[list[str], list[str]]:
    # The date and value fields of the two-field rows of a chunk from
    # _records.  Rows whose fields are all blank are skipped; ValueError
    # when another row has another field count.
    if isinstance(records, str):
        # One comma on every line leaves ",\n,\n...,\n,".
        separators = records.encode().translate(None, _NOT_SEPARATORS)
        if separators == b",\n" * (len(separators) // 2) + b",":
            fields = records.replace("\n", ",").split(",")
            return fields[0::2], fields[1::2]
    rows = _rows(records)
    two = np.fromiter(map(len, rows), np.intp, len(rows)) == 2
    if not two.all():
        if any(map(str.strip, map("".join, compress(rows, ~two)))):
            raise ValueError("expected 2 fields")
        rows = list(compress(rows, two))
    return list(map(itemgetter(0), rows)), list(map(itemgetter(1), rows))


def _columnar(dates: list[str], values: list[str]) -> tuple[np.ndarray, np.ndarray, int, int]:
    # (days, values, parsed, dropped) of two-field rows, each column
    # converted by C-level maps: the day ordinals and values kept, the
    # count of data rows and of those dropped for a missing or NaN
    # value.  ValueError for anything _locate_error reports.
    dates = list(map(str.strip, dates))
    values = list(map(str.strip, values))
    has_value = np.fromiter(map(bool, values), bool, len(values))
    data = has_value | np.fromiter(map(bool, dates), bool, len(dates))
    if not data.all():
        dates, values = list(compress(dates, data)), list(compress(values, data))
        has_value = has_value[data]
    days = np.fromiter(
        map(dt.date.toordinal, map(dt.date.fromisoformat, dates)), np.int64, len(dates)
    )
    if not has_value.all():
        days, values = days[has_value], list(compress(values, has_value))
    column = np.fromiter(map(float, values), float, len(values))
    if np.isinf(column).any():
        raise ValueError("non-finite value")
    kept = ~np.isnan(column)
    return days[kept], column[kept], len(dates), len(dates) - int(np.count_nonzero(kept))


def _locate_error(file, line: int, records) -> None:
    # Raise the first error that _columns or _columnar found in a chunk
    # from _records whose first record is number ``line``.
    for lineno, row in enumerate(_rows(records), start=line):
        fields = [field.strip() for field in row]
        if not any(fields):
            continue  # a blank row, of any field count
        where = f"{file}: line {lineno}"
        if len(fields) != 2:
            raise CsvFormatError(f"{where}: expected 2 fields")
        raw_date, raw_value = fields
        try:
            dt.date.fromisoformat(raw_date)
        except ValueError:
            raise CsvFormatError(f"{where}: bad date {raw_date!r}") from None
        if not raw_value:
            continue  # a missing value
        try:
            value = float(raw_value)
        except ValueError:
            raise CsvFormatError(f"{where}: bad value {raw_value!r}") from None
        if math.isinf(value):
            raise CsvFormatError(f"{where}: non-finite value {raw_value!r}")


def _read_columns(file) -> tuple[np.ndarray, np.ndarray, int, int]:
    # (days, values, parsed, dropped) of a date,value CSV in file order:
    # the day ordinals and values kept, the count of data rows and of
    # those dropped for a missing or NaN value.
    chunks = [(np.empty(0, np.int64), np.empty(0), 0, 0)]
    with open(file, "rb") as fh:
        for line, records in _records(file, fh):
            try:
                chunks.append(_columnar(*_columns(records)))
            except ValueError:
                _locate_error(file, line, records)
                raise
    days, values, parsed, dropped = zip(*chunks)
    return np.concatenate(days), np.concatenate(values), sum(parsed), sum(dropped)


def _parse_series(file, value_scale: str) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Parse a date,value CSV; returns (dates, values, rows_parsed, dropped).

    The rows are sorted by date and their dates checked for repeats;
    under ``value_scale="level"`` non-positive values count as dropped.
    The file is read as UTF-8 in pieces; each chunk of records is
    converted column by column, and only a chunk that holds an error is
    walked row by row, to report the first error with its line.
    """
    if value_scale not in VALUE_SCALES:
        raise ValueError(f"value_scale must be one of {VALUE_SCALES}")
    days, column, parsed, dropped = _read_columns(file)
    order = np.argsort(days, kind="stable")
    days = days[order]
    repeated = np.flatnonzero(days[1:] == days[:-1])
    if repeated.size:
        day = dt.date.fromordinal(int(days[repeated[0]]))
        raise CsvFormatError(f"{file}: duplicate date {day.isoformat()}")
    column = column[order]
    if value_scale == "level":
        keep = column > 0.0
        # A plain int: the count goes into report.json.
        dropped += column.size - int(np.count_nonzero(keep))
        days, column = days[keep], column[keep]
    epoch = dt.date(1970, 1, 1).toordinal()
    return (days - epoch).astype("datetime64[D]"), column, parsed, dropped


def load_series(file, value_scale: str = "level") -> Series:
    """Load a ``date,value`` CSV into an estimation-ready series.

    Parameters
    ----------
    file : path-like
        CSV file whose header is exactly ``date,value`` with ISO-8601
        dates.
    value_scale : str, optional
        ``"level"`` (the default) drops rows with missing or
        non-positive values and log-transforms the rest; ``"log"``
        means values are already on log scale and only missing values
        are dropped.

    Returns
    -------
    Series
        Sorted by date.  The count of dropped rows goes to the module
        logger, as a warning when it exceeds 1% of the data rows.

    Raises
    ------
    CsvFormatError
        On malformed headers, unparseable or infinite values (with
        line number), duplicate dates, or fewer than two usable rows.
    """
    dates, values, parsed, dropped = _parse_series(file, value_scale)
    warning = None
    if dropped:
        message = f"{file}: dropped {dropped} of {parsed} rows"
        if dropped <= 0.01 * max(parsed, 1):
            logger.info(message)
        else:
            warning = message + " (>1%)"
            logger.warning(warning)
    if values.size < 2:
        raise CsvFormatError(f"{file}: fewer than two usable rows")
    path = log_transform(values) if value_scale == "level" else Path(values)
    return Series(dates, path, parsed, dropped, warning)


def log_transform(values: np.ndarray) -> Path:
    """Natural log of positive values, as a path."""
    if np.any(values <= 0.0):
        raise ValueError("log transform needs positive values")
    return Path(np.log(values))


def window_partition(path: Path, config: WindowConfig, source="window_partition") -> list[Path]:
    """Cut a path into consecutive full windows, discarding the tail.

    Parameters
    ----------
    path : Path
        Series of at least one full window.
    config : WindowConfig
        Provides the window length.
    source : path-like or str, optional
        Names the series (its file) in the error and the log line.

    Returns
    -------
    list of Path
        ``len(path) // window_length`` windows, each of exactly
        ``window_length`` points, anchored at the start of the
        series; the remainder is logged and dropped.
    """
    n = len(path)
    size = config.window_length
    count = n // size
    if count == 0:
        raise ValueError(f"{source}: series of {n} points is shorter than one window ({size})")
    if n % size:
        logger.info("%s: discarding %d trailing points", source, n % size)
    return [Path(path.values[w * size : (w + 1) * size]) for w in range(count)]


# Manifest key -> (type, settings object, field it sets).  A key not
# given keeps the field's dataclass default.
_MANIFEST_KEYS = {
    "input": (str, "inputs", "input"),
    "input2": (str, "inputs", "input2"),
    "input_scale": (str, "run", "input_scale"),
    "window_length": (int, "window", "window_length"),
    "a_max": (int, "window", "a_max"),
    "subseq": (int, "window", "subseq"),
    "alpha": (float, "window", "alpha"),
    "optimizer": (str, "optimizer", "method"),
    "grid_step": (float, "optimizer", "grid_step"),
    "max_evals": (int, "optimizer", "max_evals"),
    "seed": (int, "run", "master_seed"),
    "out_dir": (str, "run", "out_dir"),
}

# '#' opens a comment at line start or after whitespace, not inside a
# value such as the path runs/a#1.csv.
_COMMENT = re.compile(r"(?:^|\s)#")


def _fields(settings: Mapping[str, object], part: str) -> dict:
    return {
        field: settings[key]
        for key, (_, where, field) in _MANIFEST_KEYS.items()
        if where == part and key in settings
    }


def optimizer_config(settings: Mapping[str, object]) -> OptimizerConfig:
    """OptimizerConfig from the optimizer keys among manifest keys
    (``optimizer``, ``grid_step``, ``max_evals``)."""
    return OptimizerConfig(**_fields(settings, "optimizer"))


def build_manifest(
    settings: Mapping[str, object], lines: Mapping[str, int] | None = None, file=None
) -> RunManifest:
    """RunManifest from manifest keys mapped to typed values.

    ``input`` is required and ``input2`` optional; every other key
    that is absent keeps its dataclass default.  Names that are not
    manifest keys are ignored.  Given ``lines``, the line of each key
    in ``file``, a part of the manifest (window, optimizer or run)
    that rejects its values raises CsvFormatError naming the file and
    each of that part's keys with its line.
    """

    def part(name: str, make: Callable[[], object]):
        try:
            return make()
        except ValueError as exc:
            if lines is None:
                raise
            given = sorted((n, key) for key, n in lines.items() if _MANIFEST_KEYS[key][1] == name)
            keys = ", ".join(f"line {n}: {key}" for n, key in given)
            raise CsvFormatError(f"{file}: {keys}: {exc}") from None

    window = part("window", lambda: WindowConfig(**_fields(settings, "window")))
    optimizer = part("optimizer", lambda: optimizer_config(settings))
    return part(
        "run",
        lambda: RunManifest(
            inputs=tuple(settings[k] for k in ("input", "input2") if k in settings),
            window=window,
            optimizer=optimizer,
            **_fields(settings, "run"),
        ),
    )


def parse_manifest(file) -> RunManifest:
    """Read a flat ``key = value`` manifest file into a RunManifest.

    Blank lines and ``#`` comments (at the start of a line or after
    whitespace) are ignored; unknown keys are an error.  Keys mirror
    the manifest fields (``input`` and optional ``input2`` for the
    series, ``optimizer`` for the method name, ``seed`` for the master
    seed); see :func:`build_manifest`.
    """
    settings: dict[str, object] = {}
    lines: dict[str, int] = {}
    with open(file, "rb") as fh:
        content = "".join(_pieces(file, fh))
    # Lines split as a file opened in text mode splits them.
    for lineno, line in enumerate(io.StringIO(content, newline=None), start=1):
        text = _COMMENT.split(line, 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise CsvFormatError(f"{file}: line {lineno}: expected 'key = value'")
        key, _, value = text.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _MANIFEST_KEYS:
            raise CsvFormatError(f"{file}: line {lineno}: unknown key {key!r}")
        if key in settings:
            raise CsvFormatError(f"{file}: line {lineno}: duplicate key {key!r}")
        kind = _MANIFEST_KEYS[key][0]
        lines[key] = lineno
        try:
            settings[key] = kind(value)
        except ValueError:
            raise CsvFormatError(
                f"{file}: line {lineno}: {key}: expected {kind.__name__}, got {value!r}"
            ) from None
    if "input" not in settings:
        raise CsvFormatError(f"{file}: missing required key 'input'")
    return build_manifest(settings, lines, file)


def _estimate_one_window(
    window: Path, manifest: RunManifest, series_idx: int, window_idx: int
) -> EstimationResult:
    wc = manifest.window
    pair = RescaledPair(
        fine=increments(window, 1),
        coarse=increments(window, wc.a_max),
        a_max=wc.a_max,
    )
    seed = np.random.SeedSequence(
        manifest.master_seed, spawn_key=(series_idx, window_idx)
    ).generate_state(1)[0]
    plan = PermutationPlan(subsample_size=wc.resolved_subseq(), seed=int(seed))
    return estimate_hurst(pair, plan, manifest.optimizer, alpha=wc.alpha)


def _series_report(
    manifest: RunManifest, series_idx: int, file, series: Series, windows: list[Path],
    sigma: float,
) -> SeriesReport:
    # Estimate each window of one input and aggregate them.
    size = manifest.window.window_length
    rows = []
    for w, wpath in enumerate(windows):
        try:
            result = _estimate_one_window(wpath, manifest, series_idx, w)
        except DegenerateSampleError as exc:
            raise DegenerateSampleError(f"{file}: window {w}: {exc}") from exc
        if not result.converged:
            raise NotConvergedError(
                f"{file}: window {w}: minimizer ran out of its budget of "
                f"{manifest.optimizer.max_evals} evaluations"
            )
        ci_lo, ci_hi = confidence_interval(
            result.h_hat, result.a_max, result.n, result.m, manifest.window.alpha
        )
        rows.append(
            WindowRow(
                window_index=w,
                start_date=series.dates[w * size].item(),
                end_date=series.dates[(w + 1) * size - 1].item(),
                result=result,
                ci_lo=ci_lo,
                ci_hi=ci_hi,
            )
        )
    aggregate = None
    if len(rows) >= 2:
        aggregate = aggregate_windows([r.result.h_hat for r in rows], sigma)
    return SeriesReport(
        input=str(file),
        rows_parsed=series.rows_parsed,
        rows_dropped=series.rows_dropped,
        n_windows=len(windows),
        remainder=len(series) % size,
        windows=tuple(rows),
        aggregate=aggregate,
    )


# Per-window output fields: name and value, in windows.csv column order.
_WINDOW_COLUMNS = (
    ("window_index", lambda row: row.window_index),
    ("start_date", lambda row: row.start_date.isoformat()),
    ("end_date", lambda row: row.end_date.isoformat()),
    ("h_hat", lambda row: row.result.h_hat),
    ("delta_min", lambda row: row.result.delta_min),
    ("critical", lambda row: row.result.critical_value),
    ("significant", lambda row: row.result.significant),
    ("ci_lo", lambda row: row.ci_lo),
    ("ci_hi", lambda row: row.ci_hi),
)


def _csv_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def _write_windows_csv(path: str, series: Iterable[SeriesReport]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _ in _WINDOW_COLUMNS])
        for rep in series:
            for row in rep.windows:
                writer.writerow([_csv_cell(get(row)) for _, get in _WINDOW_COLUMNS])


def _report_json(manifest: RunManifest, report: RunReport) -> dict:
    doc = {
        "settings": {
            "window_length": manifest.window.window_length,
            "a_max": manifest.window.a_max,
            "subseq": manifest.window.resolved_subseq(),
            "alpha": manifest.window.alpha,
            "optimizer": manifest.optimizer.method,
            # The one decorrelation _estimate_one_window uses.
            "perm_scheme": "uniform_sample",
            "input_scale": manifest.input_scale,
            "master_seed": manifest.master_seed,
        },
        "series": [],
        "z_stat": report.z_stat,
        "z_p": report.z_p,
        "warnings": list(report.warnings),
    }
    for rep in report.series:
        entry = {
            "input": rep.input,
            "rows_parsed": rep.rows_parsed,
            "rows_dropped": rep.rows_dropped,
            "n_windows": rep.n_windows,
            "remainder": rep.remainder,
            "windows": [
                {name: get(row) for name, get in _WINDOW_COLUMNS} for row in rep.windows
            ],
        }
        if rep.aggregate is not None:
            entry["aggregate"] = asdict(rep.aggregate)
        doc["series"].append(entry)
    return doc


def run_static_analysis(manifest: RunManifest) -> RunReport:
    """Run the full windowed analysis described by a manifest.

    Loads each input series (see :func:`load_series`) and partitions
    it into windows; only when every input has passed these steps does
    it estimate the exponent per window, with seeds derived from the
    master seed and the window position, and aggregate.  With two
    inputs, the mean exponents are compared by a z-test whose scale is
    the per-window standard deviation.

    Side effects: makes the manifest's ``out_dir`` before the first
    window is estimated, then writes ``report.json`` and
    ``windows.csv`` into it.  Two runs from the same manifest produce
    byte-identical files.

    Returns
    -------
    RunReport
    """
    os.makedirs(manifest.out_dir, exist_ok=True)
    loaded = []
    for file in manifest.inputs:
        data = load_series(file, manifest.input_scale)
        loaded.append((file, data, window_partition(data.path, manifest.window, file)))
    warnings = tuple(data.warning for _, data, _ in loaded if data.warning)
    # Every window keeps T values of each sample: one sd serves them all.
    t = manifest.window.resolved_subseq()
    sigma = estimator_sd(manifest.window.a_max, t, t)
    series = [
        _series_report(manifest, idx, file, data, windows, sigma)
        for idx, (file, data, windows) in enumerate(loaded)
    ]
    z_stat = z_p = None
    if len(series) == 2:
        means = []
        for rep in series:
            hs = [row.result.h_hat for row in rep.windows]
            means.append(float(np.mean(hs)))
        z_stat, z_p = z_test_means(means[0], means[1], sigma)
    report = RunReport(series=tuple(series), z_stat=z_stat, z_p=z_p, warnings=warnings)
    with open(os.path.join(manifest.out_dir, "report.json"), "w") as fh:
        json.dump(_report_json(manifest, report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_windows_csv(os.path.join(manifest.out_dir, "windows.csv"), series)
    return report
