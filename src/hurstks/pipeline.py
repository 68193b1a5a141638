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
import json
import logging
import math
import os
import re
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Mapping

import numpy as np

from hurstks.fgn import Path, increments
from hurstks.ksdist import RescaledPair
from hurstks.minimize import EstimationResult, OptimizerConfig, estimate_hurst
from hurstks.permute import SCHEMES, PermutationPlan
from hurstks.stats import (
    AggregateReport,
    VarianceInputs,
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
    "series_path",
    "window_partition",
    "parse_manifest",
    "build_manifest",
    "optimizer_config",
    "permutation_plan",
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
    """A date-ordered series as two columns of equal length.

    ``dates`` holds strictly increasing ``datetime64[D]`` days and
    ``values`` the finite float64 observations on them.
    """

    dates: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return self.values.size


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
        up with the same size.
    alpha : float
        Level for the goodness-of-fit flag and confidence interval.
    """

    window_length: int = 1512
    a_max: int = 21
    subseq: int | None = None
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.a_max <= 1:
            raise ValueError("a_max must exceed 1")
        if self.window_length <= self.a_max:
            raise ValueError("window_length must exceed a_max")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.subseq is not None and not (
            1 <= self.subseq <= self.window_length - self.a_max
        ):
            raise ValueError("subseq must lie in [1, window_length - a_max]")

    def resolved_subseq(self) -> int:
        return self.subseq if self.subseq is not None else self.window_length - self.a_max


@dataclass(frozen=True)
class RunManifest:
    """Full description of one analysis run.

    Numeric results depend only on the inputs, the window and
    optimizer settings, the permutation scheme, and ``master_seed``;
    ``out_dir`` merely says where the report files go.
    """

    inputs: tuple[str, ...]
    window: WindowConfig = WindowConfig()
    optimizer: OptimizerConfig = OptimizerConfig()
    perm_scheme: str = PermutationPlan.scheme
    block_length: int = PermutationPlan.block_length
    input_scale: str = "level"
    master_seed: int = 0
    out_dir: str = "."

    def __post_init__(self) -> None:
        if not 1 <= len(self.inputs) <= 2:
            raise ValueError("manifest needs one or two input files")
        if self.perm_scheme not in SCHEMES:
            raise ValueError(f"perm_scheme must be one of {SCHEMES}")
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


def _parse_series(file, value_scale: str) -> tuple[Series, int, int]:
    """Parse a date,value CSV; returns (series, rows_parsed, dropped).

    Under ``value_scale="level"`` non-positive values count as dropped.
    """
    if value_scale not in VALUE_SCALES:
        raise ValueError(f"value_scale must be one of {VALUE_SCALES}")
    dates: list[dt.date] = []
    values: list[float] = []
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
            if len(row) != 2:
                # Rows whose fields are all blank are skipped.
                if "".join(row).strip():
                    raise CsvFormatError(f"{file}: line {lineno}: expected 2 fields")
                continue
            raw_date, raw_value = row[0].strip(), row[1].strip()
            if not (raw_date or raw_value):
                continue
            parsed += 1
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
            dates.append(date)
            values.append(value)
    # Sort, check and filter the columns; days go through the ordinal,
    # far cheaper than numpy's conversion of date objects.
    days = np.fromiter(map(dt.date.toordinal, dates), np.int64, len(dates))
    order = np.argsort(days, kind="stable")
    days = days[order]
    repeated = np.flatnonzero(days[1:] == days[:-1])
    if repeated.size:
        day = dt.date.fromordinal(int(days[repeated[0]]))
        raise CsvFormatError(f"{file}: duplicate date {day.isoformat()}")
    column = np.array(values, dtype=float)[order]
    if value_scale == "level":
        keep = column > 0.0
        # A plain int: the count goes into report.json.
        dropped += column.size - int(np.count_nonzero(keep))
        days, column = days[keep], column[keep]
    epoch = dt.date(1970, 1, 1).toordinal()
    return Series((days - epoch).astype("datetime64[D]"), column), parsed, dropped


def _log_dropped(file, parsed: int, dropped: int) -> str | None:
    # Log the count of dropped rows; more than 1% of the data rows is
    # a warning, whose text is returned for the run report.
    if not dropped:
        return None
    message = f"{file}: dropped {dropped} of {parsed} rows"
    if dropped <= 0.01 * max(parsed, 1):
        logger.info(message)
        return None
    message += " (>1%)"
    logger.warning(message)
    return message


def load_series(file, value_scale: str = "level") -> Series:
    """Load a ``date,value`` CSV into a date-ordered series.

    Parameters
    ----------
    file : path-like
        CSV file whose header is exactly ``date,value`` with ISO-8601
        dates.
    value_scale : str, optional
        ``"level"`` (the default) drops rows with missing or
        non-positive values, since a log transform follows;
        ``"log"`` means values are already on log scale and only
        missing values are dropped.

    Returns
    -------
    Series
        Sorted by date.  Dropped-row counts go to the module logger,
        with a warning when they exceed 1% of data rows.

    Raises
    ------
    CsvFormatError
        On malformed headers, unparseable or infinite values (with
        line number), or duplicate dates.
    """
    series, parsed, dropped = _parse_series(file, value_scale)
    _log_dropped(file, parsed, dropped)
    return series


def log_transform(series: Series) -> Path:
    """Natural log of the series values, as a path."""
    if len(series) < 2:
        raise ValueError("need at least two observations")
    if np.any(series.values <= 0.0):
        raise ValueError("log transform needs positive values")
    return Path(np.log(series.values))


def series_path(file, series: Series, value_scale: str) -> Path:
    """Path of a loaded series: log levels, or the values as given under
    ``value_scale="log"``; CsvFormatError below two observations."""
    if len(series) < 2:
        raise CsvFormatError(f"{file}: fewer than two usable rows")
    if value_scale == "level":
        return log_transform(series)
    return Path(series.values)


def window_partition(path: Path, config: WindowConfig) -> list[Path]:
    """Cut a path into consecutive full windows, discarding the tail.

    Parameters
    ----------
    path : Path
        Series of at least one full window.
    config : WindowConfig
        Provides the window length.

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
        raise ValueError(f"series of {n} points is shorter than one window ({size})")
    if n % size:
        logger.info("window_partition: discarding %d trailing points", n % size)
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
    "tolerance": (float, "optimizer", "tolerance"),
    "max_evals": (int, "optimizer", "max_evals"),
    "perm_scheme": (str, "plan", "scheme"),
    "block_length": (int, "plan", "block_length"),
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
    (``optimizer``, ``grid_step``, ``tolerance``, ``max_evals``)."""
    return OptimizerConfig(**_fields(settings, "optimizer"))


def permutation_plan(settings: Mapping[str, object], **fixed) -> PermutationPlan:
    """PermutationPlan from ``perm_scheme`` and ``block_length`` among
    manifest keys, plus the fields given in ``fixed``."""
    return PermutationPlan(**_fields(settings, "plan"), **fixed)


def build_manifest(settings: Mapping[str, object]) -> RunManifest:
    """RunManifest from manifest keys mapped to typed values.

    ``input`` is required and ``input2`` optional; every other key
    that is absent keeps its dataclass default.  Names that are not
    manifest keys are ignored.
    """
    plan = permutation_plan(settings)
    return RunManifest(
        inputs=tuple(settings[k] for k in ("input", "input2") if k in settings),
        window=WindowConfig(**_fields(settings, "window")),
        optimizer=optimizer_config(settings),
        perm_scheme=plan.scheme,
        block_length=plan.block_length,
        **_fields(settings, "run"),
    )


def parse_manifest(file) -> RunManifest:
    """Read a flat ``key = value`` manifest file into a RunManifest.

    Blank lines and ``#`` comments (at the start of a line or after
    whitespace) are ignored; unknown keys are an error.  Keys mirror
    the manifest fields (``input`` and optional ``input2`` for the
    series, ``optimizer`` for the method name, ``seed`` for the master
    seed); see :func:`build_manifest`.
    """
    raw: dict[str, str] = {}
    with open(file) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = _COMMENT.split(line, 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise CsvFormatError(f"{file}: line {lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _MANIFEST_KEYS:
                raise CsvFormatError(f"{file}: line {lineno}: unknown key {key!r}")
            if key in raw:
                raise CsvFormatError(f"{file}: line {lineno}: duplicate key {key!r}")
            raw[key] = value
    if "input" not in raw:
        raise CsvFormatError(f"{file}: missing required key 'input'")
    try:
        typed = {k: _MANIFEST_KEYS[k][0](v) for k, v in raw.items()}
    except ValueError as exc:
        raise CsvFormatError(f"{file}: {exc}") from None
    return build_manifest(typed)


def _estimate_one_window(
    window: Path, manifest: RunManifest, series_idx: int, window_idx: int
) -> EstimationResult:
    wc = manifest.window
    pair = RescaledPair(
        fine=increments(window, 1),
        coarse=increments(window, wc.a_max),
        a_max=wc.a_max,
    )
    seeds = np.random.SeedSequence(
        manifest.master_seed, spawn_key=(series_idx, window_idx)
    ).generate_state(2)
    plan = PermutationPlan(
        scheme=manifest.perm_scheme,
        block_length=manifest.block_length,
        subsample_size=wc.resolved_subseq(),
        seed=int(seeds[0]),
    )
    optimizer = replace(manifest.optimizer, seed=int(seeds[1]))
    return estimate_hurst(pair, plan, optimizer, alpha=wc.alpha)


def _analyze_series(manifest: RunManifest, series_idx: int) -> tuple[SeriesReport, list[str]]:
    file = manifest.inputs[series_idx]
    series, parsed, dropped = _parse_series(file, manifest.input_scale)
    path = series_path(file, series, manifest.input_scale)
    warning = _log_dropped(file, parsed, dropped)
    windows = window_partition(path, manifest.window)
    size = manifest.window.window_length
    rows = []
    for w, wpath in enumerate(windows):
        result = _estimate_one_window(wpath, manifest, series_idx, w)
        if not result.converged:
            raise NotConvergedError(
                f"{file}: window {w}: minimizer ran out of its budget of "
                f"{manifest.optimizer.max_evals} evaluations"
            )
        ci_lo, ci_hi = confidence_interval(
            result.h_hat,
            VarianceInputs(a_max=result.a_max, n=result.n, m=result.m),
            manifest.window.alpha,
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
        sigma = estimator_sd(
            VarianceInputs(a_max=manifest.window.a_max, n=rows[0].result.n, m=rows[0].result.m)
        )
        aggregate = aggregate_windows([r.result.h_hat for r in rows], sigma)
    report = SeriesReport(
        input=str(file),
        rows_parsed=parsed,
        rows_dropped=dropped,
        n_windows=len(rows),
        remainder=len(path) % size,
        windows=tuple(rows),
        aggregate=aggregate,
    )
    return report, [warning] if warning else []


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
            "perm_scheme": manifest.perm_scheme,
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

    Loads each input series, log-transforms it (unless the manifest
    says values are already logs), partitions it into windows,
    estimates the exponent per window with seeds derived from the
    master seed and the window position, and aggregates.  With two
    inputs, the mean exponents are compared by a z-test whose scale
    is the per-window standard deviation.

    Side effects: makes the manifest's ``out_dir`` before the first
    window is estimated, then writes ``report.json`` and
    ``windows.csv`` into it.  Two runs from the same manifest produce
    byte-identical files.

    Returns
    -------
    RunReport
    """
    os.makedirs(manifest.out_dir, exist_ok=True)
    series = []
    warnings: list[str] = []
    for idx in range(len(manifest.inputs)):
        rep, warns = _analyze_series(manifest, idx)
        series.append(rep)
        warnings.extend(warns)
    z_stat = z_p = None
    if len(series) == 2:
        means = []
        for rep in series:
            hs = [row.result.h_hat for row in rep.windows]
            means.append(float(np.mean(hs)))
        first = series[0].windows[0].result
        sigma = estimator_sd(
            VarianceInputs(a_max=first.a_max, n=first.n, m=first.m)
        )
        z_stat, z_p = z_test_means(means[0], means[1], sigma)
    report = RunReport(
        series=tuple(series), z_stat=z_stat, z_p=z_p, warnings=tuple(warnings)
    )
    with open(os.path.join(manifest.out_dir, "report.json"), "w") as fh:
        json.dump(_report_json(manifest, report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_windows_csv(os.path.join(manifest.out_dir, "windows.csv"), series)
    return report
