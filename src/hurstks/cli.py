"""Command line interface: simulate, estimate, analyze, bench.

Exit codes: 0 on success, 1 for input problems (bad flags, missing or
malformed files, paths that cannot be read or written), 2 for
numerical failures (degenerate samples, embedding errors, an analysis
window whose minimizer ran out of its budget), 141 when the reader of
stdout went away (128 + SIGPIPE, what a shell reports for a program
killed by a closed pipe).
"""

from __future__ import annotations

import argparse
import calendar
import datetime as dt
import logging
import math
import os
import sys
from contextlib import contextmanager, suppress
from itertools import count, islice
from typing import Iterator, TextIO

import numpy as np

from hurstks.fgn import EmbeddingError, FgnSpec, increments, simulate_fbm
from hurstks.ksdist import RescaledPair, ks_critical
from hurstks.minimize import METHODS, bench_optimizers, estimate_hurst, write_bench_csv
from hurstks.permute import DegenerateSampleError, PermutationPlan
from hurstks.pipeline import (
    VALUE_SCALES,
    CsvFormatError,
    NotConvergedError,
    build_manifest,
    load_series,
    optimizer_config,
    parse_manifest,
    run_static_analysis,
)
from hurstks.stats import confidence_interval, estimator_sd

__all__ = ["main"]


# Subcommand parsers use argument_default=SUPPRESS: a flag without a
# default is absent unless given, so its setting keeps the dataclass
# default (see pipeline.build_manifest).


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-step", type=float)
    p.add_argument("--max-evals", type=int)


def _add_estimation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--optimizer", choices=METHODS)
    _add_optimizer_flags(p)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hurstks",
        description="Scaling-exponent estimation from rescaled increment distributions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    given_only = {"argument_default": argparse.SUPPRESS}

    sim = sub.add_parser("simulate", help="write a simulated fractional Brownian path as CSV")
    sim.add_argument("--hurst", type=float, required=True)
    sim.add_argument("--length", type=int, required=True)
    sim.add_argument("--scale", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--start-date", type=dt.date.fromisoformat, default=dt.date(2000, 1, 3))
    sim.add_argument("--out", required=True)

    est = sub.add_parser("estimate", help="estimate the exponent of one series", **given_only)
    est.add_argument("--input", required=True)
    est.add_argument(
        "--input-scale",
        choices=VALUE_SCALES,
        default="log",
        help="'log' (default) reads values as already log-scale, e.g. simulated paths; "
        "use 'level' for positive volatility levels",
    )
    est.add_argument("--amax", type=int, default=50)
    est.add_argument("--subseq", type=int, default=None)
    est.add_argument("--alpha", type=float, default=0.05)
    est.add_argument("--seed", type=int, default=0)
    _add_estimation_flags(est)

    # Destinations are manifest keys (see pipeline.build_manifest).
    ana = sub.add_parser("analyze", help="windowed analysis of one or two series", **given_only)
    ana.add_argument("--manifest", help="flat key=value manifest file; takes no other flags")
    ana.add_argument("--input")
    ana.add_argument("--input2")
    ana.add_argument("--input-scale", choices=VALUE_SCALES)
    ana.add_argument("--window", type=int, dest="window_length")
    ana.add_argument("--amax", type=int, dest="a_max")
    ana.add_argument("--subseq", type=int)
    ana.add_argument("--alpha", type=float)
    ana.add_argument("--seed", type=int)
    ana.add_argument("--out-dir")
    _add_estimation_flags(ana)

    ben = sub.add_parser(
        "bench", help="benchmark the minimizers on simulated paths", **given_only
    )
    ben.add_argument("--h-list", default="0.2,0.4,0.6,0.8")
    ben.add_argument("--reps", type=int, default=10)
    ben.add_argument("--methods", default=",".join(METHODS))
    ben.add_argument("--length", type=int, default=4097)
    ben.add_argument("--amax", type=int, default=50)
    ben.add_argument("--subseq", type=int, default=500)
    ben.add_argument("--seed", type=int, default=0)
    _add_optimizer_flags(ben)
    ben.add_argument("--out", required=True)

    return parser


# Rows per write of ``simulate``; bounds the text held in memory.
_CHUNK_ROWS = 1 << 16


@contextmanager
def _output(path: str) -> Iterator[TextIO]:
    # path opened before the command's work, so that an unwritable one
    # fails first, but for appending: the command empties it only once
    # its output exists, so a failure before then leaves an existing
    # file as it was.  A file the command created is removed if the
    # command fails.
    created = not os.path.lexists(path)
    try:
        with open(path, "a", newline="") as fh:
            yield fh
    except BaseException:
        if created:
            with suppress(OSError):
                os.remove(path)
        raise


def _date_fields(start: dt.date) -> Iterator[str]:
    # "YYYY-MM-DD," for every day from start on: the year joined to a
    # table of "-MM-DD," for a common or a leap year.
    tables = [
        [(jan1 + dt.timedelta(i)).isoformat()[4:] + "," for i in range(365 + leap)]
        for leap, jan1 in enumerate((dt.date(2001, 1, 1), dt.date(2000, 1, 1)))
    ]
    day = start.timetuple().tm_yday - 1
    for year in count(start.year):
        yield from map(f"{year:04d}".__add__, tables[calendar.isleap(year)][day:])
        day = 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = FgnSpec(hurst=args.hurst, length=args.length, scale=args.scale, seed=args.seed)
    if args.start_date.toordinal() + spec.length - 1 > dt.date.max.toordinal():
        raise ValueError(
            f"{spec.length} daily points from {args.start_date} run past {dt.date.max}"
        )
    # The bytes csv.writer would write: CRLF rows, nothing to quote.
    with _output(args.out) as fh:
        path = simulate_fbm(spec)
        fh.truncate(0)
        fh.write("date,value\r\n")
        dates = _date_fields(args.start_date)
        for lo in range(0, len(path), _CHUNK_ROWS):
            values = path.values[lo : lo + _CHUNK_ROWS].tolist()
            rows = map(str.__add__, islice(dates, len(values)), map(repr, values))
            fh.write("\r\n".join(rows))
            fh.write("\r\n")
    print(f"wrote {len(path)} points to {args.out}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.amax < 2:
        raise CsvFormatError("--amax must be at least 2")
    # A one-value sample is constant, so both samples need two values.
    if args.subseq is not None and args.subseq < 2:
        raise CsvFormatError("--subseq must be at least 2")
    path = load_series(args.input, value_scale=args.input_scale).path
    if len(path) < args.amax + 2:
        raise CsvFormatError(
            f"{args.input}: series of {len(path)} points is shorter than --amax + 2"
        )
    coarse = len(path) - args.amax
    if args.subseq is not None and args.subseq > coarse:
        raise CsvFormatError(
            f"--subseq {args.subseq} exceeds the {coarse} lag-{args.amax} increments of the series"
        )
    pair = RescaledPair(
        fine=increments(path, 1), coarse=increments(path, args.amax), a_max=args.amax
    )
    subseq = args.subseq if args.subseq is not None else coarse
    plan = PermutationPlan(subsample_size=subseq, seed=args.seed)
    result = estimate_hurst(pair, plan, optimizer_config(vars(args)), alpha=args.alpha)
    ci = confidence_interval(result.h_hat, result.a_max, result.n, result.m, args.alpha)
    print(f"h_hat = {result.h_hat:.6f}")
    print(f"delta_min = {result.delta_min:.6f}")
    print(f"critical = {result.critical_value:.6f} (alpha = {result.alpha})")
    print(f"significant = {'true' if result.significant else 'false'}")
    print(f"converged = {'true' if result.converged else 'false'}")
    print(f"ci = [{ci[0]:.6f}, {ci[1]:.6f}]")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    settings = vars(args)
    if "manifest" in settings:
        # Every analyze flag is absent unless given (see _build_parser).
        others = sorted(set(settings) - {"command", "manifest"})
        if others:
            raise CsvFormatError(f"--manifest takes no other flags: {others}")
        manifest = parse_manifest(settings["manifest"])
    elif "input" in settings:
        manifest = build_manifest(settings)
    else:
        raise CsvFormatError("analyze needs --manifest or --input")
    report = run_static_analysis(manifest)
    for rep in report.series:
        print(f"{rep.input}: {rep.n_windows} windows (remainder {rep.remainder})")
        for row in rep.windows:
            res = row.result
            print(
                f"  window {row.window_index} [{row.start_date} .. {row.end_date}]: "
                f"h_hat = {res.h_hat:.4f}, delta_min = {res.delta_min:.4f}, "
                f"{'fits' if res.significant else 'does not fit'} at alpha = {res.alpha}"
            )
        if rep.aggregate is not None:
            agg = rep.aggregate
            print(
                f"  mean h = {agg.mean_h:.4f}; constancy chi2({agg.chi2_df}) = "
                f"{agg.chi2_stat:.4f}, p = {agg.chi2_p:.4f}"
            )
    if report.z_stat is not None:
        print(f"z = {report.z_stat:.4f}, one-sided p = {report.z_p:.4f}")
    print(f"wrote report.json and windows.csv to {manifest.out_dir}")
    return 0


# A method's cell agrees with the grid when their estimates of the
# same frozen objective differ by at most this (acceptance criterion 6).
_AGREE_TOL = 2e-3


def _mean(values: list[float]) -> float:
    return float(np.mean(values)) if values else math.nan


def _print_bench_table(rows, methods, h_values, reps, predicted_sd, critical) -> None:
    """Print one line per (method, exponent), in the order of
    ``methods`` then ``h_values``: cells kept, mean, bias and sd of
    ``h_hat``, sd over the closed-form bound, cells whose ``delta_min``
    clears the 5% critical value, cells within ``_AGREE_TOL`` of the
    grid's estimate, and mean evaluations and seconds.

    A cell that failed or did not converge is left out of its line, and
    a grid cell that did is left out of every ``agree`` it would anchor.
    """
    kept = [r for r in rows if r.converged]
    grid = {(r.h_true, r.rep): r.h_hat for r in kept if r.method == "grid"}
    agree_out = 0
    print(f"closed-form sd {predicted_sd:.4f}, 5% critical value {critical:.4f}")
    print(
        f"{'method':<19} {'h_true':>6} {'kept':>7} {'mean':>7} {'bias':>8} {'sd':>7} "
        f"{'sd/pred':>8} {'fits 5%':>8} {'agree':>8} {'evals':>8} {'mean s':>8}"
    )
    for method in methods:
        for h in h_values:
            cells = [r for r in kept if (r.method, r.h_true) == (method, h)]
            hats = [c.h_hat for c in cells]
            mean = _mean(hats)
            sd = float(np.std(hats, ddof=1)) if len(hats) > 1 else math.nan
            fits = sum(c.delta_min < critical for c in cells)
            if method == "grid" or "grid" not in methods:
                agree = "-"
            else:
                gaps = [abs(c.h_hat - grid[h, c.rep]) for c in cells if (h, c.rep) in grid]
                agree_out += len(cells) - len(gaps)
                agree = f"{sum(gap <= _AGREE_TOL for gap in gaps)}/{len(gaps)}"
            print(
                f"{method:<19} {h:>6g} {f'{len(cells)}/{reps}':>7} {mean:>7.4f} "
                f"{mean - h:>8.4f} {sd:>7.4f} {sd / predicted_sd:>8.3f} {fits:>8} "
                f"{agree:>8} {_mean([c.evaluations for c in cells]):>8.0f} "
                f"{_mean([c.wall_time_s for c in cells]):>8.4f}"
            )
    print(
        f"left out {len(rows) - len(kept)} cells that failed or did not converge, and "
        f"{agree_out} more from agree whose grid cell did"
    )


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        h_values = [float(tok) for tok in args.h_list.split(",") if tok.strip()]
    except ValueError:
        raise CsvFormatError("bad --h-list") from None
    methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise CsvFormatError(f"unknown methods: {unknown}")
    # Settings a cell would reject are checked before --out is opened,
    # so that a bad one costs no cell and leaves no file.
    for flag, values in (("--h-list", h_values), ("--methods", methods)):
        if not values:
            raise CsvFormatError(f"{flag} is empty")
        if len(set(values)) < len(values):
            raise CsvFormatError(f"{flag} repeats a value")
    outside = [h for h in h_values if not 0.0 < h < 1.0]
    if outside:
        raise CsvFormatError(f"--h-list values outside (0, 1): {outside}")
    if args.reps < 1:
        raise CsvFormatError("--reps must be positive")
    if args.seed < 0:
        raise CsvFormatError("--seed must be non-negative")
    if args.amax < 2:
        raise CsvFormatError("--amax must be at least 2")
    # A one-value sample is constant, so no cell could freeze it.
    if args.subseq < 2:
        raise CsvFormatError("--subseq must be at least 2")
    coarse = max(args.length - args.amax, 0)
    if args.subseq > coarse:
        raise CsvFormatError(
            f"--subseq {args.subseq} exceeds the {coarse} lag-{args.amax} increments of the path"
        )
    configs = [optimizer_config({**vars(args), "optimizer": m}) for m in methods]
    # Under the uniform scheme both samples have --subseq points.
    predicted_sd = estimator_sd(args.amax, args.subseq, args.subseq)
    critical = ks_critical(args.subseq, args.subseq, 0.05)
    with _output(args.out) as fh:
        rows = bench_optimizers(
            h_values,
            args.reps,
            configs,
            length=args.length,
            a_max=args.amax,
            subsample=args.subseq,
            base_seed=args.seed,
        )
        fh.truncate(0)
        write_bench_csv(rows, fh)
    failures = sum(1 for r in rows if r.error)
    unconverged = sum(1 for r in rows if not (r.error or r.converged))
    print(
        f"wrote {len(rows)} rows to {args.out} "
        f"({failures} failures, {unconverged} not converged)"
    )
    _print_bench_table(rows, methods, h_values, args.reps, predicted_sd, critical)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "estimate": _cmd_estimate,
    "analyze": _cmd_analyze,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the input-error code.
        return 0 if exc.code == 0 else 1
    try:
        code = _COMMANDS[args.command](args)
        # Flush here, so that a closed stdout is caught below and not
        # at interpreter exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can reach the reader.  Point fd 1 at devnull so
        # that the final flush at exit does not fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (DegenerateSampleError, EmbeddingError, FloatingPointError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CsvFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
