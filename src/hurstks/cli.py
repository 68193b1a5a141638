"""Command line interface: simulate, estimate, analyze, bench.

Exit codes: 0 on success, 1 for input problems (bad flags, missing or
malformed files, paths that cannot be read or written), 2 for
numerical failures (degenerate samples, embedding errors, an analysis
window whose minimizer ran out of its budget).
"""

from __future__ import annotations

import argparse
import datetime as dt
import logging
import sys

import numpy as np

from hurstks.fgn import EmbeddingError, FgnSpec, increments, simulate_fbm
from hurstks.ksdist import RescaledPair
from hurstks.minimize import METHODS, bench_optimizers, estimate_hurst, write_bench_csv
from hurstks.permute import SCHEMES, DegenerateSampleError
from hurstks.pipeline import (
    CsvFormatError,
    NotConvergedError,
    build_manifest,
    load_series,
    optimizer_config,
    parse_manifest,
    permutation_plan,
    run_static_analysis,
    series_path,
)
from hurstks.stats import VarianceInputs, confidence_interval

__all__ = ["main"]


# Subcommand parsers use argument_default=SUPPRESS: a flag without a
# default is absent unless given, so its setting keeps the dataclass
# default (see pipeline.build_manifest).


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid-step", type=float)
    p.add_argument("--tolerance", type=float)
    p.add_argument("--max-evals", type=int)


def _add_estimation_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--optimizer", choices=METHODS)
    _add_optimizer_flags(p)
    p.add_argument("--perm-scheme", choices=SCHEMES)
    p.add_argument("--block-length", type=int)


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
        choices=("level", "log"),
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
    ana.add_argument("--manifest", help="flat key=value manifest file (overrides other flags)")
    ana.add_argument("--input")
    ana.add_argument("--input2")
    ana.add_argument("--input-scale", choices=("level", "log"))
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
    ben.add_argument("--methods", default="grid,brent,nelder_mead,simulated_annealing")
    ben.add_argument("--length", type=int, default=4097)
    ben.add_argument("--amax", type=int, default=50)
    ben.add_argument("--subseq", type=int, default=500)
    ben.add_argument("--seed", type=int, default=0)
    _add_optimizer_flags(ben)
    ben.add_argument("--out", required=True)

    return parser


# Rows per write of ``simulate``; bounds the text held in memory.
_CHUNK_ROWS = 1 << 16


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = FgnSpec(hurst=args.hurst, length=args.length, scale=args.scale, seed=args.seed)
    if args.start_date.toordinal() + spec.length - 1 > dt.date.max.toordinal():
        raise ValueError(
            f"{spec.length} daily points from {args.start_date} run past {dt.date.max}"
        )
    # The bytes csv.writer would write: CRLF rows, nothing to quote.
    with open(args.out, "w", newline="") as fh:
        path = simulate_fbm(spec)
        fh.write("date,value\r\n")
        days = np.datetime64(args.start_date, "D") + np.arange(len(path))
        for lo in range(0, len(path), _CHUNK_ROWS):
            hi = lo + _CHUNK_ROWS
            dates = days[lo:hi].astype(str).tolist()
            values = map(repr, path.values[lo:hi].tolist())
            fh.write("".join([f"{d},{v}\r\n" for d, v in zip(dates, values)]))
    print(f"wrote {len(path)} points to {args.out}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    series = load_series(args.input, value_scale=args.input_scale)
    path = series_path(args.input, series, args.input_scale)
    if len(path) <= args.amax:
        raise CsvFormatError(f"{args.input}: series shorter than the coarse lag")
    pair = RescaledPair(
        fine=increments(path, 1), coarse=increments(path, args.amax), a_max=args.amax
    )
    subseq = args.subseq if args.subseq is not None else len(pair.coarse)
    settings = vars(args)
    plan = permutation_plan(settings, subsample_size=subseq, seed=args.seed)
    result = estimate_hurst(pair, plan, optimizer_config(settings), alpha=args.alpha)
    ci = confidence_interval(
        result.h_hat,
        VarianceInputs(a_max=result.a_max, n=result.n, m=result.m),
        args.alpha,
    )
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


def _cmd_bench(args: argparse.Namespace) -> int:
    try:
        h_values = [float(tok) for tok in args.h_list.split(",") if tok.strip()]
        methods = [tok.strip() for tok in args.methods.split(",") if tok.strip()]
    except ValueError:
        raise CsvFormatError("bad --h-list") from None
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise CsvFormatError(f"unknown methods: {unknown}")
    configs = [optimizer_config({**vars(args), "optimizer": m}) for m in methods]
    with open(args.out, "w", newline="") as fh:
        rows = bench_optimizers(
            h_values,
            args.reps,
            configs,
            length=args.length,
            a_max=args.amax,
            subsample=args.subseq,
            base_seed=args.seed,
        )
        write_bench_csv(rows, fh)
    failures = sum(1 for r in rows if r.error)
    unconverged = sum(1 for r in rows if not (r.error or r.converged))
    print(
        f"wrote {len(rows)} rows to {args.out} "
        f"({failures} failures, {unconverged} not converged)"
    )
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
        return _COMMANDS[args.command](args)
    except (DegenerateSampleError, EmbeddingError, FloatingPointError, NotConvergedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CsvFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
