#!/usr/bin/env python3
"""Benchmark for hurstks: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload estimate_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --workload analyze_windows --profile 25

The package is imported from ``src/`` next to this directory, never
from an installed copy; without it the run exits with code 2 and
prints no result.  Inputs derive from ``--seed`` only.  The run
repeats the workload's op cycle until ``--seconds`` have passed,
always finishing at least one full pass, and checks every op's
output.  The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics
with ``--trace 0``, per-layer metrics from a traced run with
``--trace 1``.  The line before it, ``detail {...}``, holds every
metric, the check results and the environment.  ``--workload all``
runs every workload in its own process, untraced and traced, and
prints one table.  ``--profile N`` prints the top N functions of an
untraced cProfile run instead of a result.  See README.md here.
"""

from __future__ import annotations

import os

# numpy reads these when it loads its BLAS; one thread per process.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("estimate_mc", "optimizer_compare", "analyze_windows", "cli_roundtrip")
SETUP_REPS = 5
# Reference tolerances: an estimate may move by a mesh tie-break, a
# minimum distance by rounding only.
H_TOL = 2e-3
DELTA_TOL = 1e-9
GRID_AGREE_TOL = 2e-3
P90_MIN_OPS = 100


def import_program():
    """Import hurstks from ``src/`` of this checkout, or exit with code 2."""
    if not (SRC / "hurstks" / "__init__.py").is_file():
        print(f"error: {SRC / 'hurstks'} not found; run from a hurstks checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import hurstks

    if Path(hurstks.__file__).resolve().parent != SRC / "hurstks":
        print(f"error: imported hurstks from {hurstks.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return hurstks


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import hurstks

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hurstks": hurstks.__version__,
        "git_commit": commit,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
        "seed": seed,
    }


def measure_setup(workload) -> tuple[float, float]:
    """Median import time of hurstks.cli in a fresh interpreter plus the
    median time of the workload's input generation; returns (calibrated,
    raw) seconds."""
    from calibrate import Calibrator

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cal = Calibrator()
    imports, gens = [], []
    cal.sample()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import hurstks.cli"],
            env=env, cwd=str(ROOT), check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        imports.append(perf_counter() - t0)
        cal.sample()
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        workload.setup()
        gens.append(perf_counter() - t0)
        cal.sample()
    raw = statistics.median(imports) + statistics.median(gens)
    nominal = raw / cal.slowness()
    return nominal, raw


def load_reference(name: str, seed: int):
    """Stored (label, h_hat, delta_min) rows per op of the cycle, or None."""
    if not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        doc = json.load(fh)
    return doc.get(f"{name}/{seed}")


class Checker:
    """Output checks; each failure is counted with its reason."""

    def __init__(self, workload, reference) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict = {}
        self.failures: Counter = Counter()
        self.reference_checked = 0

    def check(self, key: int, spec, raw, error: str | None):
        """Return the op's Outcome, or None after recording why it failed."""
        from workloads import OpFailure

        if error is not None:
            return self._fail(error)
        try:
            outcome = self.workload.outcome(spec, raw)
        except OpFailure as exc:
            return self._fail(str(exc))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return self._fail(f"reading outputs raised {type(exc).__name__}: {exc}")
        for e in outcome.estimates:
            if not (math.isfinite(e.h_hat) and 0.0 < e.h_hat <= 1.0):
                return self._fail(f"{e.label}: h_hat {e.h_hat!r} outside (0, 1]")
            if not (math.isfinite(e.delta_min) and 0.0 <= e.delta_min <= 1.0):
                return self._fail(f"{e.label}: delta_min {e.delta_min!r} outside [0, 1]")
        first = self.first.get(key)
        if first is not None and first.digest != outcome.digest:
            return self._fail(self.workload.determinism_reason())
        if first is None and self.reference is not None and key < len(self.reference):
            reason = self._compare_reference(self.reference[key], outcome)
            if reason:
                return self._fail(reason)
            self.reference_checked += 1
        self.first.setdefault(key, outcome)
        return outcome

    def _compare_reference(self, rows, outcome) -> str | None:
        got = [(e.label, e.h_hat, e.delta_min) for e in outcome.estimates]
        if [r[0] for r in rows] != [g[0] for g in got]:
            return f"estimates {[g[0] for g in got]} do not match reference {[r[0] for r in rows]}"
        for (label, h_ref, d_ref), (_, h, d) in zip(rows, got):
            if abs(h - h_ref) > H_TOL or abs(d - d_ref) > DELTA_TOL:
                return (
                    f"{label}: (h_hat, delta_min) = ({h!r}, {d!r}) differs from "
                    f"reference ({h_ref!r}, {d_ref!r})"
                )
        return None

    def _fail(self, reason: str):
        self.failures[reason] += 1
        return None


def _timed(workload, spec):
    """Run one op; return (output, error or None, seconds)."""
    t0 = perf_counter()
    try:
        raw, error = workload.run(spec), None
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
        raw, error = None, f"op raised {type(exc).__name__}: {exc}"
    return raw, error, perf_counter() - t0


def run_workload(
    name, seed, seconds, trace=False, entry_points=None, setup=True, reference=True
):
    """Run one workload in the current working directory; return a dict.

    With ``trace`` each op runs twice, traced and untraced, in
    alternating order, so the per-layer numbers come with the tracing
    overhead measured on the same ops.
    """
    import tracing
    from calibrate import NOMINAL_S, Calibrator
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    setup_s, setup_raw = measure_setup(workload) if setup else (math.nan, math.nan)
    if not setup:
        workload.setup()
    cal = Calibrator()
    cal.sample()
    cycle = workload.cycle()
    checker = Checker(workload, load_reference(name, seed) if reference else None)
    tracer = tracing.Tracer(entry_points or tracing.ENTRY_POINTS) if trace else None
    untraced_s: list[float] = []
    untraced_ok = 0
    traces, paired = [], []
    first_bytes: Counter = Counter()
    attempted = 0
    t_end = perf_counter() + seconds
    i = 0
    while i < len(cycle) or perf_counter() < t_end:
        cal.sample_if_due()
        key = i % len(cycle)
        spec = cycle[key]
        if tracer is None:
            order = (False,)
        else:
            order = (True, False) if i % 2 == 0 else (False, True)
        times = {}
        for traced in order:
            if traced:
                t0 = perf_counter()
                (raw, error, _), op_trace = tracer.run_op(i, lambda: _timed(workload, spec))
                times[traced] = perf_counter() - t0
                traces.append(op_trace)
            else:
                raw, error, times[traced] = _timed(workload, spec)
                untraced_s.append(times[traced])
            attempted += 1
            outcome = checker.check(key, spec, raw, error)
            if outcome is not None and not traced:
                untraced_ok += 1
            if outcome is not None and traced and i < len(cycle):
                first_bytes.update(outcome.bytes_written)
        if tracer is not None:
            paired.append((times[True], times[False]))
        i += 1
    cal.sample()
    workload.teardown()

    # Timings are reported at the machine's nominal speed; see calibrate.py.
    slow = cal.slowness()
    failed = sum(checker.failures.values())
    nominal_s = [s / slow for s in untraced_s]
    raw = {
        "setup_s": {"value": setup_raw, "unit": "s"},
        "ops_per_s": {"value": untraced_ok / sum(untraced_s), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(untraced_s), "unit": "ms"},
    }
    e2e = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": untraced_ok / sum(nominal_s), "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(nominal_s), "unit": "ms"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    extra = {"failed_ratio": {"value": failed / attempted, "unit": "ratio"}}
    if len(untraced_s) >= P90_MIN_OPS:
        extra["op_p90_ms"] = {
            "value": 1e3 * statistics.quantiles(nominal_s, n=10)[-1], "unit": "ms"
        }
    extra.update(accuracy(name, checker.first))
    result = {
        "workload": name,
        "seed": seed,
        "trace": bool(trace),
        "ops": len(untraced_s),
        "cycle_length": len(cycle),
        "attempted": attempted,
        "failed": failed,
        "failures": dict(checker.failures),
        "reference_checked_ops": checker.reference_checked,
        "reference": "stored" if checker.reference is not None else "none for this seed",
        "end_to_end": e2e,
        "workload_metrics": extra,
        "end_to_end_raw": raw,
        "calibration": {"slowness": slow, "samples": len(cal.samples),
                        "nominal_ms": 1e3 * NOMINAL_S},
        "outcomes": checker.first,
    }
    if tracer is not None:
        n_first = min(len(cycle), len(traces))
        per_layer = tracing.layer_metrics(tracer, traces[:n_first], traces, paired, first_bytes)
        for metric in per_layer.values():
            if metric["unit"] in ("ms/op", "us"):
                metric["value"] /= slow
        result["per_layer"] = per_layer
        result["layer_self_ms"] = {
            k: v / slow for k, v in tracing.layer_self_ms(traces).items()
        }
        result["unmeasured"] = dict(tracer.unmeasured)
        result["unbound_entry_points"] = list(tracer.unbound)
        result["spans"] = tracer.spans
    return result


def accuracy(name: str, outcomes: dict) -> dict:
    """Accuracy of the first run of each op: h_rmse on every workload
    (all inputs have a known exponent), grid agreement where the op
    runs the grid next to the local methods."""
    ests = [e for o in outcomes.values() for e in o.estimates]
    out = {}
    if ests:
        rmse = math.sqrt(sum((e.h_hat - e.h_true) ** 2 for e in ests) / len(ests))
        out["h_rmse"] = {"value": rmse, "unit": "1", "estimates": len(ests)}
    if name == "optimizer_compare" and outcomes:
        pairs = agree = 0
        for o in outcomes.values():
            by = {e.label: e.h_hat for e in o.estimates}
            for label, h in by.items():
                if label != "grid":
                    pairs += 1
                    agree += abs(h - by["grid"]) <= GRID_AGREE_TOL
        out["grid_agree_ratio"] = {"value": agree / pairs, "unit": "ratio", "pairs": pairs}
    return out


def _print_result(result: dict, env: dict) -> None:
    n = result["ops"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {n} ops, cycle of {result['cycle_length']}")
    shown = dict(result["end_to_end"], **result["workload_metrics"])
    for name, m in shown.items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}  (n={n} ops)")
    for name, m in result.get("per_layer", {}).items():
        note = f"  unmeasured: {m['unmeasured']}" if "unmeasured" in m else ""
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}{note}")
    for reason, count in result["failures"].items():
        print(f"  FAILED x{count}: {reason}")
    print(f"  reference: {result['reference']}, {result['reference_checked_ops']} ops checked")
    detail = {k: v for k, v in result.items() if k not in ("outcomes", "spans")}
    detail["environment"] = env
    print("detail " + json.dumps(detail, sort_keys=True))


def _write_spans(result: dict) -> None:
    path = Path(f"trace-{result['workload']}-{result['seed']}.jsonl")
    with open(path, "w") as fh:
        for span in result["spans"]:
            fh.write(json.dumps(dict(zip(
                ("op", "span", "parent", "name", "layer", "start", "end", "self_s"), span
            ))) + "\n")


def run_all(seed: int, seconds: float) -> int:
    """Run every workload untraced and traced, each in its own process."""
    rows, ok = [], True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.splitlines()
            detail = next((json.loads(l[7:]) for l in lines if l.startswith("detail ")), None)
            if proc.returncode != 0 or detail is None:
                print(f"{name} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            final = json.loads(lines[-1])
            ok = ok and final["correct"]
            rows.append((name, trace, detail, final))
    for name, trace, detail, final in rows:
        print(f"== {name} (trace {trace}): {detail['ops']} ops, "
              f"attempted {final['attempted']}, failed {final['failed']}, "
              f"correct {final['correct']}")
        metrics = dict(detail["end_to_end"], **detail["workload_metrics"]) if not trace else {}
        metrics.update(detail.get("per_layer", {}))
        for m, v in metrics.items():
            note = f"  unmeasured: {v['unmeasured']}" if "unmeasured" in v else ""
            print(f"   {m:<40} {v['value']:.6g} {v['unit']}{note}")
        for reason, count in detail["failures"].items():
            print(f"   FAILED x{count}: {reason}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hurstks benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print the top N functions of a cProfile run; no result")
    args = parser.parse_args(argv)

    import_program()
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    if args.profile:
        return profile(args.workload, args.seed, args.seconds, args.profile)
    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    _print_result(result, environment(args.seed))
    if args.trace:
        _write_spans(result)
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def profile(name: str, seed: int, seconds: float, top: int) -> int:
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    result = run_workload(name, seed, seconds, setup=False)
    prof.disable()
    print(f"cProfile of {name}, seed {seed}: {result['ops']} ops "
          f"(profiled timings; not a metric run)")
    pstats.Stats(prof, stream=sys.stdout).sort_stats("cumulative").print_stats(top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
