"""In-memory span tracer for the hurstks benchmark.

The tracer rebinds the module attributes through which hurstks code
looks up its collaborators (``hurstks.minimize.scaled_diameter_fn``,
``hurstks.cli.load_series``, ...) with thin wrappers that record a
span per call: name, layer, start, end, parent span and op id.  A
layer's self time is its span's duration minus the time its child
spans cover.  Objective evaluations are too many to keep one span
each, so they are aggregated into the enclosing span (their time is
still subtracted from it) and into per-op counters.

Bindings are installed only around traced ops and restored afterwards,
so untraced ops run the program exactly as shipped.  An entry point
that no longer exists (a later refactor renamed or removed it) is
skipped; when it is one a layer depends on, that layer's metrics are
reported as unmeasured with the reason instead of failing the run.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

METHODS = ("grid", "brent", "nelder_mead", "simulated_annealing")

# Layers whose self time is reported; "estimate" is the decorrelate,
# freeze and minimise glue in estimate_hurst / bench_optimizers, and
# "bench" is the benchmark's own code around the program calls.
LAYERS = ("fgn", "permute", "ksdist", "minimize", "estimate", "stats", "pipeline", "cli")


@dataclass(frozen=True)
class EntryPoint:
    module: str
    attr: str
    layer: str
    kind: str = "plain"
    # A missing required entry point makes its layer unmeasured; a
    # missing optional one only moves its time into the caller's
    # self time.
    required: bool = True


ENTRY_POINTS = (
    EntryPoint("hurstks.fgn", "simulate_fbm", "fgn", "simulate", required=False),
    EntryPoint("hurstks.fgn", "increments", "fgn", required=False),
    EntryPoint("hurstks.minimize", "simulate_fbm", "fgn", "simulate"),
    EntryPoint("hurstks.minimize", "increments", "fgn", required=False),
    EntryPoint("hurstks.minimize", "uniform_sample_permute", "permute", "permute"),
    EntryPoint("hurstks.minimize", "block_permute", "permute", "permute"),
    EntryPoint("hurstks.minimize", "scaled_diameter_fn", "ksdist", "freeze"),
    EntryPoint("hurstks.minimize", "minimize_scalar", "minimize", "minimize"),
    EntryPoint("hurstks.minimize", "estimate_hurst", "estimate"),
    EntryPoint("hurstks.minimize", "bench_optimizers", "estimate", required=False),
    EntryPoint("hurstks.minimize", "estimator_sd", "stats"),
    EntryPoint("hurstks.pipeline", "estimate_hurst", "estimate"),
    EntryPoint("hurstks.pipeline", "increments", "fgn", required=False),
    EntryPoint("hurstks.pipeline", "log_transform", "pipeline"),
    EntryPoint("hurstks.pipeline", "window_partition", "pipeline"),
    EntryPoint("hurstks.pipeline", "confidence_interval", "stats"),
    EntryPoint("hurstks.pipeline", "aggregate_windows", "stats"),
    EntryPoint("hurstks.pipeline", "estimator_sd", "stats", required=False),
    EntryPoint("hurstks.cli", "simulate_fbm", "fgn", "simulate"),
    EntryPoint("hurstks.cli", "increments", "fgn", required=False),
    EntryPoint("hurstks.cli", "load_series", "pipeline", "load"),
    EntryPoint("hurstks.cli", "estimate_hurst", "estimate"),
    EntryPoint("hurstks.cli", "run_static_analysis", "pipeline", "analysis"),
    EntryPoint("hurstks.cli", "confidence_interval", "stats", required=False),
    EntryPoint("hurstks.cli", "main", "cli"),
)

# Per-layer metric name -> (unit, layer whose entry points it needs).
LAYER_METRICS = {
    "fgn.calls": ("count/op", "fgn"),
    "fgn.points": ("count/op", "fgn"),
    "fgn.self_ms": ("ms/op", "fgn"),
    "permute.calls": ("count/op", "permute"),
    "permute.self_ms": ("ms/op", "permute"),
    "permute.kept_ratio": ("ratio", "permute"),
    "ksdist.evals": ("count/op", "ksdist"),
    "ksdist.eval_ms": ("ms/op", "ksdist"),
    "ksdist.us_per_eval": ("us", "ksdist"),
    "ksdist.freeze_ms": ("ms/op", "ksdist"),
    "minimize.calls": ("count/op", "minimize"),
    # Evaluations are counted by the objective wrapper, so these need
    # the ksdist entry point as well as minimize_scalar.
    **{f"minimize.evals_per_call.{m}": ("count", "ksdist") for m in METHODS},
    **{f"minimize.repeat_eval_ratio.{m}": ("ratio", "ksdist") for m in METHODS},
    "minimize.self_ms": ("ms/op", "minimize"),
    "minimize.estimate_self_ms": ("ms/op", "estimate"),
    "minimize.not_converged": ("count/op", "minimize"),
    "stats.self_ms": ("ms/op", "stats"),
    "pipeline.self_ms": ("ms/op", "pipeline"),
    "pipeline.rows_parsed": ("count/op", "pipeline"),
    "pipeline.bytes_written": ("bytes/op", "pipeline"),
    "cli.self_ms": ("ms/op", "cli"),
    "cli.bytes_written": ("bytes/op", "cli"),
    "trace.overhead_ratio": ("ratio", None),
    "trace.accounted_ratio": ("ratio", None),
}

# Counts that must repeat exactly for one seed.
EXACT_METRICS = (
    "fgn.calls",
    "fgn.points",
    "permute.calls",
    "permute.kept_ratio",
    "ksdist.evals",
    "minimize.calls",
    *(f"minimize.evals_per_call.{m}" for m in METHODS),
    *(f"minimize.repeat_eval_ratio.{m}" for m in METHODS),
    "minimize.not_converged",
    "pipeline.rows_parsed",
    "pipeline.bytes_written",
    "cli.bytes_written",
)


@dataclass
class _Span:
    sid: int
    name: str
    layer: str
    t0: float
    child: float = 0.0
    evals: int = 0
    hs: set = field(default_factory=set)


@dataclass
class OpTrace:
    """What one traced op did: self time per layer and counts."""

    wall_s: float
    self_s: dict
    counts: Counter


class Tracer:
    """Record spans for the ops run through :meth:`run_op`.

    Spans are kept in memory as tuples ``(op_id, span_id, parent_id,
    name, layer, start, end, self_s)`` and written out by the caller
    when the run ends.
    """

    def __init__(self, entry_points=ENTRY_POINTS) -> None:
        self.spans: list[tuple] = []
        self.unmeasured: dict[str, str] = {}
        self.unbound: list[str] = []
        self._stack: list[_Span] = []
        self._next_sid = 0
        self._op_id = -1
        self._self: Counter = Counter()
        self._counts: Counter = Counter()
        self._wrappers = []
        for ep in entry_points:
            try:
                module = importlib.import_module(ep.module)
                original = getattr(module, ep.attr)
            except (ImportError, AttributeError):
                where = f"{ep.module}.{ep.attr}"
                if ep.required:
                    self.unmeasured.setdefault(ep.layer, f"entry point {where} not found")
                else:
                    self.unbound.append(where)
                continue
            self._wrappers.append((module, ep.attr, original, self._wrap(ep, original)))

    # -- binding -----------------------------------------------------

    def install(self) -> None:
        for module, attr, original, wrapper in self._wrappers:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, wrapper in self._wrappers:
            setattr(module, attr, original)

    # -- spans -------------------------------------------------------

    def _enter(self, name: str, layer: str) -> _Span:
        self._next_sid += 1
        span = _Span(self._next_sid, name, layer, perf_counter())
        self._stack.append(span)
        return span

    def _exit(self, span: _Span) -> None:
        t1 = perf_counter()
        self._stack.pop()
        dur = t1 - span.t0
        own = dur - span.child
        self._self[span.layer] += own
        parent = self._stack[-1].sid if self._stack else 0
        if self._stack:
            self._stack[-1].child += dur
        self.spans.append((self._op_id, span.sid, parent, span.name, span.layer, span.t0, t1, own))

    def run_op(self, op_id: int, fn):
        """Run ``fn()`` traced as op ``op_id``; return (result, OpTrace)."""
        self._op_id = op_id
        self._self = Counter()
        self._counts = Counter()
        self.install()
        try:
            root = self._enter("op", "bench")
            try:
                out = fn()
            finally:
                self._exit(root)
        finally:
            self.uninstall()
        wall = self.spans[-1][6] - self.spans[-1][5]
        return out, OpTrace(wall_s=wall, self_s=dict(self._self), counts=self._counts)

    def _wrap(self, ep: EntryPoint, original):
        tracer = self
        name = f"{ep.module.rsplit('.', 1)[1]}.{ep.attr}"
        layer, kind = ep.layer, ep.kind

        def traced(*args, **kwargs):
            span = tracer._enter(name, layer)
            try:
                out = original(*args, **kwargs)
                if kind == "freeze":
                    out = tracer._wrap_objective(out)
                elif kind == "minimize":
                    tracer._count_minimize(args, kwargs, span, out)
                elif kind == "simulate":
                    tracer._counts["fgn.calls"] += 1
                    tracer._counts["fgn.points"] += len(out)
                elif kind == "permute":
                    tracer._counts["permute.calls"] += 1
                    tracer._counts["permute.values_in"] += len(args[0])
                    tracer._counts["permute.values_kept"] += len(out)
                elif kind == "load":
                    tracer._counts["pipeline.rows_parsed"] += len(out)
                elif kind == "analysis":
                    tracer._counts["pipeline.rows_parsed"] += sum(s.rows_parsed for s in out.series)
                return out
            finally:
                tracer._exit(span)

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", ep.attr)
        return traced

    def _wrap_objective(self, objective):
        tracer = self

        def traced_objective(h):
            t0 = perf_counter()
            value = objective(h)
            dt = perf_counter() - t0
            top = tracer._stack[-1]
            top.child += dt
            top.evals += 1
            top.hs.add(h)
            tracer._self["ksdist.eval"] += dt
            tracer._counts["ksdist.evals"] += 1
            return value

        return traced_objective

    def _count_minimize(self, args, kwargs, span: _Span, report) -> None:
        config = kwargs.get("config", args[1] if len(args) > 1 else None)
        method = getattr(config, "method", "unknown")
        c = self._counts
        c["minimize.calls"] += 1
        c[f"minimize.calls.{method}"] += 1
        c[f"minimize.evals.{method}"] += span.evals
        c[f"minimize.repeats.{method}"] += span.evals - len(span.hs)
        if not getattr(report, "converged", True):
            c["minimize.not_converged"] += 1


def layer_metrics(
    tracer: Tracer,
    first_pass: list[OpTrace],
    traced: list[OpTrace],
    paired: list[tuple[float, float]],
    bytes_written: dict,
) -> dict:
    """Per-layer metrics from one traced run.

    Counts come from the first complete pass over the op cycle, so
    they repeat exactly for one seed; times are per-op means over
    every traced op.  ``paired`` holds (traced, untraced) wall times
    of the same op; ``bytes_written`` maps ``"pipeline"``/``"cli"`` to
    bytes per op from the first pass.
    """
    n_first = max(len(first_pass), 1)
    counts: Counter = Counter()
    for t in first_pass:
        counts.update(t.counts)
    n_traced = max(len(traced), 1)
    self_s: Counter = Counter()
    wall = 0.0
    for t in traced:
        self_s.update(t.self_s)
        wall += t.wall_s
    evals_all = sum(t.counts["ksdist.evals"] for t in traced)

    def per_op(key):
        return counts[key] / n_first

    def ms(key):
        return 1e3 * self_s[key] / n_traced

    values = {
        "fgn.calls": per_op("fgn.calls"),
        "fgn.points": per_op("fgn.points"),
        "fgn.self_ms": ms("fgn"),
        "permute.calls": per_op("permute.calls"),
        "permute.self_ms": ms("permute"),
        "permute.kept_ratio": _ratio(counts["permute.values_kept"], counts["permute.values_in"]),
        "ksdist.evals": per_op("ksdist.evals"),
        "ksdist.eval_ms": ms("ksdist.eval"),
        "ksdist.us_per_eval": _ratio(1e6 * self_s["ksdist.eval"], evals_all),
        "ksdist.freeze_ms": ms("ksdist"),
        "minimize.calls": per_op("minimize.calls"),
        "minimize.self_ms": ms("minimize"),
        "minimize.estimate_self_ms": ms("estimate"),
        "minimize.not_converged": per_op("minimize.not_converged"),
        "stats.self_ms": ms("stats"),
        "pipeline.self_ms": ms("pipeline"),
        "pipeline.rows_parsed": per_op("pipeline.rows_parsed"),
        "pipeline.bytes_written": bytes_written.get("pipeline", 0) / n_first,
        "cli.self_ms": ms("cli"),
        "cli.bytes_written": bytes_written.get("cli", 0) / n_first,
    }
    for m in METHODS:
        values[f"minimize.evals_per_call.{m}"] = _ratio(
            counts[f"minimize.evals.{m}"], counts[f"minimize.calls.{m}"]
        )
        values[f"minimize.repeat_eval_ratio.{m}"] = _ratio(
            counts[f"minimize.repeats.{m}"], counts[f"minimize.evals.{m}"]
        )
    traced_s = sum(a for a, _ in paired)
    untraced_s = sum(b for _, b in paired)
    values["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    program_s = sum(v for k, v in self_s.items() if k in LAYERS or k == "ksdist.eval")
    values["trace.accounted_ratio"] = _ratio(program_s, wall)

    out = {}
    for name, (unit, layer) in LAYER_METRICS.items():
        entry = {"value": values[name], "unit": unit}
        if layer in tracer.unmeasured:
            entry = {"value": 0, "unit": unit, "unmeasured": tracer.unmeasured[layer]}
        out[name] = entry
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_self_ms(traced: list[OpTrace]) -> dict:
    """Mean self time per op of every layer, the benchmark included."""
    n = max(len(traced), 1)
    total: defaultdict = defaultdict(float)
    for t in traced:
        for k, v in t.self_s.items():
            total[k] += v
    return {k: 1e3 * v / n for k, v in sorted(total.items())}

