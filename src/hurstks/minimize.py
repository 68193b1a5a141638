"""Scalar minimizers for the rescaled-increment objective.

The empirical objective is piecewise constant in the exponent, so
every minimizer here reports the best value actually evaluated rather
than trusting its own convergence point, counts objective calls, and
breaks ties toward the smallest exponent.  A grid search is the
reference; Brent, a one-dimensional Nelder-Mead, and simulated
annealing are the cheaper alternatives benchmarked against it.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from hurstks.fgn import FgnSpec, simulate_fbm, increments
from hurstks.ksdist import RescaledPair, ks_critical, scaled_diameter_fn
from hurstks.permute import PermutationPlan, block_permute, uniform_sample_permute
from hurstks.stats import VarianceInputs, estimator_sd, normal_quantile

__all__ = [
    "OptimizerConfig",
    "OptimizerReport",
    "EstimationResult",
    "BenchRow",
    "METHODS",
    "grid_search",
    "brent_min",
    "nelder_mead",
    "simulated_annealing",
    "minimize_scalar",
    "estimate_hurst",
    "bench_optimizers",
    "write_bench_csv",
]

METHODS = ("grid", "brent", "nelder_mead", "simulated_annealing")

# Inverse golden ratio squared; fraction kept by a golden-section step.
_GOLDEN = 0.3819660112501051

# The empirical objective is a step function, so a local method can
# stop anywhere inside a flat minimal plateau.  The plateau sweep walks
# the grid mesh outward from the incumbent and gives up a direction
# after this many consecutive non-improving cells.
_SWEEP_GAP = 150

# Brent and Nelder-Mead first evaluate this many evenly spaced points
# and restart inside the best one's bracket unless their own run
# clearly beats it: on a stepwise objective a local method alone can
# settle in a poor basin.
_SCAN_POINTS = 50


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by all minimizers.

    Parameters
    ----------
    method : str
        One of :data:`METHODS`.
    grid_step : float, optional
        Mesh width of the grid search.
    tolerance : float, optional
        Bracket width at which Brent / Nelder-Mead stop.
    max_evals : int, optional
        Hard budget of objective evaluations; doubles as the length of
        the annealing schedule.
    seed : int, optional
        Non-negative seed for the annealing proposal chain (ignored by
        the deterministic methods).
    """

    method: str = "brent"
    grid_step: float = 1e-4
    tolerance: float = 1e-6
    max_evals: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 < self.grid_step <= 1.0:
            raise ValueError("grid_step must lie in (0, 1]")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def resolved_bounds(self) -> tuple[float, float]:
        """Search interval: ``[grid_step, 1]`` for the grid and
        ``[1e-3, 1]`` for the other methods."""
        return (self.grid_step if self.method == "grid" else 1e-3, 1.0)


@dataclass(frozen=True)
class OptimizerReport:
    """Outcome of one minimization run."""

    method: str
    h_hat: float
    delta_min: float
    evaluations: int
    wall_time_s: float
    converged: bool = True


@dataclass(frozen=True)
class EstimationResult:
    """Exponent estimate for one pair of increment samples.

    ``converged`` is false when the minimizer ran out of its
    evaluation budget; ``h_hat`` is then only the best point seen.
    """

    h_hat: float
    delta_min: float
    critical_value: float
    alpha: float
    significant: bool
    n: int
    m: int
    a_max: int
    seed: int
    ci_half_width: float
    converged: bool = True

    def __post_init__(self) -> None:
        if self.significant != (self.delta_min < self.critical_value):
            raise ValueError("significance flag inconsistent with the statistic")


@dataclass
class BenchRow:
    """One benchmark cell: a method applied to one frozen objective.

    ``error`` holds the message of an exception that ended the cell;
    ``converged`` is false when the minimizer ran out of its budget or
    the cell failed.
    """

    method: str
    h_true: float
    rep: int
    h_hat: float
    delta_min: float
    evaluations: int
    wall_time_s: float
    error: str = ""
    converged: bool = True


class _Budget(Exception):
    """Raised internally when the evaluation budget is exhausted."""


class _Tracker:
    """Count evaluations and remember the best point seen.

    Ties in objective value resolve toward the smaller argument, so
    every minimizer inherits one deterministic tie-break rule.

    The values of the run are kept by exponent: a repeated exponent
    still counts as an evaluation, against the budget and in the
    tie-break, but the objective is not called again.  ``prefetch``
    fills these values ahead of a walk over a run of exponents.
    """

    def __init__(self, fn: Callable[[float], float], max_evals: int) -> None:
        self._fn = fn
        self._many = getattr(fn, "many", None)
        self._max = max_evals
        self.values: dict[float, float] = {}
        self.evaluations = 0
        self.best_h = math.nan
        self.best_f = math.inf

    def prefetch(self, hs: Iterable[float]) -> None:
        """Evaluate in one block call the exponents that the next
        calls will ask for, in that order, as far as the budget
        reaches.  Does nothing for an objective without ``many``."""
        if self._many is None:
            return
        ahead = itertools.islice(hs, self._max - self.evaluations)
        todo = [h for h in ahead if h not in self.values]
        if todo:
            self.values.update(zip(todo, self._many(todo).tolist()))

    def __call__(self, h: float) -> float:
        if self.evaluations >= self._max:
            raise _Budget
        self.evaluations += 1
        f = self.values.get(h)
        if f is None:
            f = self.values[h] = self._fn(h)
        if f < self.best_f or (f == self.best_f and h < self.best_h):
            self.best_f = f
            self.best_h = h
        return f


def _run(
    method: str,
    objective: Callable[[float], float],
    config: OptimizerConfig,
    search: Callable[[_Tracker, float, float], None],
) -> OptimizerReport:
    # Run one search over the resolved bounds under the evaluation
    # budget; an exhausted budget ends it early and unconverged.
    t0 = time.perf_counter()
    tracker = _Tracker(objective, config.max_evals)
    converged = True
    try:
        search(tracker, *config.resolved_bounds())
    except _Budget:
        converged = False
    if tracker.evaluations == 0:
        raise ValueError("optimizer made no evaluations")
    return OptimizerReport(
        method=method,
        h_hat=tracker.best_h,
        delta_min=tracker.best_f,
        evaluations=tracker.evaluations,
        wall_time_s=time.perf_counter() - t0,
        converged=converged,
    )


def _cell(k: int, step: float) -> float:
    return min(k * step, 1.0)


def _mesh(step: float, lo: float, hi: float) -> range:
    # Indices k of the mesh cells _cell(k, step), k = 1 ..
    # floor(1 / step), that lie in [lo, hi].
    count = int(math.floor(1.0 / step + 1e-6))
    k_lo = max(1, math.ceil(lo / step - 1e-9))
    while k_lo <= count and _cell(k_lo, step) < lo:
        k_lo += 1
    k_hi = min(count, math.floor(hi / step + 1e-6))
    while k_hi >= k_lo and _cell(k_hi, step) > hi:
        k_hi -= 1
    return range(k_lo, k_hi + 1)


def grid_search(objective: Callable[[float], float], config: OptimizerConfig) -> OptimizerReport:
    """Exhaustive search on the mesh ``{step, 2*step, ..., 1}``.

    The number of evaluations is exactly ``floor(1 / grid_step)``,
    unless the budget runs out first.  Ties go to the smallest
    exponent.
    """

    def search(tracker: _Tracker, lo: float, hi: float) -> None:
        # One cell past the budget, so that a mesh longer than the
        # budget ends unconverged.
        ks = _mesh(config.grid_step, lo, hi)[: config.max_evals + 1]
        cells = [_cell(k, config.grid_step) for k in ks]
        tracker.prefetch(cells)
        for h in cells:
            tracker(h)

    return _run("grid", objective, config, search)


def _brent_core(f: _Tracker, lo: float, hi: float, tol: float) -> float:
    # Golden-section with parabolic acceleration; stops on bracket
    # collapse and returns the least value evaluated, which x always
    # holds.  Budget exhaustion propagates as _Budget.
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = b - a
    while b - a > tol:
        m = 0.5 * (a + b)
        tol1 = 0.5 * tol
        p = q = 0.0
        take_golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e = d
                d = p / q
                take_golden = False
        if take_golden:
            e = (b if x < m else a) - x
            d = _GOLDEN * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        u = min(max(u, a + tol1), b - tol1) if b - a > 2.0 * tol1 else m
        fu = f(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv = w, fw
                w, fw = u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return fx


def _plateau_sweep(tracker: _Tracker, lo: float, hi: float, step: float) -> None:
    # A stepwise objective leaves a local method stranded anywhere
    # inside its minimal plateau, possibly a few mesh cells away from
    # the grid reference even when the attained value matches.  From
    # the mesh cells bracketing the incumbent, walk left while cells
    # match or beat the running minimum and right only on strict
    # improvement, abandoning a direction after _SWEEP_GAP consecutive
    # non-improving cells.  The tracker's smallest-argument tie-break
    # then reports the same point the exhaustive grid would.  On a
    # smooth objective the sweep changes nothing: no mesh cell beats
    # the converged interior point.
    if not math.isfinite(tracker.best_h):
        return
    ks = _mesh(step, lo, hi)
    kf = int(math.floor(tracker.best_h / step))
    anchors = [k for k in (kf, kf + 1) if k in ks] or [min(max(kf, ks[0]), ks[-1])]
    f0, k0 = min((tracker(_cell(k, step)), k) for k in anchors)
    for way, keeps in ((-1, operator.le), (1, operator.lt)):
        cur, gap, k = f0, 0, k0 + way
        while k in ks and gap <= _SWEEP_GAP:
            h = _cell(k, step)
            if h not in tracker.values:
                # However the values turn out, the walk visits at least
                # these next cells, so none of them is computed in vain.
                last = min(max(k + way * (_SWEEP_GAP - gap), ks[0]), ks[-1])
                tracker.prefetch(_cell(j, step) for j in range(k, last + way, way))
            fk = tracker(h)
            if keeps(fk, cur):
                cur, gap = fk, 0
            else:
                gap += 1
            k += way


def _scan_then_refine(
    core: Callable[[_Tracker, float, float, float], float],
    method: str,
    objective: Callable[[float], float],
    config: OptimizerConfig,
) -> OptimizerReport:

    def search(tracker: _Tracker, lo: float, hi: float) -> None:
        mesh = np.linspace(lo, hi, _SCAN_POINTS)
        values = [tracker(float(h)) for h in mesh]
        scan_j = int(np.argmin(values))
        local_f = core(tracker, lo, hi, config.tolerance)
        if not (local_f < values[scan_j] - config.tolerance):
            # The local run did not clearly beat the coarse scan, so
            # the scan's basin is at least as good: refine inside its
            # bracket so the returned point is at full resolution.
            lo2 = float(mesh[max(scan_j - 1, 0)])
            hi2 = float(mesh[min(scan_j + 1, mesh.size - 1)])
            if hi2 > lo2:
                core(tracker, lo2, hi2, config.tolerance)
        _plateau_sweep(tracker, lo, hi, config.grid_step)

    return _run(method, objective, config, search)


def brent_min(objective: Callable[[float], float], config: OptimizerConfig) -> OptimizerReport:
    """Brent minimization (golden section + parabolic interpolation).

    A coarse scan of the bounds comes first; the local run restarts
    inside the scan's best bracket unless it beat the scan by more
    than ``tolerance``, and a plateau sweep of the ``grid_step`` mesh
    around the incumbent finishes.  Terminates when the bracket is
    narrower than ``tolerance`` or the budget runs out; the returned
    point is the best one evaluated.
    """
    return _scan_then_refine(_brent_core, "brent", objective, config)


def _nelder_mead_core(f: _Tracker, lo: float, hi: float, tol: float) -> float:
    # One-dimensional simplex with the standard coefficients
    # (reflection 1, expansion 2, contraction 0.5, shrink 0.5);
    # proposals are clamped to the bounds.  Every step keeps the
    # lesser of the values it drops and keeps, so the simplex ends
    # holding the least value evaluated, which it returns.
    third = (hi - lo) / 3.0
    s = [lo + third, hi - third]
    fs = [f(s[0]), f(s[1])]
    while abs(s[0] - s[1]) > tol:
        if fs[1] < fs[0] or (fs[1] == fs[0] and s[1] < s[0]):
            s.reverse()
            fs.reverse()
        best, worst = s
        xr = min(max(best + (best - worst), lo), hi)
        fr = f(xr)
        if fr < fs[0]:
            xe = min(max(best + 2.0 * (best - worst), lo), hi)
            fe = f(xe)
            if fe < fr:
                s[1], fs[1] = xe, fe
            else:
                s[1], fs[1] = xr, fr
        elif fr < fs[1]:
            xc = best + 0.5 * (xr - best)
            fc = f(xc)
            if fc <= fr:
                s[1], fs[1] = xc, fc
            else:
                s[1], fs[1] = xr, fr
        else:
            xc = best + 0.5 * (worst - best)
            fc = f(xc)
            if fc < fs[1]:
                s[1], fs[1] = xc, fc
            else:
                # Shrink toward the best vertex.
                s[1] = best + 0.5 * (worst - best)
                fs[1] = f(s[1])
    return min(fs)


def nelder_mead(objective: Callable[[float], float], config: OptimizerConfig) -> OptimizerReport:
    """One-dimensional Nelder-Mead (two-point simplex) on the bounds.

    Same termination, budget, safeguard and tie-break conventions as
    :func:`brent_min`.
    """
    return _scan_then_refine(_nelder_mead_core, "nelder_mead", objective, config)


def simulated_annealing(
    objective: Callable[[float], float], config: OptimizerConfig
) -> OptimizerReport:
    """Metropolis annealing with a geometric cooling schedule.

    Starts at the midpoint of the bounds with temperature 0.1 cooled
    by a factor 0.95 per step; proposals are Gaussian with standard
    deviation proportional to the temperature, clamped to the bounds.
    The chain spends half of ``max_evals``; the remaining budget pays
    for the plateau sweep that settles the final point on the
    ``grid_step`` mesh.  Returns the best point seen; the whole run is
    a pure function of ``seed``.
    """

    def search(tracker: _Tracker, lo: float, hi: float) -> None:
        rng = np.random.default_rng(config.seed)
        x = 0.5 * (lo + hi)
        fx = tracker(x)
        temp = 0.1
        for _ in range(max(config.max_evals // 2 - 1, 0)):
            u = min(max(x + temp * rng.standard_normal(), lo), hi)
            fu = tracker(u)
            if fu <= fx or rng.random() < math.exp(-(fu - fx) / temp):
                x, fx = u, fu
            temp = max(temp * 0.95, 1e-300)
        _plateau_sweep(tracker, lo, hi, config.grid_step)

    return _run("simulated_annealing", objective, config, search)


_DISPATCH = {
    "grid": grid_search,
    "brent": brent_min,
    "nelder_mead": nelder_mead,
    "simulated_annealing": simulated_annealing,
}


def minimize_scalar(
    objective: Callable[[float], float], config: OptimizerConfig
) -> OptimizerReport:
    """Run the minimizer selected by ``config.method``."""
    return _DISPATCH[config.method](objective, config)


def _permute(sample, plan: PermutationPlan):
    if plan.scheme == "block":
        return block_permute(sample, plan)
    return uniform_sample_permute(sample, plan)


def _frozen_objective(
    pair: RescaledPair, plan: PermutationPlan
) -> tuple[Callable[[float], float], int, int]:
    # Decorrelate both samples once, with independent streams derived
    # from the plan's seed, and freeze the objective on the result.
    # Returns the objective and the sizes n, m.
    sub = np.random.SeedSequence(plan.seed).generate_state(2)
    fine = _permute(pair.fine, replace(plan, seed=int(sub[0])))
    coarse = _permute(pair.coarse, replace(plan, seed=int(sub[1])))
    frozen = scaled_diameter_fn(RescaledPair(fine=fine, coarse=coarse, a_max=pair.a_max))
    return frozen, len(fine), len(coarse)


def estimate_hurst(
    pair: RescaledPair,
    plan: PermutationPlan,
    config: OptimizerConfig,
    alpha: float = 0.05,
) -> EstimationResult:
    """Estimate the scaling exponent from one pair of increment samples.

    Both samples are decorrelated once, with independent streams
    derived from the plan's seed; the resulting objective is frozen
    and handed to the configured minimizer, so repeated calls with
    equal inputs return identical results.  The fitted minimum is
    compared against the two-sample KS threshold: a minimum below the
    threshold means the best-fitting exponent is statistically
    acceptable at level ``alpha``.

    Parameters
    ----------
    pair : RescaledPair
        Fine and coarse increments of the path under study.
    plan : PermutationPlan
        Decorrelation scheme; under ``uniform_sample`` with
        ``subsample_size`` T both samples end up with T values.
    config : OptimizerConfig
        Minimizer choice and settings.
    alpha : float, optional
        Significance level for the threshold and the confidence
        interval.

    Returns
    -------
    EstimationResult
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    frozen, n, m = _frozen_objective(pair, plan)
    report = minimize_scalar(frozen, config)
    critical = ks_critical(n, m, alpha)
    sd = estimator_sd(VarianceInputs(a_max=pair.a_max, n=n, m=m))
    return EstimationResult(
        h_hat=report.h_hat,
        delta_min=report.delta_min,
        critical_value=critical,
        alpha=alpha,
        significant=report.delta_min < critical,
        n=n,
        m=m,
        a_max=pair.a_max,
        seed=plan.seed,
        ci_half_width=normal_quantile(1.0 - alpha / 2.0) * sd,
        converged=report.converged,
    )


def bench_optimizers(
    h_values: Sequence[float],
    reps: int,
    configs: Sequence[OptimizerConfig],
    *,
    length: int = 4097,
    a_max: int = 50,
    subsample: int = 500,
    base_seed: int = 0,
) -> list[BenchRow]:
    """Benchmark minimizers on freshly simulated paths.

    For every ``(h, rep)`` cell one path is simulated, its increment
    pair is decorrelated once, and all configured methods minimize the
    same frozen objective, so rows are directly comparable.  A failing
    cell is recorded with NaN results and the error message; the run
    continues.

    Returns
    -------
    list of BenchRow
        Sorted by ``(h_true, method)``.
    """
    if reps < 1:
        raise ValueError("reps must be positive")
    if base_seed < 0:
        raise ValueError("base_seed must be non-negative")
    rows: list[BenchRow] = []
    for hi, h_true in enumerate(h_values):
        for rep in range(reps):
            seeds = np.random.SeedSequence(base_seed, spawn_key=(hi, rep)).generate_state(2)
            path = simulate_fbm(FgnSpec(hurst=h_true, length=length, seed=int(seeds[0])))
            pair = RescaledPair(
                fine=increments(path, 1), coarse=increments(path, a_max), a_max=a_max
            )
            plan = PermutationPlan(
                scheme="uniform_sample", subsample_size=subsample, seed=int(seeds[1])
            )
            frozen, _, _ = _frozen_objective(pair, plan)
            for config in configs:
                try:
                    result = asdict(minimize_scalar(frozen, config))
                except Exception as exc:  # noqa: BLE001 - record and move on
                    result = dict(
                        method=config.method, h_hat=math.nan, delta_min=math.nan,
                        evaluations=0, wall_time_s=0.0, error=str(exc), converged=False,
                    )
                rows.append(BenchRow(h_true=float(h_true), rep=rep, **result))
    rows.sort(key=lambda r: (r.h_true, r.method, r.rep))
    return rows


def write_bench_csv(rows: Sequence[BenchRow], fh) -> None:
    """Write benchmark rows as CSV (method, h_true, rep, h_hat,
    delta_min, evaluations, wall_time_s, error, converged) to a text
    file opened with ``newline=""``; ``error`` is empty for a cell that
    ran and holds the failure message otherwise, ``converged`` is
    ``True`` or ``False``."""
    import csv

    writer = csv.writer(fh)
    writer.writerow([f.name for f in fields(BenchRow)])
    for r in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in astuple(r)])
