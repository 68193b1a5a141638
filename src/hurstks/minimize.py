"""Scalar minimizers for the rescaled-increment objective.

The empirical objective is piecewise constant in the exponent, so
every minimizer here reports the best value actually evaluated rather
than trusting its own convergence point, counts objective calls, and
breaks ties toward the smallest exponent.  A grid search is the
reference; Brent and a one-dimensional Nelder-Mead are the cheaper
alternatives benchmarked against it.  Simulated annealing, benchmarked
too, runs a Metropolis chain until it is colder than the local methods'
stopping bracket.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from hurstks.fgn import FgnSpec, simulate_fbm, increments
from hurstks.ksdist import RescaledPair, ks_critical, scaled_diameter_fn
from hurstks.permute import PermutationPlan, block_permute, uniform_sample_permute
# Unused here, but perfbench's tracer requires the name in this module.
from hurstks.stats import estimator_sd  # noqa: F401

__all__ = [
    "OptimizerConfig",
    "OptimizerReport",
    "EstimationResult",
    "BenchRow",
    "METHODS",
    "minimize_scalar",
    "estimate_hurst",
    "bench_optimizers",
    "write_bench_csv",
]

# Inverse golden ratio squared; fraction kept by a golden-section step.
_GOLDEN = 0.3819660112501051

# Lower end of the interval [_LOCAL_LO, 1] that Brent, Nelder-Mead and
# annealing search; the grid searches its whole mesh instead.
_LOCAL_LO = 1e-3

# The empirical objective is a step function, so a local method can
# stop anywhere inside a flat minimal plateau.  The plateau sweep walks
# the grid mesh outward from the incumbent and gives up a direction
# after this many consecutive non-improving cells.
_SWEEP_GAP = 150

# Number of sweep cells nearest the walk's front that are evaluated,
# in one call to the tracker's ``many``, when the objective's bound
# fails to rule out the whole look-ahead; also the longest run of mesh
# cells that the grid evaluates rather than halves.
_SWEEP_LEAF = 16

# Brent and Nelder-Mead first evaluate this many evenly spaced points
# and restart inside the best one's bracket unless their own run
# clearly beats it: on a stepwise objective a local method alone can
# settle in a poor basin.
_SCAN_POINTS = 50

# Bracket width in H at which Brent and Nelder-Mead stop, and the
# temperature below which the annealing chain stops.
_BRACKET = 1e-6

# KS margin to skip the restart; absorbs float noise between equal values.
_SCAN_MARGIN = 1e-6


@dataclass(frozen=True)
class OptimizerConfig:
    """Settings shared by all minimizers.

    Parameters
    ----------
    method : str
        One of :data:`METHODS`.
    grid_step : float, optional
        Mesh of the grid search and of the plateau sweep that ends the
        others; it sets their resolution (local runs stop at a 1e-6 bracket).
        In (0, 1], with at most ``sys.maxsize`` mesh cells.
    max_evals : int, optional
        Hard budget of objective evaluations.  The annealing chain runs
        for at most half of it and leaves the rest to its plateau sweep.
    """

    method: str = "brent"
    grid_step: float = 1e-4
    max_evals: int = 10_000

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0.0 < self.grid_step <= 1.0:
            raise ValueError("grid_step must lie in (0, 1]")
        # _mesh counts floor(1 / grid_step + 1e-6) cells, which must be a
        # finite index, at most sys.maxsize.
        if not 1.0 / self.grid_step + 1e-6 < sys.maxsize + 1:
            raise ValueError(f"grid_step {self.grid_step!r} gives more than sys.maxsize mesh cells")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")


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

    Ties in objective value resolve toward the smaller argument, and a
    NaN value never counts, so every minimizer inherits one rule.

    Every evaluation calls the objective, a repeated exponent too,
    except those ``skip`` counts.  ``many`` records a run of exponents
    at once, exactly as one call per exponent would, and ``least`` does
    the same for a run of which only the least value is wanted; the
    objective's own ``least`` may give ``+inf`` for the rest, and the
    tracker alone picks the run's least pair, by the rule above.
    ``bound`` is the objective's own, or one that rules out nothing.
    """

    def __init__(self, fn: Callable[[float], float], max_evals: int) -> None:
        self._fn = fn
        self._many = getattr(fn, "many", None)
        self._least = getattr(fn, "least", None)
        self.bound = getattr(fn, "bound", lambda lo, hi: -math.inf)
        self._max = max_evals
        self.evaluations = 0
        self.best_h = math.nan
        self.best_f = math.inf

    def _offer(self, f: float, h: float) -> None:
        # The best point is the least (value, exponent) pair, so ties
        # go to the smaller exponent; a NaN value never compares less.
        if (f, h) < (self.best_f, self.best_h):
            self.best_f, self.best_h = f, h

    def skip(self, count: int) -> None:
        """Count ``count`` evaluations whose values the caller holds, or
        a bound shows can change neither the best point nor its walk.
        The budget runs out where ``count`` calls one by one would."""
        if self.evaluations + count > self._max:
            self.evaluations = self._max
            raise _Budget
        self.evaluations += count

    def __call__(self, h: float) -> float:
        self.skip(1)
        f = self._fn(h)
        self._offer(f, h)
        return f

    def _record(self, run, hs: Sequence[float]) -> tuple[list[float], int]:
        # The route of many and least.  Records one call per exponent of
        # hs, all made by run (the objective's own many or least) unless
        # it is None, and returns the values and the index of the run's
        # least pair, offered as one offer per cell would find it: of the
        # cells with the least non-NaN value, the smallest exponent, the
        # first if repeated; 0 if every value is NaN.
        fit = hs[: self._max - self.evaluations]
        fs = run(fit).tolist() if run else [self._fn(h) for h in fit]
        self.evaluations += len(fit)
        cells = [(f, h, j) for j, (f, h) in enumerate(zip(fs, fit)) if f == f]
        j = 0
        if cells:
            f, h, j = min(cells)
            self._offer(f, h)
        if len(fit) < len(hs):
            raise _Budget
        return fs, j

    def many(self, hs: Sequence[float]) -> list[float]:
        """Record one call per exponent of ``hs`` and return the values,
        all of them from one call to the objective's own ``many`` if it
        has one.  A run longer than the budget left is recorded as far
        as the budget reaches, and then the budget runs out."""
        return self._record(self._many, hs)[0]

    def least(self, hs: Sequence[float]) -> tuple[float, int]:
        """Record ``hs`` as ``many`` does and return the least value and
        the index of the least (value, exponent) pair, from the
        objective's own ``least`` if it has one."""
        fs, j = self._record(self._least, hs)
        return fs[j], j


def _cell(k: int, step: float) -> float:
    return min(k * step, 1.0)


def _mesh(step: float, lo: float = 0.0) -> range:
    # Indices k of the mesh cells _cell(k, step), k = 1 ..
    # floor(1 / step), that are at least lo.
    count = int(math.floor(1.0 / step + 1e-6))
    k_lo = max(1, math.ceil(lo / step - 1e-9))
    while k_lo <= count and _cell(k_lo, step) < lo:
        k_lo += 1
    return range(k_lo, count + 1)


def _grid(tracker: _Tracker, config: OptimizerConfig) -> None:
    # Best-first branch and bound over runs [lo, hi) of mesh indices,
    # least (bound, lo) first.  The objective's bound is at most its
    # value at every cell of a run, so a run whose (bound, first cell)
    # is not below the best (value, exponent) pair can neither beat the
    # best nor tie it further left: its cells are counted, not
    # evaluated.  A NaN bound compares false and rules out nothing.  A
    # run of at most _SWEEP_LEAF cells is evaluated, a longer one
    # halved, so the best pair ends as the mesh's least, as one call per
    # cell would find it.  Without a bound of its own every run reads
    # -inf, and the cells are called in mesh order.
    step, mesh = config.grid_step, _mesh(config.grid_step)
    ks = mesh[: config.max_evals]
    # Nothing can be ruled out before the first leaf: no bound for the mesh.
    heap = [(-math.inf, ks.start, ks.stop)]

    def push(lo: int, hi: int) -> None:
        heapq.heappush(heap, (tracker.bound(_cell(lo, step), _cell(hi - 1, step)), lo, hi))

    while heap:
        bound, lo, hi = heapq.heappop(heap)
        if (bound, _cell(lo, step)) >= (tracker.best_f, tracker.best_h):
            tracker.skip(hi - lo)
        elif hi - lo <= _SWEEP_LEAF:
            tracker.many([_cell(k, step) for k in range(lo, hi)])
        else:
            push(lo, (lo + hi) // 2)
            push((lo + hi) // 2, hi)
    # A mesh longer than the budget ends unconverged.
    if len(mesh) > len(ks):
        tracker.skip(1)


def _brent_core(f: _Tracker, lo: float, hi: float) -> None:
    # Golden-section with parabolic acceleration; stops on bracket
    # collapse.  Budget exhaustion propagates as _Budget.
    a, b = lo, hi
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    d = e = b - a
    tol1 = 0.5 * _BRACKET
    while b - a > _BRACKET:
        m = 0.5 * (a + b)
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


def _plateau_sweep(tracker: _Tracker, step: float) -> None:
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
    #
    # However the values turn out, the walk visits every cell of the
    # look-ahead: the next cell and the _SWEEP_GAP - gap cells beyond
    # it, within the mesh.  So that whole run is bounded at once.  A
    # look-ahead whose bound fails the direction's keep rule is passed
    # over as that many non-improving cells: none of them can be kept,
    # and none can become the tracker's best, since the running
    # minimum is never below the best value, and a right-walk cell
    # that ties it lies right of the best point (the anchors bracket
    # the incumbent).  A NaN bound compares false and rules out
    # nothing.  Otherwise its nearest _SWEEP_LEAF cells are evaluated
    # in one tracker call, and the next look-ahead starts after them.
    if not math.isfinite(tracker.best_h):
        return
    ks = _mesh(step, _LOCAL_LO)
    kf = int(math.floor(tracker.best_h / step))
    anchors = [k for k in (kf, kf + 1) if k in ks] or [min(max(kf, ks[0]), ks[-1])]
    f0, k0 = min((tracker(_cell(k, step)), k) for k in anchors)
    for way, keeps, beyond in ((-1, operator.le, operator.gt), (1, operator.lt, operator.ge)):
        cur, gap, k = f0, 0, k0 + way
        while k in ks and gap <= _SWEEP_GAP:
            last = min(max(k + way * (_SWEEP_GAP - gap), ks[0]), ks[-1])
            ahead = range(k, last + way, way)
            if beyond(tracker.bound(_cell(k, step), _cell(last, step)), cur):
                tracker.skip(len(ahead))
                gap, k = gap + len(ahead), ahead.stop
                continue
            leaf = ahead[:_SWEEP_LEAF]
            for fk in tracker.many([_cell(k, step) for k in leaf]):
                if keeps(fk, cur):
                    cur, gap = fk, 0
                else:
                    gap += 1
            k = leaf.stop


def _scan_then_refine(
    core: Callable[[_Tracker, float, float], None],
    tracker: _Tracker,
    config: OptimizerConfig,
) -> None:
    mesh = np.linspace(_LOCAL_LO, 1.0, _SCAN_POINTS).tolist()
    scan_f, scan_j = tracker.least(mesh)
    core(tracker, _LOCAL_LO, 1.0)
    if not (tracker.best_f < scan_f - _SCAN_MARGIN):
        # The tracker's best, the least value of the scan and the local
        # run, is not clearly below the scan's: the scan's basin is at
        # least as good, so refine inside its bracket so the returned
        # point is at full resolution.
        lo = mesh[max(scan_j - 1, 0)]
        hi = mesh[min(scan_j + 1, len(mesh) - 1)]
        if hi > lo:
            core(tracker, lo, hi)
    _plateau_sweep(tracker, config.grid_step)


def _nelder_mead_core(f: _Tracker, lo: float, hi: float) -> None:
    # One-dimensional simplex with the standard coefficients
    # (reflection 1, expansion 2, contraction 0.5, shrink 0.5);
    # proposals are clamped to the bounds.
    third = (hi - lo) / 3.0
    s = [lo + third, hi - third]
    fs = [f(s[0]), f(s[1])]
    while abs(s[0] - s[1]) > _BRACKET:
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


def _annealing(tracker: _Tracker, config: OptimizerConfig) -> None:
    # The chain stops once it is colder than _BRACKET, where the local
    # methods stop too: on 630 frozen objectives at 500 x 500 and
    # 1491 x 1491, colder steps moved no estimate.
    rng = np.random.default_rng(0)
    x = 0.5 * (_LOCAL_LO + 1.0)
    fx = tracker(x)
    temp = 0.1
    for _ in range(max(config.max_evals // 2 - 1, 0)):
        if temp < _BRACKET:
            break
        u = min(max(x + temp * rng.standard_normal(), _LOCAL_LO), 1.0)
        fu = tracker(u)
        if fu <= fx or rng.random() < math.exp(-(fu - fx) / temp):
            x, fx = u, fu
        temp *= 0.95
    _plateau_sweep(tracker, config.grid_step)


# Each search runs under the tracker's budget; a run out of budget
# ends it with _Budget.
_SEARCHES = {
    "grid": _grid,
    "brent": functools.partial(_scan_then_refine, _brent_core),
    "nelder_mead": functools.partial(_scan_then_refine, _nelder_mead_core),
    "simulated_annealing": _annealing,
}

METHODS = tuple(_SEARCHES)


def minimize_scalar(
    objective: Callable[[float], float], config: OptimizerConfig
) -> OptimizerReport:
    """Minimize ``objective`` with the search that ``config.method``
    names, over the mesh for the grid and over ``[1e-3, 1]`` for the
    other methods.

    Every search reports the best point it evaluated, with ties going
    to the smallest exponent.  A search cut off by ``max_evals``
    returns that point with ``converged`` off.

    ``"grid"``
        The least point of the mesh ``{step, 2*step, ..., 1}``, found
        by best-first branch and bound over runs of mesh cells.  A run
        whose ``bound`` (see :func:`~hurstks.ksdist.scaled_diameter_fn`)
        shows it holds no better point is passed over, a run of at most
        16 cells is evaluated in one ``many`` call, and a longer one is
        halved.  Its report is the exhaustive search's, bit for bit,
        but for the wall time, and every cell counts: the number of
        evaluations is exactly
        ``floor(1 / grid_step)``, unless the budget runs out first, in
        which case only the first ``max_evals`` cells are searched.  An
        objective without ``bound`` is called at every cell, in mesh
        order.
    ``"brent"``
        Golden section with parabolic interpolation.
    ``"nelder_mead"``
        One-dimensional Nelder-Mead (two-point simplex), proposals
        clamped to the interval.

        Both local methods first scan 50 evenly spaced points of the
        interval.  Only the scan's least value and its exponent are
        used, so an objective with a ``least`` method (see
        :func:`~hurstks.ksdist.scaled_diameter_fn`) decides the scan
        in one call that ranks in full only the points that can hold
        it; the scan still counts 50 evaluations.  The local run
        restarts inside the scan's best bracket
        unless it beat the scan by more than 1e-6, and a plateau sweep
        of the ``grid_step`` mesh around the incumbent finishes.  A
        local run stops when its bracket is narrower than 1e-6.  Every
        cell the sweep decides counts as an evaluation, also one that
        the objective's ``bound`` (see
        :func:`~hurstks.ksdist.scaled_diameter_fn`) rules out without
        computing it.
    ``"simulated_annealing"``
        Metropolis annealing with a geometric cooling schedule.  It
        starts at the midpoint of the interval with temperature 0.1,
        cooled by a factor 0.95 per step; proposals are Gaussian with
        standard deviation proportional to the temperature, clamped to
        the interval.  The chain stops once its temperature falls below
        1e-6, the local methods' bracket, after 225 proposals, or
        earlier when it has spent half of ``max_evals``; the plateau
        sweep then settles the final point on the ``grid_step`` mesh.
        Proposals come from ``default_rng(0)``, so, as for every
        search, the report depends only on ``objective`` and
        ``config``.
    """
    t0 = time.perf_counter()
    tracker = _Tracker(objective, config.max_evals)
    converged = True
    try:
        _SEARCHES[config.method](tracker, config)
    except _Budget:
        converged = False
    if tracker.evaluations == 0:
        raise ValueError("optimizer made no evaluations")
    return OptimizerReport(
        method=config.method,
        h_hat=tracker.best_h,
        delta_min=tracker.best_f,
        evaluations=tracker.evaluations,
        wall_time_s=time.perf_counter() - t0,
        converged=converged,
    )


def _permute(sample, plan: PermutationPlan):
    if plan.scheme == "block":
        return block_permute(sample, plan)
    return uniform_sample_permute(sample, plan)


def _frozen_objective(
    pair: RescaledPair, plan: PermutationPlan
) -> tuple[Callable[[float], float], int, int]:
    # Apply the plan to both samples once, with independent streams
    # derived from the plan's seed, and freeze the objective on the
    # result.  The objective sorts both samples, so the permutation
    # order changes no value: only the subsample drawn does.  Returns
    # the objective and the sizes n, m.
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

    The plan is applied to both samples once, with independent streams
    derived from the plan's seed; the resulting objective is frozen
    and handed to the configured minimizer, so repeated calls with
    equal inputs return identical results.  The objective sorts both
    samples, so permuting a whole sample changes no KS value: only the
    choice of subsample moves the estimate.  The fitted minimum is
    compared against the two-sample KS threshold: a minimum below the
    threshold means the best-fitting exponent is statistically
    acceptable at level ``alpha``.

    Parameters
    ----------
    pair : RescaledPair
        Fine and coarse increments of the path under study.
    plan : PermutationPlan
        Decorrelation scheme; under ``uniform_sample`` with
        ``subsample_size`` T both samples end up with T values.  Under
        ``block`` every value is kept, and since the objective sorts
        both samples the result equals that of ``uniform_sample``
        without a subsample, whatever the block length and seed.
    config : OptimizerConfig
        Minimizer choice and settings.
    alpha : float, optional
        Significance level for the threshold.

    Returns
    -------
    EstimationResult
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    frozen, n, m = _frozen_objective(pair, plan)
    report = minimize_scalar(frozen, config)
    critical = ks_critical(n, m, alpha)
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
    same frozen objective, so rows are directly comparable.  A
    minimizer that fails is recorded as a row with NaN results and the
    error message, and the run continues; an error simulating a path
    or freezing its objective propagates.

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
            plan = PermutationPlan(subsample_size=subsample, seed=int(seeds[1]))
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
