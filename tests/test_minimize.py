"""Tests for the scalar minimisers, the estimation driver, and the
optimizer benchmark harness."""

import csv
import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurstks.fgn import FgnSpec, IncrementSample, increments, simulate_fbm
from hurstks.ksdist import RescaledPair, gaussian_diameter, ks_critical, scaled_diameter_fn
from hurstks.minimize import (
    METHODS,
    BenchRow,
    EstimationResult,
    OptimizerConfig,
    OptimizerReport,
    bench_optimizers,
    estimate_hurst,
    minimize_scalar,
    write_bench_csv,
)
from hurstks import minimize
from hurstks.minimize import _cell, _frozen_objective, _mesh
from hurstks.permute import PermutationPlan
from hurstks.stats import estimator_sd


def quad(h):
    return (h - 0.5) ** 2


class TestConfig:
    def test_method_whitelist(self):
        assert set(METHODS) == {"grid", "brent", "nelder_mead", "simulated_annealing"}
        with pytest.raises(ValueError):
            OptimizerConfig(method="newton")

    @pytest.mark.parametrize("kwargs", [
        {"grid_step": 0.0},
        {"grid_step": 1.5},
        {"max_evals": 0},
        # floor(1 / step) cells would not fit a range's length, or
        # 1 / step is infinite.
        {"grid_step": 1e-20},
        {"grid_step": 2.0**-63},
        {"grid_step": 5e-324},
    ])
    def test_field_validation(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_mesh_that_fits_an_index_runs_out_of_budget(self):
        # Meshes of 2**62 and 10**18 cells fit an index: the grid
        # searches the first max_evals cells and ends unconverged.
        assert OptimizerConfig(grid_step=2.0**-62).grid_step == 2.0**-62
        config = OptimizerConfig(method="grid", grid_step=1e-18, max_evals=100)
        r = minimize_scalar(lambda h: -h, config)
        assert (r.evaluations, r.converged, r.h_hat) == (100, False, _cell(100, 1e-18))


class TestGridSearch:
    def test_finds_lattice_minimum(self):
        cfg = OptimizerConfig(method="grid", grid_step=1e-2)
        r = minimize_scalar(lambda h: (h - 0.37) ** 2, cfg)
        assert r.h_hat == pytest.approx(0.37, abs=1e-12)
        assert r.method == "grid"
        assert r.converged

    def test_rounds_to_nearest_lattice_point(self):
        cfg = OptimizerConfig(method="grid", grid_step=1e-1)
        r = minimize_scalar(lambda h: (h - 0.375) ** 2, cfg)
        assert r.h_hat == pytest.approx(0.4, abs=1e-12)

    def test_constant_objective_takes_smallest_point(self):
        r = minimize_scalar(lambda h: 1.0, OptimizerConfig(method="grid", grid_step=1e-2))
        assert r.h_hat == pytest.approx(1e-2, abs=1e-15)

    def test_evaluation_count_matches_lattice(self):
        r = minimize_scalar(quad, OptimizerConfig(method="grid", grid_step=1e-4))
        assert r.evaluations == 10_000

    def test_respects_bounds(self):
        # The mesh starts at grid_step and ends at 1.
        cfg = OptimizerConfig(method="grid", grid_step=1e-2)
        low = minimize_scalar(lambda h: (h + 1.0) ** 2, cfg)
        high = minimize_scalar(lambda h: (h - 2.0) ** 2, cfg)
        assert (low.h_hat, high.h_hat) == (1e-2, 1.0)
        assert low.method == high.method == cfg.method

    def test_mesh_is_an_index_range(self):
        # Cells min(k * step, 1), k = 1 .. floor(1 / step), from the
        # lower end on; the last one is 1 also when 1 / step falls just
        # short of an integer.
        assert _mesh(1e-4) == range(1, 10_001)
        assert _mesh(1e-4, 1e-3) == range(10, 10_001)
        assert _mesh(0.07, 1e-3) == range(1, 15)
        assert _mesh(1 / (10 - 5e-7), 1e-3) == range(1, 11)

    def test_nan_values_never_win(self):
        # A NaN value is never the best point, also where it leads the run.
        def nan_low(h):
            return math.nan if h < 0.3 else quad(h)

        r = minimize_scalar(nan_low, OptimizerConfig(method="grid", grid_step=1e-2))
        assert (r.h_hat, r.delta_min) == (0.5, 0.0)

    def test_builds_no_cells_past_the_budget(self):
        # A mesh of 10**6 cells under a budget of 10: the grid may hold
        # no more cells than it can evaluate.
        tracemalloc.start()
        try:
            r = minimize_scalar(quad, OptimizerConfig(method="grid", grid_step=1e-6, max_evals=10))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (r.evaluations, r.converged) == (10, False)
        assert r.h_hat == 10 * 1e-6
        assert peak < 1 << 20

    def test_delta_min_is_objective_at_h_hat(self):
        r = minimize_scalar(quad, OptimizerConfig(method="grid", grid_step=1e-3))
        assert r.delta_min == quad(r.h_hat)

    @pytest.mark.parametrize("budget", [1, 50, 10_000])
    def test_plain_callable_is_called_in_mesh_order(self, budget):
        # With no bound to rank runs by, the search calls every cell
        # once, in mesh order, smallest first.
        calls = []

        def plain(h):
            calls.append(h)
            return quad(h)

        minimize_scalar(plain, OptimizerConfig(method="grid", grid_step=1e-3, max_evals=budget))
        assert calls == [_cell(k, 1e-3) for k in _mesh(1e-3)[:budget]]

    def test_tie_left_of_an_earlier_find_still_wins(self):
        # Zero on the cells 30 .. 70 of the 1/100 mesh and one elsewhere,
        # with a bound that is exact on the left half of the mesh and one
        # too low on the right half.  The search finds a zero right of
        # 0.5 first; a left run whose bound only ties that value may
        # still hold a zero further left, so it is not passed over.
        class Plateau:
            def __call__(self, h):
                return 0.0 if 0.295 < h < 0.705 else 1.0

            def bound(self, h_first, h_last):
                touches = h_first < 0.705 and h_last > 0.295
                return (0.0 if touches else 1.0) - (h_last > 0.5)

        config = OptimizerConfig(method="grid", grid_step=1e-2)
        got = minimize_scalar(Plateau(), config)
        assert (got.h_hat, got.delta_min) == (_cell(30, 1e-2), 0.0)
        want = minimize_scalar(lambda h: Plateau()(h), config)
        assert replace(got, wall_time_s=0.0) == replace(want, wall_time_s=0.0)

    @pytest.mark.parametrize("offset", [math.inf, math.nan], ids=["-inf", "nan"])
    def test_bound_that_rules_out_nothing_walks_the_whole_mesh(self, offset):
        # A bound of -inf or NaN passes over no run, so every cell is
        # computed, in leaves, and the report is the per-cell walk's.
        frozen = _golden_objective(0.5)
        counted = _CountingObjective(_WeakBound(frozen, [offset]))
        config = OptimizerConfig(method="grid", grid_step=1e-3)
        got = minimize_scalar(counted, config)
        want = minimize_scalar(lambda h: frozen(h), config)
        assert counted.rows == 1000
        assert max(counted.many_runs) <= minimize._SWEEP_LEAF
        assert replace(got, wall_time_s=0.0) == replace(want, wall_time_s=0.0)

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_decides_the_mesh_from_few_passes(self, hurst):
        # The golden record's objectives: all 10**4 cells are counted,
        # from 20 bound passes and one leaf of 10 computed cells each.
        counted = _CountingObjective(_golden_objective(hurst))
        report = minimize_scalar(counted, OptimizerConfig(method="grid"))
        assert (report.evaluations, report.converged) == (10_000, True)
        assert counted.bounds <= 30
        assert sum(counted.many_runs) <= 2 * minimize._SWEEP_LEAF


class TestBrent:
    def test_quadratic_interior_minimum(self):
        r = minimize_scalar(quad, OptimizerConfig(method="brent"))
        assert abs(r.h_hat - 0.5) < 1e-5
        assert r.converged

    def test_quadratic_with_prescan(self):
        # The 50-point scan always runs before the local search.
        r = minimize_scalar(quad, OptimizerConfig(method="brent"))
        assert abs(r.h_hat - 0.5) < 1e-5
        assert r.evaluations > 50

    def test_nonsmooth_vee(self):
        r = minimize_scalar(lambda h: abs(h - 0.3), OptimizerConfig(method="brent"))
        assert abs(r.h_hat - 0.3) < 1e-5

    def test_budget_exhaustion_reports_unconverged(self):
        r = minimize_scalar(quad, OptimizerConfig(method="brent", max_evals=3))
        assert not r.converged
        assert r.evaluations == 3
        assert r.delta_min == quad(r.h_hat)

    def test_respects_bounds(self):
        # Minima beyond either end land on the end of [1e-3, 1].
        cfg = OptimizerConfig(method="brent")
        low = minimize_scalar(lambda h: (h + 1.0) ** 2, cfg)
        high = minimize_scalar(lambda h: (h - 2.0) ** 2, cfg)
        assert (low.h_hat, high.h_hat) == (1e-3, 1.0)
        assert low.method == high.method == cfg.method


class TestNelderMead:
    def test_quadratic_interior_minimum(self):
        r = minimize_scalar(quad, OptimizerConfig(method="nelder_mead"))
        assert abs(r.h_hat - 0.5) < 1e-4
        assert r.converged

    def test_quadratic_with_prescan(self):
        r = minimize_scalar(quad, OptimizerConfig(method="nelder_mead"))
        assert abs(r.h_hat - 0.5) < 1e-4
        assert r.evaluations > 50

    def test_nonsmooth_vee(self):
        r = minimize_scalar(lambda h: abs(h - 0.3), OptimizerConfig(method="nelder_mead"))
        assert abs(r.h_hat - 0.3) < 1e-4

    def test_budget_exhaustion_reports_unconverged(self):
        r = minimize_scalar(quad, OptimizerConfig(method="nelder_mead", max_evals=4))
        assert not r.converged


def _nan_low(h):
    return math.nan if h < 0.3 else (h - 0.35) ** 2


class TestScanWithNaN:
    """The scan's least value, which the local run must clearly beat to
    skip the restart in the scan's bracket, is a number whenever the
    scan holds one: a NaN never counts there either."""

    @pytest.mark.parametrize("method", ["brent", "nelder_mead"])
    def test_restart_bracket_holds_the_least_number(self, method, monkeypatch):
        # The scan opens with 15 NaN cells.  A restart, if the local run
        # makes one, brackets the cell of the scan's least number, not a
        # NaN cell.
        cores = {"brent": minimize._brent_core, "nelder_mead": minimize._nelder_mead_core}
        brackets = []

        def core(tracker, lo, hi):
            brackets.append((lo, hi))
            cores[method](tracker, lo, hi)

        search = functools.partial(minimize._scan_then_refine, core)
        monkeypatch.setitem(minimize._SEARCHES, method, search)
        r = minimize_scalar(_nan_low, OptimizerConfig(method=method))
        mesh = np.linspace(1e-3, 1.0, 50).tolist()
        scan = [_nan_low(h) for h in mesh]
        least = min(f for f in scan if f == f)
        assert brackets[0] == (1e-3, 1.0)
        for lo, hi in brackets[1:]:
            inside = [f for h, f in zip(mesh, scan) if lo <= h <= hi]
            assert least in inside and not any(map(math.isnan, inside)), (lo, hi)
        assert abs(r.h_hat - 0.35) < 1e-12 and r.converged

    @pytest.mark.parametrize("method, evaluations", [("brent", 102), ("nelder_mead", 150)])
    def test_all_nan_objective_has_no_best_point(self, method, evaluations):
        r = minimize_scalar(lambda h: math.nan, OptimizerConfig(method=method))
        assert math.isnan(r.h_hat) and r.delta_min == math.inf
        assert (r.evaluations, r.converged) == (evaluations, True)


class TestSimulatedAnnealing:
    def test_quadratic_settles_on_the_mesh(self):
        cfg = OptimizerConfig(method="simulated_annealing", max_evals=5000)
        r = minimize_scalar(quad, cfg)
        assert abs(r.h_hat - 0.5) < 1e-9
        assert r.evaluations <= 5000
        assert r.converged

    def test_same_seed_same_run(self):
        # The chain's generator has a fixed seed, so the report depends
        # only on the objective and the config.
        cfg = OptimizerConfig(method="simulated_annealing", max_evals=2000)
        a = minimize_scalar(quad, cfg)
        b = minimize_scalar(quad, cfg)
        assert replace(a, wall_time_s=0.0) == replace(b, wall_time_s=0.0)

    def test_chain_stops_below_the_bracket(self, monkeypatch):
        # 0.1 * 0.95 ** k >= 1e-6 for k = 0 .. 224 only, so the chain
        # makes 225 proposals after its start, then hands over to the
        # plateau sweep.
        calls, swept = [], []
        monkeypatch.setattr(
            minimize, "_plateau_sweep", lambda tracker, step: swept.append(len(calls))
        )
        report = minimize_scalar(
            lambda h: calls.append(h) or quad(h), OptimizerConfig(method="simulated_annealing")
        )
        assert swept == [1 + 225] and report.evaluations == 1 + 225

    def test_respects_bounds(self):
        cfg = OptimizerConfig(method="simulated_annealing", max_evals=800)
        for centre in (-1.0, 2.0):
            r = minimize_scalar(lambda h: (h - centre) ** 2, cfg)
            assert 1e-3 <= r.h_hat <= 1.0
            assert r.method == cfg.method


class TestDispatch:
    @pytest.mark.parametrize("method", METHODS)
    def test_routes_by_config(self, method):
        cfg = OptimizerConfig(method=method, max_evals=12_000)
        r = minimize_scalar(quad, cfg)
        assert isinstance(r, OptimizerReport)
        assert r.method == method
        assert abs(r.h_hat - 0.5) < 1e-2

    @pytest.mark.parametrize("method", METHODS)
    def test_delta_min_consistent(self, method):
        cfg = OptimizerConfig(method=method, max_evals=3000)
        r = minimize_scalar(quad, cfg)
        assert r.delta_min == quad(r.h_hat)
        assert r.wall_time_s >= 0.0

    @pytest.mark.parametrize("method", METHODS)
    def test_method_alone_sets_the_interval(self, method):
        # A minimum below 1e-3: the grid searches [grid_step, 1] with
        # its floor(1 / grid_step) evaluations, the others [1e-3, 1].
        r = minimize_scalar(lambda h: (h - 5e-4) ** 2, OptimizerConfig(method=method))
        if method == "grid":
            assert (r.h_hat, r.evaluations) == (5e-4, 10_000)
        else:
            assert r.h_hat == 1e-3


class TestBlockEvaluation:
    """Mesh runs evaluated in blocks and grid and sweep runs passed over
    on the objective's ``bound`` leave every report field but the wall
    time exactly as one call per exponent would: the plain lambda below
    has neither ``many`` nor ``bound`` and so takes the per-exponent
    path."""

    @staticmethod
    def _same_report(frozen, config):
        block = minimize_scalar(frozen, config)
        single = minimize_scalar(lambda h: frozen(h), config)
        assert replace(block, wall_time_s=0.0) == replace(single, wall_time_s=0.0)
        return block

    @given(
        st.lists(st.integers(-6, 6), min_size=2, max_size=50),
        st.lists(st.integers(-6, 6), min_size=2, max_size=50),
        st.sampled_from([2, 10, 50]),
        st.sampled_from(METHODS),
        st.sampled_from([1e-4, 1e-3, 1e-2, 0.07, 1 / 3]),
        st.sampled_from([1, 49, 50, 51, 200, 10_000]),
    )
    @settings(max_examples=150, deadline=None)
    def test_tied_objective(self, xs, ys, a_max, method, grid_step, max_evals):
        # Small integer samples make wide plateaus, so ties to the
        # smallest exponent decide the answer; the short budgets run
        # out inside the scan, a grid chunk or a sweep's block.
        assume(len(set(xs)) > 1 and len(set(ys)) > 1)
        pair = RescaledPair(
            fine=IncrementSample(values=np.array(xs) / 2.0, lag=1),
            coarse=IncrementSample(values=np.array(ys, dtype=float), lag=a_max),
            a_max=a_max,
        )
        config = OptimizerConfig(method=method, grid_step=grid_step, max_evals=max_evals)
        self._same_report(scaled_diameter_fn(pair), config)

    @pytest.mark.parametrize("method", METHODS)
    def test_simulated_objective(self, method):
        pair, plan = _pair_plan(0.3, 77, 78)
        frozen, _, _ = _frozen_objective(pair, plan)
        report = self._same_report(frozen, OptimizerConfig(method=method))
        assert report.converged


class _CountingObjective:
    """Forwards a frozen objective, its ``many``, ``least`` and
    ``bound``, and counts the kernel rows of calls and ``many``, the
    length of every ``many`` and ``least`` run, and the bound passes."""

    def __init__(self, frozen):
        self._frozen = frozen
        self.rows = self.bounds = 0
        self.many_runs, self.least_runs = [], []

    def __call__(self, h):
        self.rows += 1
        return self._frozen(h)

    def many(self, hs):
        self.rows += len(hs)
        self.many_runs.append(len(hs))
        return self._frozen.many(hs)

    def least(self, hs):
        self.least_runs.append(len(hs))
        return self._frozen.least(hs)

    def bound(self, h_first, h_last):
        self.bounds += 1
        return self._frozen.bound(h_first, h_last)


class TestBoundedSweep:
    """The plateau sweep passes over runs that the objective's bound
    rules out, yet counts every cell the walk decides."""

    @pytest.mark.parametrize(
        "method,size",
        [
            pytest.param("brent", 500, id="brent"),
            pytest.param("nelder_mead", 500, id="nelder_mead"),
            pytest.param("brent", 1491, id="brent-1491"),
        ],
    )
    def test_every_budget_cut_matches_the_per_cell_walk(self, method, size, monkeypatch):
        # Brent and Nelder-Mead ask for the same exponents whatever
        # their budget, until it stops them, so one recorded run of the
        # per-cell route, through the tracker's single calls and its
        # runs alike, gives its report at every budget: the best of the
        # first `budget` evaluations, smallest exponent on ties.  Budgets
        # from ~400 below the full count to one past it cut the scan,
        # the local runs and the sweep at every cell, inside runs the
        # bound passes over as well as evaluated ones; at the analyze
        # size a cut also lands inside leaves that a stronger bound
        # would have passed over.
        pair, plan = _pair_plan(0.3, 77, 78) if size == 500 else _analyze_pair_plan(5)
        frozen, _, _ = _frozen_objective(pair, plan)
        calls = []

        class Recording(minimize._Tracker):
            def __call__(self, h):
                f = super().__call__(h)
                calls.append((h, f))
                return f

            def _record(self, run, hs):
                fs, j = super()._record(run, hs)
                calls.extend(zip(hs, fs))
                return fs, j

        with monkeypatch.context() as patch:
            patch.setattr(minimize, "_Tracker", Recording)
            full = minimize_scalar(lambda h: frozen(h), OptimizerConfig(method=method))
        assert len(calls) == full.evaluations
        for budget in range(max(full.evaluations - 400, 1), full.evaluations + 2):
            seen = calls[:budget]
            h_hat, delta_min = min(seen, key=lambda c: (c[1], c[0]))
            want = OptimizerReport(
                method, h_hat, delta_min, len(seen), 0.0, converged=budget >= len(calls)
            )
            got = minimize_scalar(frozen, OptimizerConfig(method=method, max_evals=budget))
            assert replace(got, wall_time_s=0.0) == want, budget
        assert want == replace(full, wall_time_s=0.0)

    def test_every_budget_cut_matches_for_annealing(self):
        # The chain spends half the budget, so the even budgets up to
        # 402 end the sweep at every offset up to 201 from its start.
        pair, plan = _pair_plan(0.3, 77, 78)
        frozen, _, _ = _frozen_objective(pair, plan)
        for budget in range(2, 403, 2):
            config = OptimizerConfig(method="simulated_annealing", max_evals=budget)
            TestBlockEvaluation._same_report(frozen, config)

    @pytest.mark.parametrize("method", ["brent", "nelder_mead"])
    def test_scan_is_one_least_call(self, method):
        # The opening scan reaches the objective as one ``least`` run of
        # 50 exponents, not as a ``many`` run, and the report is that of
        # the per-cell walk of a plain callable.
        frozen, _, _ = _frozen_objective(*_pair_plan(0.3, 77, 78))
        counted = _CountingObjective(frozen)
        config = OptimizerConfig(method=method)
        got = minimize_scalar(counted, config)
        want = minimize_scalar(lambda h: frozen(h), config)
        assert counted.least_runs == [50]
        assert 50 not in counted.many_runs
        assert replace(got, wall_time_s=0.0) == replace(want, wall_time_s=0.0)

    @pytest.mark.parametrize("hurst", [0.2, 0.5, 0.8])
    def test_brent_computes_few_kernel_rows(self, hurst):
        # The golden record's objectives: Brent decides ~400 cells, but
        # the bound rules out most of the sweep's, so fewer than 200
        # rows reach the kernel.
        counted = _CountingObjective(_golden_objective(hurst))
        report = minimize_scalar(counted, OptimizerConfig(method="brent"))
        assert report.converged and report.evaluations > 350
        assert counted.bounds > 0
        assert counted.rows < 200

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: _golden_objective(0.2), id="golden 0.2"),
            pytest.param(lambda: _golden_objective(0.8), id="golden 0.8"),
            pytest.param(lambda: _frozen_objective(*_analyze_pair_plan(0))[0], id="analyze"),
        ],
    )
    def test_brent_makes_few_bound_passes(self, make):
        # One bound pass covers a whole look-ahead of the walk, and a
        # pass that fails to rule it out is followed by one leaf of
        # evaluated cells, not by passes over ever shorter halves of it:
        # these estimates take 3, 3 and 4 passes.
        counted = _CountingObjective(make())
        report = minimize_scalar(counted, OptimizerConfig(method="brent"))
        assert report.converged
        assert 0 < counted.bounds <= 4
        assert counted.many_runs and max(counted.many_runs) <= minimize._SWEEP_LEAF


class _WeakBound:
    """Forwards a frozen objective, its ``many`` and ``least``, and a
    ``bound`` weakened by each of ``offsets`` in turn: the objective's
    own bound less the offset, which may be infinite or NaN."""

    def __init__(self, frozen, offsets):
        self._frozen = frozen
        self.many, self.least = frozen.many, frozen.least
        self._offsets = itertools.cycle(offsets)

    def __call__(self, h):
        return self._frozen(h)

    def bound(self, h_first, h_last):
        return self._frozen.bound(h_first, h_last) - next(self._offsets)


class TestBoundStrength:
    """The grid's and the sweep's reports do not depend on how strong
    the bound is: a run the bound passes over holds no cell the search
    would keep, so a weaker bound only makes it compute cells it could
    skip."""

    @given(
        st.sampled_from(METHODS),
        st.one_of(st.integers(1, 700), st.just(10_000)),
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.just(math.inf), st.just(math.nan)),
            min_size=1,
            max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_weakened_bound_gives_the_same_report(self, method, max_evals, offsets):
        frozen, _, _ = _frozen_objective(*_pair_plan(0.3, 77, 78))
        config = OptimizerConfig(method=method, max_evals=max_evals)
        got = minimize_scalar(_WeakBound(frozen, offsets), config)
        want = minimize_scalar(frozen, config)
        assert replace(got, wall_time_s=0.0) == replace(want, wall_time_s=0.0)


class TestKernelTraffic:
    """Every run the searches hand the crossing sweep is a leaf the
    sweep serves whole, so a search that hands the kernel longer runs
    shows up here rather than in a benchmark."""

    @pytest.mark.parametrize("method", METHODS)
    def test_sweeps_only_leaves_in_one_piece(self, method, monkeypatch):
        # The golden record's objectives and one analyze-shaped one: each
        # sweep call holds at most _SWEEP_LEAF scales and, made from
        # outside the kernel, is never split into pieces (a sweep call
        # from inside one).
        from hurstks import ksdist

        sweep = ksdist._SortedPair.sweep
        sizes, inside, depth = [], 0, 0

        def recorded_sweep(self, scales):
            nonlocal inside, depth
            sizes.append(scales.size)
            inside += depth > 0
            depth += 1
            try:
                return sweep(self, scales)
            finally:
                depth -= 1

        monkeypatch.setattr(ksdist._SortedPair, "sweep", recorded_sweep)
        objectives = [_golden_objective(h) for h in (0.2, 0.5, 0.8)]
        objectives.append(_frozen_objective(*_analyze_pair_plan(0))[0])
        for frozen in objectives:
            assert minimize_scalar(frozen, OptimizerConfig(method=method)).converged
        assert sizes and max(sizes) <= minimize._SWEEP_LEAF
        assert inside == 0


def _remembering_annealing(objective, config, memo):
    # Simulated annealing as a chain that stops below the 1e-6 bracket,
    # with an objective that computes each exponent once, in ``memo``:
    # a repeat still counts as an evaluation but is not computed again.
    def remembered(h):
        if h not in memo:
            memo[h] = objective(h)
        return memo[h]

    tracker = minimize._Tracker(remembered, config.max_evals)
    rng = np.random.default_rng(0)
    try:
        x = 0.5 * (1e-3 + 1.0)
        fx = tracker(x)
        temp = 0.1
        for _ in range(max(config.max_evals // 2 - 1, 0)):
            if temp < 1e-6:
                break
            u = min(max(x + temp * rng.standard_normal(), 1e-3), 1.0)
            fu = tracker(u)
            if fu <= fx or rng.random() < math.exp(-(fu - fx) / temp):
                x, fx = u, fu
            temp *= 0.95
        minimize._plateau_sweep(tracker, config.grid_step)
        converged = True
    except minimize._Budget:
        converged = False
    return OptimizerReport(
        "simulated_annealing", tracker.best_h, tracker.best_f, tracker.evaluations, 0.0,
        converged,
    )


class TestStuckChain:
    """Annealing reports what a chain that remembers every value it
    computed reports, at every budget."""

    @staticmethod
    def _tied_objective():
        return scaled_diameter_fn(
            RescaledPair(
                fine=IncrementSample(
                    values=np.array([-3, 1, 0, 2, -1, 4, 1, -2, 0, 3, -1, 2]) / 2.0, lag=1
                ),
                coarse=IncrementSample(
                    values=np.array([-2, 1, 0, 3, -1, 2, 1, 0, -3, 2], dtype=float), lag=10
                ),
                a_max=10,
            )
        )

    @pytest.mark.parametrize("objective", ["simulated", "tied"])
    def test_matches_the_remembering_chain_at_every_budget(self, objective):
        if objective == "simulated":
            frozen, _, _ = _frozen_objective(*_pair_plan(0.3, 77, 78))
        else:
            frozen = self._tied_objective()
        memo = {}
        for budget in [*range(2, 403, 2), OptimizerConfig().max_evals]:
            config = OptimizerConfig(method="simulated_annealing", max_evals=budget)
            got = replace(minimize_scalar(frozen, config), wall_time_s=0.0)
            assert got == _remembering_annealing(frozen, config, memo), budget


# The lattice of tests/test_ksdist.py: coarse values with zeros of
# both signs against fine values on a quarter lattice, so that exact
# scales such as 16 ** -0.25 = 0.5 make wide ties.
coarse_with_zeros = st.lists(
    st.one_of(st.integers(-8, 8).map(float), st.just(-0.0)), min_size=2, max_size=60
)


def _tracker_state(tracker):
    return tracker.evaluations, tracker.best_h.hex(), tracker.best_f.hex()


class TestTrackerRuns:
    """``_Tracker.many`` returns what one call per exponent of the run
    would, and leaves the tracker in the same state, at every cut of
    the budget."""

    @given(
        st.lists(st.integers(-12, 12), min_size=2, max_size=70),
        coarse_with_zeros,
        st.sampled_from([2, 4, 16, 50]),
        st.lists(st.integers(1, 40), max_size=12),
        st.lists(st.integers(1, 40), max_size=50),
    )
    @settings(max_examples=100, deadline=None)
    @pytest.mark.parametrize("route", ["many", "callable"])
    def test_run_matches_single_calls(self, route, xs, coarse, a_max, earlier_ks, run_ks):
        # Exponents k / 40 hit h = 0.25, 0.5, 0.75 and 1; short lists of
        # 40 cells repeat often, within the run and against the earlier
        # calls, and each repeat is evaluated again.
        assume(len(set(xs)) > 1 and len(set(coarse)) > 1)
        frozen = scaled_diameter_fn(
            RescaledPair(
                fine=IncrementSample(values=np.array(xs) / 4.0, lag=1),
                coarse=IncrementSample(values=np.array(coarse), lag=a_max),
                a_max=a_max,
            )
        )
        called = []

        def plain(h):
            called.append(h)
            return frozen(h)

        objective = frozen if route == "many" else plain
        earlier = [k / 40 for k in earlier_ks]
        run = [k / 40 for k in run_ks]
        for cut in range(len(run) + 2):
            single = minimize._Tracker(objective, len(earlier) + cut)
            batch = minimize._Tracker(objective, len(earlier) + cut)
            for h in earlier:
                single(h)
                batch(h)
            want = []
            try:
                for h in run:
                    want.append(single(h))
            except minimize._Budget:
                want = None
            del called[:]
            try:
                got = batch.many(run)
            except minimize._Budget:
                got = None
            assert got == want
            assert _tracker_state(batch) == _tracker_state(single)
            if route == "callable":
                assert called == run[:cut]

    @given(
        st.lists(st.sampled_from([math.nan, 0.1, 0.2, 0.3]), min_size=1, max_size=30),
        st.lists(st.sampled_from([math.nan, 0.1, 0.2]), max_size=4),
        st.booleans(),
    )
    @example([math.nan, 0.2, 0.1, 0.1], [], False)
    @example([0.3, math.nan, 0.1, math.nan, 0.1], [0.2], False)
    @example([math.nan] * 6, [], False)
    @example([math.nan] * 6, [0.1], True)
    @example([0.2, 0.1, 0.3, 0.1, 0.1], [0.1], True)
    @settings(max_examples=200, deadline=None)
    def test_plain_values_with_nans_and_ties(self, run_values, earlier_values, descending):
        # A plain callable whose run holds NaN values first, in the middle
        # or everywhere, and values tied with each other and with earlier
        # calls; the run's exponents rise or fall, and the earlier ones
        # sit between them, so every tie is decided by the exponent.
        run = [(j + 1) / 64 for j in range(len(run_values))]
        earlier = [(j + 0.5) / 64 for j in range(len(earlier_values))]
        if descending:
            run.reverse()
        table = dict(zip(run + earlier, run_values + earlier_values))
        for cut in range(len(run) + 2):
            single = minimize._Tracker(table.__getitem__, len(earlier) + cut)
            batch = minimize._Tracker(table.__getitem__, len(earlier) + cut)
            for h in earlier:
                single(h)
                batch(h)
            want = []
            try:
                for h in run:
                    want.append(single(h))
            except minimize._Budget:
                want = None
            try:
                got = batch.many(run)
            except minimize._Budget:
                got = None
            assert got == want
            assert _tracker_state(batch) == _tracker_state(single)
            # least records the run as many does and returns the value
            # and index of its least pair, NaN never counting; index 0
            # if every value is NaN.
            lone = minimize._Tracker(table.__getitem__, len(earlier) + cut)
            for h in earlier:
                lone(h)
            try:
                got = lone.least(run)
            except minimize._Budget:
                got = None
            if want is not None:
                numbers = [(f, h, j) for j, (f, h) in enumerate(zip(want, run)) if f == f]
                j = min(numbers)[2] if numbers else 0
                want = (want[j], j)
            assert got == want
            assert _tracker_state(lone) == _tracker_state(single)


class TestCoreInvariants:
    """The fact the plateau sweep rests on."""

    @pytest.mark.parametrize("first,last", [(27, 37), (5, 5), (40, 63), (1, 12)])
    @pytest.mark.parametrize("method", ["brent", "nelder_mead", "simulated_annealing"])
    def test_flat_bottom_ties_go_to_the_smallest_mesh_cell(self, method, first, last):
        # Zero on [first, last + 1) / 64 and one more per 1/64 outside:
        # on the 1/64 mesh the cells first .. last tie, and the smallest
        # is the grid's answer.
        def step(h):
            k = math.floor(h * 64)
            return float(max(first - k, k - last, 0))

        config = OptimizerConfig(method=method, grid_step=1 / 64)
        grid = minimize_scalar(step, replace(config, method="grid"))
        r = minimize_scalar(step, config)
        assert grid.h_hat == r.h_hat == first / 64
        assert r.delta_min == 0.0


class TestPopulationCurve:
    @pytest.mark.parametrize("a_max", [21, 50])
    def test_recovers_generating_exponent(self, a_max):
        # Distance between a standard normal CDF and its a^{h-h0}
        # rescaling is minimised exactly at h0: every local method must
        # land there on the smooth population curve.
        for h0 in np.arange(0.1, 0.95, 0.1):
            pop = lambda h, h0=h0: gaussian_diameter(float(a_max) ** (2.0 * (h0 - h)))
            r = minimize_scalar(pop, OptimizerConfig(method="brent"))
            assert abs(r.h_hat - h0) < 1e-5, (h0, a_max)


def _pair_plan(h0, path_seed, plan_seed):
    path = simulate_fbm(FgnSpec(hurst=h0, length=4097, seed=path_seed))
    pair = RescaledPair(fine=increments(path, 1), coarse=increments(path, 50), a_max=50)
    plan = PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=plan_seed)
    return pair, plan


def _analyze_pair_plan(seed):
    # One window of the analyze workload's shape: 1,512 points, lags 1
    # and 21, both samples subsampled to 1,491 values.
    path = simulate_fbm(FgnSpec(hurst=0.15, length=1512, seed=seed))
    pair = RescaledPair(fine=increments(path, 1), coarse=increments(path, 21), a_max=21)
    plan = PermutationPlan(scheme="uniform_sample", subsample_size=1491, seed=seed + 100)
    return pair, plan


def _golden_objective(hurst):
    # The frozen objective of the golden record's estimate at ``hurst``.
    path = simulate_fbm(FgnSpec(hurst=hurst, length=4097, seed=int(hurst * 100)))
    pair = RescaledPair(fine=increments(path, 1), coarse=increments(path, 50), a_max=50)
    plan = PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=7)
    return _frozen_objective(pair, plan)[0]


class TestEstimateHurst:
    def test_report_fields_and_internal_consistency(self):
        pair, plan = _pair_plan(0.5, 1, 2)
        res = estimate_hurst(pair, plan, OptimizerConfig(method="brent"))
        assert isinstance(res, EstimationResult)
        assert res.n == res.m == 500
        assert res.a_max == 50
        assert res.seed == 2
        assert res.critical_value == ks_critical(500, 500, 0.05)
        assert res.significant == (res.delta_min < res.critical_value)
        assert 0.0 < res.h_hat <= 1.0

    def test_deterministic(self):
        pair, plan = _pair_plan(0.6, 5, 6)
        a = estimate_hurst(pair, plan, OptimizerConfig(method="brent"))
        b = estimate_hurst(pair, plan, OptimizerConfig(method="brent"))
        assert a == b

    def test_alpha_feeds_critical_value(self):
        pair, plan = _pair_plan(0.5, 3, 4)
        res = estimate_hurst(pair, plan, OptimizerConfig(method="grid"), alpha=0.01)
        assert res.alpha == 0.01
        assert res.critical_value == ks_critical(500, 500, 0.01)

    @pytest.mark.parametrize("length,a_max", [(4097, 50), (1512, 21)])
    def test_block_scheme_equals_the_full_sample(self, length, a_max):
        # The objective sorts both samples and a block permutation is a
        # rearrangement, so the block length and the seed change no
        # number: the block scheme is the uniform one without a
        # subsample.  333 tiles neither sample.
        config = OptimizerConfig(method="brent")
        for hurst, path_seed in ((0.3, 11), (0.7, 12)):
            path = simulate_fbm(FgnSpec(hurst=hurst, length=length, seed=path_seed))
            pair = RescaledPair(
                fine=increments(path, 1), coarse=increments(path, a_max), a_max=a_max
            )
            full = estimate_hurst(pair, PermutationPlan(subsample_size=None), config)
            # Every increment is kept: n and m are the full counts.
            assert (full.n, full.m) == (length - 1, length - a_max)
            want = (full.h_hat.hex(), full.delta_min.hex(), full.n, full.m, full.converged)
            # Nor does the seed of the uniform scheme without a subsample.
            plans = [
                PermutationPlan(scheme="block", block_length=block_length, seed=seed)
                for block_length in (1, 7, 64, 333)
                for seed in (0, 5, 123)
            ] + [PermutationPlan(subsample_size=None, seed=seed) for seed in (0, 5, 123)]
            for plan in plans:
                res = estimate_hurst(pair, plan, config)
                got = (res.h_hat.hex(), res.delta_min.hex(), res.n, res.m, res.converged)
                assert got == want, (hurst, plan)

    @given(seed=st.integers(min_value=0, max_value=2**63 - 1))
    @settings(max_examples=40, deadline=None)
    def test_full_sample_result_is_the_same_for_every_seed(self, seed):
        # Without a subsample the plan only rearranges both samples,
        # which the sorted objective cannot see; the result records
        # the seed and differs in nothing else.
        path = simulate_fbm(FgnSpec(hurst=0.4, length=513, seed=8))
        pair = RescaledPair(fine=increments(path, 1), coarse=increments(path, 16), a_max=16)
        config = OptimizerConfig(method="brent")
        want = estimate_hurst(pair, PermutationPlan(subsample_size=None), config)
        got = estimate_hurst(pair, PermutationPlan(subsample_size=None, seed=seed), config)
        assert got.seed == seed
        assert replace(got, seed=want.seed) == want

    @pytest.mark.parametrize("method", METHODS)
    def test_exhausted_budget_is_flagged(self, method):
        # A minimizer cut off by max_evals must not pass as a normal
        # estimate: the best point seen comes back with converged off.
        pair, plan = _pair_plan(0.5, 1, 2)
        short = estimate_hurst(pair, plan, OptimizerConfig(method=method, max_evals=30))
        assert short.converged is False
        assert 0.0 < short.h_hat <= 1.0
        full = estimate_hurst(pair, plan, OptimizerConfig(method=method))
        assert full.converged is True

    @pytest.mark.parametrize("h0,want_mean,want_sd", [
        (0.2, 0.1987, 0.0218),
        (0.5, 0.4980, 0.0299),
        (0.8, 0.8057, 0.0563),
    ])
    def test_recovery_across_exponents(self, h0, want_mean, want_sd):
        # 100 paths per exponent, default subsample plan; the estimate
        # mean stays within 0.05 of the truth and nearly every run sits
        # inside the a-priori 1.96-sd band.
        cfg = OptimizerConfig(method="brent")
        hats, in_band = [], 0
        band = 1.96 * estimator_sd(50, 500, 500)
        for i in range(100):
            pair, plan = _pair_plan(h0, 60000 + i, 50000 + i)
            res = estimate_hurst(pair, plan, cfg)
            hats.append(res.h_hat)
            in_band += int(abs(res.h_hat - h0) <= band)
        hats = np.asarray(hats)
        assert float(hats.mean()) == pytest.approx(want_mean, abs=2e-4)
        assert abs(float(hats.mean()) - h0) < 0.05
        assert float(hats.std(ddof=1)) == pytest.approx(want_sd, abs=2e-4)
        assert in_band >= 99

    def test_true_model_rarely_flagged_rough(self):
        # At H0 = 0.2 the minimised distance drops below the 5%
        # critical value in nearly every replication.
        cfg = OptimizerConfig(method="brent")
        hits = 0
        for i in range(100):
            pair, plan = _pair_plan(0.2, 60000 + i, 50000 + i)
            hits += int(estimate_hurst(pair, plan, cfg).significant)
        assert hits >= 95

    @pytest.mark.parametrize("h0,measured", [(0.5, 84), (0.8, 41)])
    @pytest.mark.xfail(
        strict=True,
        reason=(
            "The 5% critical value sqrt(-ln(alpha/2)/2) * sqrt((n+m)/(nm)) "
            "assumes two independent samples, but fine and coarse increments "
            "are subsampled from the same path, and for persistent paths the "
            "shared low-frequency content inflates the minimised distance "
            "well beyond the independent-sample null: acceptance rates over "
            "100 paths fall to 84/100 at H=0.5 and 41/100 at H=0.8 against a "
            "95/100 target (98/100 at H=0.2, where long-range dependence is "
            "weakest)."
        ),
    )
    def test_true_model_accepted_at_persistent_exponents(self, h0, measured):
        cfg = OptimizerConfig(method="brent")
        hits = 0
        for i in range(100):
            pair, plan = _pair_plan(h0, 60000 + i, 50000 + i)
            hits += int(estimate_hurst(pair, plan, cfg).significant)
        assert hits == measured  # frozen measured rate
        assert hits >= 95


class TestBench:
    def test_row_grid_and_ordering(self):
        cfgs = [OptimizerConfig(method="brent"), OptimizerConfig(method="grid")]
        rows = bench_optimizers([0.4, 0.2], 2, cfgs, base_seed=11)
        assert len(rows) == 8
        keys = [(r.h_true, r.method, r.rep) for r in rows]
        assert keys == sorted(keys)
        assert {r.method for r in rows} == {"brent", "grid"}
        assert all(isinstance(r, BenchRow) for r in rows)
        assert all(r.error == "" for r in rows)

    def test_methods_share_the_frozen_objective(self):
        # Same cell, same subsampled pair: delta_min at the grid point
        # must be reproducible across configs evaluating the same h.
        cfgs = [OptimizerConfig(method="grid"), OptimizerConfig(method="grid", grid_step=2e-4)]
        rows = bench_optimizers([0.5], 1, cfgs, base_seed=7)
        assert rows[0].h_true == rows[1].h_true == 0.5
        # Coarser lattice is a subset situation: equal or worse minimum.
        fine = next(r for r in rows if r.evaluations == 10_000)
        coarse = next(r for r in rows if r.evaluations == 5_000)
        assert coarse.delta_min >= fine.delta_min

    def test_deterministic_in_base_seed(self):
        cfgs = [OptimizerConfig(method="brent")]
        a = bench_optimizers([0.3], 3, cfgs, base_seed=5)
        b = bench_optimizers([0.3], 3, cfgs, base_seed=5)
        assert [(r.h_hat, r.delta_min, r.evaluations) for r in a] == [
            (r.h_hat, r.delta_min, r.evaluations) for r in b
        ]

    def test_rejects_negative_base_seed(self):
        with pytest.raises(ValueError, match="base_seed must be non-negative"):
            bench_optimizers([0.5], 1, [OptimizerConfig()], base_seed=-1)

    def test_failures_become_error_rows(self, monkeypatch):
        monkeypatch.setattr(minimize, "minimize_scalar", _fails_on_grid)
        rows = bench_optimizers([0.5], 1, [OptimizerConfig(method="grid")], base_seed=0)
        assert len(rows) == 1
        assert rows[0].error == "grid failed"
        assert math.isnan(rows[0].h_hat)

    def test_csv_round_trip(self, tmp_path):
        cfgs = [OptimizerConfig(method="brent")]
        rows = bench_optimizers([0.4], 2, cfgs, base_seed=3)
        out = tmp_path / "bench.csv"
        with open(out, "w", newline="") as fh:
            write_bench_csv(rows, fh)
        with open(out, newline="") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == 2
        assert set(got[0]) == {
            "method", "h_true", "rep", "h_hat", "delta_min",
            "evaluations", "wall_time_s", "error", "converged",
        }
        assert float(got[0]["h_hat"]) == rows[0].h_hat
        assert float(got[0]["delta_min"]) == rows[0].delta_min
        assert int(got[1]["evaluations"]) == rows[1].evaluations
        assert got[0]["error"] == got[1]["error"] == ""
        assert got[0]["converged"] == got[1]["converged"] == "True"

    def test_exhausted_budget_is_flagged_not_failed(self, tmp_path):
        cfgs = [OptimizerConfig(method=m, max_evals=30) for m in ("grid", "brent")]
        rows = bench_optimizers([0.5], 1, cfgs, length=1025, subsample=200, base_seed=0)
        assert [(r.evaluations, r.error, r.converged) for r in rows] == [(30, "", False)] * 2
        out = tmp_path / "bench.csv"
        with open(out, "w", newline="") as fh:
            write_bench_csv(rows, fh)
        with open(out, newline="") as fh:
            assert [r["converged"] for r in csv.DictReader(fh)] == ["False", "False"]

    def test_csv_keeps_failure_reason(self, tmp_path, monkeypatch):
        monkeypatch.setattr(minimize, "minimize_scalar", _fails_on_grid)
        cfgs = [OptimizerConfig(method="brent"), OptimizerConfig(method="grid")]
        rows = bench_optimizers([0.5], 1, cfgs, base_seed=0)
        out = tmp_path / "bench.csv"
        with open(out, "w", newline="") as fh:
            write_bench_csv(rows, fh)
        with open(out, newline="") as fh:
            got = {r["method"]: r for r in csv.DictReader(fh)}
        assert got["grid"]["error"] == "grid failed"
        assert math.isnan(float(got["grid"]["h_hat"]))
        assert got["brent"]["error"] == ""
        assert (got["grid"]["converged"], got["brent"]["converged"]) == ("False", "True")


def _fails_on_grid(objective, config):
    if config.method == "grid":
        raise ValueError("grid failed")
    return minimize_scalar(objective, config)
