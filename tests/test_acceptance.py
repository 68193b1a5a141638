"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Each test evaluates its criterion at the stated tolerance, prints
``criterion N: PASS/FAIL`` with the measured numbers straight to the
real stdout (bypassing capture so the verdict survives into logs), and
then asserts.  Criteria 5 and 7 fail honestly: the dispersion formula
is a conservative upper bound rather than a calibrated sd, and block
permutation cannot remove within-block covariance; the printed lines
carry the measured values.
"""

import math

import numpy as np
import pytest
from numpy.random import SeedSequence

from hurstks.fgn import FgnSpec, IncrementSample, increments, simulate_fbm
from hurstks.ksdist import (
    EmpiricalCdf,
    RescaledPair,
    gaussian_diameter,
    ks_critical,
    ks_two_sample,
)
from hurstks.minimize import OptimizerConfig, bench_optimizers, estimate_hurst
from hurstks.permute import PermutationPlan, block_permute, sample_acf
from hurstks.stats import (
    VarianceOrderingSpec,
    a_function,
    check_variance_ordering,
    estimator_sd,
    z_test_means,
)

pytestmark = pytest.mark.acceptance


@pytest.fixture()
def verdict(capfd):
    """Print one pass/fail line per criterion straight to the terminal."""

    def announce(n: int, ok: bool, detail: str) -> None:
        with capfd.disabled():
            print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)

    return announce


def test_criterion_01_critical_value(verdict):
    got = ks_critical(1491, 1491, 0.05)
    ok = abs(got - 0.0497) <= 0.0005
    verdict(1, ok, f"ks_critical(1491,1491,0.05)={got:.6f} vs 0.0497+-0.0005")
    assert ok


def test_criterion_02_ci_half_width(verdict):
    got = 1.96 * estimator_sd(21, 1491, 1491)
    ok = abs(got - 0.1378) <= 0.0005
    verdict(2, ok, f"1.96*sd(21,1491,1491)={got:.6f} vs 0.1378+-0.0005")
    assert ok


def test_criterion_03_z_test(verdict):
    z, p = z_test_means(0.4039, 0.1391, 0.07032)
    ok = abs(z - 2.6636) <= 0.001
    verdict(
        3,
        ok,
        f"z={z:.6f} vs 2.6636+-0.001; one-sided p={p:.6f} "
        "(tabulated 0.0037 reflects z rounded before the tail lookup)",
    )
    assert ok
    assert p == pytest.approx(0.0039, abs=2e-4)


def test_criterion_04_variance_ratio_minimum(verdict):
    h = np.arange(1, 10_000) * 1e-4
    got = float(h[int(np.argmin(a_function(h)))])
    ok = abs(got - 0.6729) <= 0.0005
    verdict(4, ok, f"argmin A(H) on 1e-4 grid = {got:.4f} vs 0.6729+-0.0005")
    assert ok


def test_criterion_05_estimator_recovery(verdict):
    # 100 seeds per exponent at N=2^12, a_max=50, T=500.
    predicted = estimator_sd(50, 500, 500)
    config = OptimizerConfig(method="grid")
    rows = []
    for hi, h0 in enumerate((0.2, 0.4, 0.6, 0.8)):
        hats = []
        for i in range(100):
            ss = SeedSequence(2026, spawn_key=(hi, i)).generate_state(2)
            path = simulate_fbm(FgnSpec(hurst=h0, length=4097, seed=int(ss[0])))
            pair = RescaledPair(
                fine=increments(path, 1), coarse=increments(path, 50), a_max=50
            )
            plan = PermutationPlan(
                scheme="uniform_sample", subsample_size=500, seed=int(ss[1])
            )
            hats.append(estimate_hurst(pair, plan, config).h_hat)
        hats = np.asarray(hats)
        mean_ok = abs(float(hats.mean()) - h0) <= 0.05
        ratio = float(hats.std(ddof=1)) / predicted
        sd_ok = 0.5 <= ratio <= 2.0
        rows.append((h0, float(hats.mean()), mean_ok, ratio, sd_ok))
    ok = all(r[2] and r[4] for r in rows)
    detail = "; ".join(
        f"H0={h0}: mean={m:.4f}({'ok' if mok else 'BAD'}) "
        f"sd/pred={ratio:.3f}({'ok' if sok else 'BAD'})"
        for h0, m, mok, ratio, sok in rows
    )
    verdict(5, ok, detail + f" [pred sd={predicted:.4f}]")
    assert all(r[2] for r in rows), "mean recovery failed"
    assert all(r[4] for r in rows), (
        "sd band failed: the dispersion formula is a conservative bound, "
        "not a calibrated sd; measured ratios sit near 0.24-0.51"
    )


def test_criterion_06_optimizer_equivalence(verdict):
    # 100 frozen objectives shared across methods via per-cell seeds.
    configs = [
        OptimizerConfig(method="grid"),
        OptimizerConfig(method="brent"),
        OptimizerConfig(method="nelder_mead"),
    ]
    rows = bench_optimizers([0.2, 0.4, 0.6, 0.8], 25, configs, base_seed=901)
    cells = {}
    for r in rows:
        cells.setdefault((r.h_true, r.rep), {})[r.method] = r
    stats = {}
    for method in ("brent", "nelder_mead"):
        agree = 0
        ev_max = 0
        for cell in cells.values():
            gr, me = cell["grid"], cell[method]
            assert gr.evaluations == 10_000
            agree += int(abs(me.h_hat - gr.h_hat) <= 2e-3)
            ev_max = max(ev_max, me.evaluations)
        stats[method] = (agree, ev_max)
    ok = all(agree >= 95 and ev_max < 1000 for agree, ev_max in stats.values())
    verdict(
        6,
        ok,
        "; ".join(
            f"{m}: |dH|<=2e-3 in {a}/100, max evals {e} (<1000)"
            for m, (a, e) in stats.items()
        ),
    )
    for method, (agree, ev_max) in stats.items():
        assert agree >= 95, method
        assert ev_max < 10_000 // 10, method


def test_criterion_07_block_decorrelation(verdict):
    band = 3.0 / math.sqrt(4096.0)
    control_band = 10.0 / math.sqrt(4096.0)
    dec_ok = ctl_ok = 0
    for i in range(100):
        ss = SeedSequence(2027, spawn_key=(i,)).generate_state(2)
        path = simulate_fbm(FgnSpec(hurst=0.8, length=4097, seed=int(ss[0])))
        fine = increments(path, 1)
        plan = PermutationPlan(scheme="block", block_length=128, seed=int(ss[1]))
        shuffled = block_permute(fine, plan)
        dec_ok += int(float(np.max(np.abs(sample_acf(shuffled, 20)))) < band)
        ctl_ok += int(abs(sample_acf(fine, 1)[0]) > control_band)
    ok = dec_ok >= 90 and ctl_ok >= 95
    verdict(
        7,
        ok,
        f"permuted max|ACF|<3/sqrt(n) in {dec_ok}/100 (need >=90); "
        f"unpermuted |ACF(1)|>10/sqrt(n) in {ctl_ok}/100 (need >=95); "
        "within-block covariance floor (128^0.6-1)/127=0.137 keeps the "
        "permuted ACF near 0.12 at H=0.8",
    )
    assert ctl_ok >= 95
    assert dec_ok >= 90, (
        "block permutation cannot push the ACF below the white-noise band "
        "at H=0.8: expectation over in-block pairs keeps correlation ~0.137"
    )


def test_criterion_08_gaussian_diameter(verdict):
    from scipy.special import ndtr

    x = np.linspace(-10.0, 10.0, 2_000_001)
    worst = 0.0
    for v in (1.1, 2.0, 4.0, 10.0, 0.5):
        brute = float(np.max(np.abs(ndtr(x) - ndtr(x / math.sqrt(v)))))
        worst = max(worst, abs(gaussian_diameter(v) - brute))
    eps = 1e-4
    slope = (gaussian_diameter(1.0 + eps) - gaussian_diameter(1.0)) / eps
    target = 1.0 / (2.0 * math.sqrt(2.0 * math.pi * math.e))
    rel = abs(slope - target) / target
    ok = worst <= 1e-6 and rel <= 1e-3
    verdict(
        8,
        ok,
        f"max |closed-form - brute| = {worst:.2e} (<=1e-6); "
        f"slope rel err = {rel:.2e} (<=1e-3)",
    )
    assert ok


def test_criterion_09_ks_brute_force(verdict):
    rng = np.random.default_rng(2029)
    exact = 0
    for _ in range(1000):
        n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if rng.random() < 0.5:
            x, y = rng.standard_normal(n), rng.standard_normal(m)
        else:  # discrete values force ties within and across samples
            x = rng.integers(0, 4, n).astype(float)
            y = rng.integers(0, 4, m).astype(float)
        got = ks_two_sample(
            EmpiricalCdf.from_sample(x), EmpiricalCdf.from_sample(y)
        )
        best = 0.0
        for t in np.concatenate([x, y]):
            best = max(best, abs(np.mean(x <= t) - np.mean(y <= t)))
            best = max(best, abs(np.mean(x < t) - np.mean(y < t)))
        exact += int(got == best)
    ok = exact == 1000
    verdict(9, ok, f"exact matches on {exact}/1000 random instances (n,m<=8)")
    assert ok


def test_criterion_10_variance_ordering(verdict):
    rep = check_variance_ordering(VarianceOrderingSpec(seed=0))
    eq = check_variance_ordering(
        VarianceOrderingSpec(
            n_outer=100_000, n_partition=100_000, noise_sigma=0.0, seed=0
        )
    )
    slack_lvl = rep.gap / rep.gap_se
    slack_sqrt = rep.sqrt_gap / rep.sqrt_gap_se
    eq_ok = abs(eq.gap) <= 3.0 * max(eq.gap_se, 1e-12)
    ok = slack_lvl >= 5.0 and slack_sqrt >= 5.0 and eq_ok
    verdict(
        10,
        ok,
        f"level slack {slack_lvl:.1f} SE, sqrt slack {slack_sqrt:.1f} SE "
        f"(both >=5); equality gap {eq.gap:.2e} within 3 SE",
    )
    assert ok
