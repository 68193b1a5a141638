"""Golden record of the estimator's exact output.

The literals below pin, bit for bit, what ``minimize_scalar`` returns
on frozen KS objectives and the bytes ``run_static_analysis`` writes.
A change meant to leave estimates alone (a refactor, a speed-up) must
pass this file unchanged.  Regenerate the literals only when a change
is meant to move estimates, and say why in that change, the rule of
``perfbench/make_reference.py``:

    PYTHONPATH=src python tests/test_golden.py

prints the current values in the form of ``REPORTS`` and ``FILES``.
The paths are simulated by FFT, so another numpy build may round them
differently; the record was made with numpy 2.4.6.
"""

import csv
import datetime as dt
import hashlib
import os
import tempfile

import numpy as np

from hurstks.fgn import FgnSpec, increments, simulate_fbm
from hurstks.ksdist import RescaledPair
from hurstks.minimize import METHODS, OptimizerConfig, _frozen_objective, minimize_scalar
from hurstks.permute import PermutationPlan
from hurstks.pipeline import build_manifest, run_static_analysis

HURSTS = (0.2, 0.5, 0.8)
GRID_STEPS = (1e-4, 0.07)
BUDGETS = (50, 10_000)


def _objective(hurst: float):
    # The estimate_mc recipe: a 4097-point path, lags 1 and 50, both
    # samples cut to 500 by the uniform scheme.
    path = simulate_fbm(FgnSpec(hurst=hurst, length=4097, seed=int(hurst * 100)))
    pair = RescaledPair(fine=increments(path, 1), coarse=increments(path, 50), a_max=50)
    plan = PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=7)
    return _frozen_objective(pair, plan)[0]


def _reports() -> dict:
    out = {}
    for hurst in HURSTS:
        frozen = _objective(hurst)
        for method in METHODS:
            for step in GRID_STEPS:
                for budget in BUDGETS:
                    config = OptimizerConfig(method=method, grid_step=step, max_evals=budget)
                    r = minimize_scalar(frozen, config)
                    key = (hurst, method, step, budget)
                    out[key] = (r.h_hat.hex(), r.delta_min.hex(), r.evaluations, r.converged)
    return out


def _files() -> dict:
    # Three 1512-point windows of a level series, analysed with the
    # defaults (a_max 21, Brent); run in the working directory so that
    # report.json holds relative paths.
    path = simulate_fbm(FgnSpec(hurst=0.15, length=3 * 1512, scale=0.3, seed=11))
    day, one = dt.date(2000, 1, 3), dt.timedelta(days=1)
    with open("levels.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for value in np.exp(path.values):
            writer.writerow([day.isoformat(), repr(float(value))])
            day += one
    run_static_analysis(build_manifest({"input": "levels.csv", "out_dir": "out"}))
    out = {}
    for name in ("report.json", "windows.csv"):
        with open(os.path.join("out", name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


REPORTS = {
    (0.2, 'grid', 0.0001, 50): ('0x1.0cb295e9e1b09p-8', '0x1.916872b020c48p-3', 50, False),
    (0.2, 'grid', 0.0001, 10000): ('0x1.926e978d4fdf4p-3', '0x1.89374bc6a7f00p-5', 10000, True),
    (0.2, 'grid', 0.07, 50): ('0x1.ae147ae147ae2p-3', '0x1.89374bc6a7f00p-5', 14, True),
    (0.2, 'grid', 0.07, 10000): ('0x1.ae147ae147ae2p-3', '0x1.89374bc6a7f00p-5', 14, True),
    (0.2, 'brent', 0.0001, 50): ('0x1.a396d76a89ad0p-3', '0x1.89374bc6a7f00p-5', 50, False),
    (0.2, 'brent', 0.0001, 10000): ('0x1.926e978d4fdf4p-3', '0x1.89374bc6a7f00p-5', 410, True),
    (0.2, 'brent', 0.07, 50): ('0x1.a396d76a89ad0p-3', '0x1.89374bc6a7f00p-5', 50, False),
    (0.2, 'brent', 0.07, 10000): ('0x1.93c73c479730dp-3', '0x1.89374bc6a7f00p-5', 115, True),
    (0.2, 'nelder_mead', 0.0001, 50): ('0x1.a396d76a89ad0p-3', '0x1.89374bc6a7f00p-5', 50, False),
    (0.2, 'nelder_mead', 0.0001, 10000): ('0x1.926e978d4fdf4p-3', '0x1.89374bc6a7f00p-5', 459, True),
    (0.2, 'nelder_mead', 0.07, 50): ('0x1.a396d76a89ad0p-3', '0x1.89374bc6a7f00p-5', 50, False),
    (0.2, 'nelder_mead', 0.07, 10000): ('0x1.93ee721a54d8ap-3', '0x1.89374bc6a7f00p-5', 163, True),
    (0.2, 'simulated_annealing', 0.0001, 50): ('0x1.1c5d63886594bp-2', '0x1.ba5e353f7cedap-4', 50, False),
    (0.2, 'simulated_annealing', 0.0001, 10000): ('0x1.926e978d4fdf4p-3', '0x1.89374bc6a7f00p-5', 1365, True),
    (0.2, 'simulated_annealing', 0.07, 50): ('0x1.ae147ae147ae2p-3', '0x1.89374bc6a7f00p-5', 40, True),
    (0.2, 'simulated_annealing', 0.07, 10000): ('0x1.ae147ae147ae2p-3', '0x1.89374bc6a7f00p-5', 241, True),
    (0.5, 'grid', 0.0001, 50): ('0x1.b089a02752546p-9', '0x1.89374bc6a7efap-2', 50, False),
    (0.5, 'grid', 0.0001, 10000): ('0x1.00c49ba5e3540p-1', '0x1.cac083126e980p-6', 10000, True),
    (0.5, 'grid', 0.07, 50): ('0x1.f5c28f5c28f5dp-2', '0x1.374bc6a7ef9dcp-5', 14, True),
    (0.5, 'grid', 0.07, 10000): ('0x1.f5c28f5c28f5dp-2', '0x1.374bc6a7ef9dcp-5', 14, True),
    (0.5, 'brent', 0.0001, 50): ('0x1.0579aafcb2b83p-1', '0x1.0624dd2f1a9fcp-5', 50, False),
    (0.5, 'brent', 0.0001, 10000): ('0x1.00c49ba5e3540p-1', '0x1.cac083126e980p-6', 420, True),
    (0.5, 'brent', 0.07, 50): ('0x1.0579aafcb2b83p-1', '0x1.0624dd2f1a9fcp-5', 50, False),
    (0.5, 'brent', 0.07, 10000): ('0x1.004178705425fp-1', '0x1.eb851eb851ec0p-6', 71, True),
    (0.5, 'nelder_mead', 0.0001, 50): ('0x1.0579aafcb2b83p-1', '0x1.0624dd2f1a9fcp-5', 50, False),
    (0.5, 'nelder_mead', 0.0001, 10000): ('0x1.00c49ba5e3540p-1', '0x1.cac083126e980p-6', 409, True),
    (0.5, 'nelder_mead', 0.07, 50): ('0x1.0579aafcb2b83p-1', '0x1.0624dd2f1a9fcp-5', 50, False),
    (0.5, 'nelder_mead', 0.07, 10000): ('0x1.00ec083126e99p-1', '0x1.cac083126e980p-6', 117, True),
    (0.5, 'simulated_annealing', 0.0001, 50): ('0x1.fe0ded288ce71p-2', '0x1.eb851eb851ec0p-6', 50, False),
    (0.5, 'simulated_annealing', 0.0001, 10000): ('0x1.00c49ba5e3540p-1', '0x1.cac083126e980p-6', 590, True),
    (0.5, 'simulated_annealing', 0.07, 50): ('0x1.004189374bc6ap-1', '0x1.eb851eb851ec0p-6', 40, True),
    (0.5, 'simulated_annealing', 0.07, 10000): ('0x1.004189374bc6ap-1', '0x1.eb851eb851ec0p-6', 241, True),
    (0.8, 'grid', 0.0001, 50): ('0x1.0624dd2f1a9fcp-11', '0x1.395810624dd2fp-1', 50, False),
    (0.8, 'grid', 0.0001, 10000): ('0x1.91de69ad42c3dp-1', '0x1.604189374bc6cp-4', 10000, True),
    (0.8, 'grid', 0.07, 50): ('0x1.8a3d70a3d70a4p-1', '0x1.a1cac083126e8p-4', 14, True),
    (0.8, 'grid', 0.07, 10000): ('0x1.8a3d70a3d70a4p-1', '0x1.a1cac083126e8p-4', 14, True),
    (0.8, 'brent', 0.0001, 50): ('0x1.979d5c93f5221p-1', '0x1.6872b020c49bcp-4', 50, False),
    (0.8, 'brent', 0.0001, 10000): ('0x1.91de69ad42c3dp-1', '0x1.604189374bc6cp-4', 406, True),
    (0.8, 'brent', 0.07, 50): ('0x1.979d5c93f5221p-1', '0x1.6872b020c49bcp-4', 50, False),
    (0.8, 'brent', 0.07, 10000): ('0x1.921ac506c4030p-1', '0x1.604189374bc6cp-4', 113, True),
    (0.8, 'nelder_mead', 0.0001, 50): ('0x1.979d5c93f5221p-1', '0x1.6872b020c49bcp-4', 50, False),
    (0.8, 'nelder_mead', 0.0001, 10000): ('0x1.91de69ad42c3dp-1', '0x1.604189374bc6cp-4', 412, True),
    (0.8, 'nelder_mead', 0.07, 50): ('0x1.979d5c93f5221p-1', '0x1.6872b020c49bcp-4', 50, False),
    (0.8, 'nelder_mead', 0.07, 10000): ('0x1.921c28f5c28f7p-1', '0x1.604189374bc6cp-4', 119, True),
    (0.8, 'simulated_annealing', 0.0001, 50): ('0x1.60f9096bb98c8p-1', '0x1.a1cac083126ecp-3', 50, False),
    (0.8, 'simulated_annealing', 0.0001, 10000): ('0x1.91de69ad42c3dp-1', '0x1.604189374bc6cp-4', 530, True),
    (0.8, 'simulated_annealing', 0.07, 50): ('0x1.8a3d70a3d70a4p-1', '0x1.a1cac083126e8p-4', 40, True),
    (0.8, 'simulated_annealing', 0.07, 10000): ('0x1.91dfdd4f7e3ebp-1', '0x1.604189374bc6cp-4', 241, True),
}

FILES = {
    'report.json': '062b4aa9f814ede8b76282181135a831c14baeea9d0c13dd44cb506c64704308',
    'windows.csv': '0c76fb8a11eb5e199d064e6e4dc3ff07ce602842c8ce6e3127e902cdadab1acd',
}


def test_minimize_scalar_reports_match_the_record():
    got = _reports()
    assert set(got) == set(REPORTS)
    mismatched = {key: (got[key], REPORTS[key]) for key in REPORTS if got[key] != REPORTS[key]}
    assert mismatched == {}


def test_analysis_files_match_the_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _files() == FILES


if __name__ == "__main__":
    print("REPORTS = {")
    for key, value in _reports().items():
        print(f"    {key!r}: {value!r},")
    print("}\n\nFILES = {")
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for name, digest in _files().items():
            print(f"    {name!r}: {digest!r},")
    print("}")
