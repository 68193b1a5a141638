"""The benchmark's tracer finds every program name it rebinds.

``perfbench/tracing.py`` wraps module attributes such as
``hurstks.minimize.minimize_scalar`` or
``hurstks.pipeline.confidence_interval`` by name.  A refactor that
renames or removes one of them does not fail the benchmark: it reports
the layer as unmeasured.  This test makes such a change fail the suite
instead.  A name that still exists but is no longer called through the
module attribute is as blind, so the input route is checked by call.
"""

import csv
import datetime as dt
import importlib
import json
from pathlib import Path

import numpy as np
import pytest

from hurstks import cli, pipeline
from hurstks.fgn import FgnSpec, simulate_fbm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The seeds with stored reference estimates of optimizer_compare.
COMPARE_SEEDS = sorted(
    int(key.partition("/")[2])
    for key in json.loads((PERFBENCH / "reference.json").read_text())
    if key.startswith("optimizer_compare/")
)


def test_tracer_binds_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    assert tracer.unmeasured == {}
    assert tracer.unbound == []


def _count_calls(monkeypatch, module, name) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _level_csv(file, seed):
    values = np.exp(simulate_fbm(FgnSpec(hurst=0.5, length=300, seed=seed)).values)
    with open(file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", "value"])
        for i, value in enumerate(values.tolist()):
            writer.writerow([dt.date(2001, 1, 1) + dt.timedelta(i), repr(value)])
    return str(file)


def test_front_ends_call_the_input_route_by_attribute(tmp_path, monkeypatch):
    # The tracer counts loads at cli.load_series and times the log
    # transform at pipeline.log_transform.
    files = [_level_csv(tmp_path / f"v{seed}.csv", seed) for seed in (0, 1)]
    loads = _count_calls(monkeypatch, cli, "load_series")
    transforms = _count_calls(monkeypatch, pipeline, "log_transform")
    argv = ["estimate", "--input", files[0], "--input-scale", "level", "--amax", "10"]
    assert cli.main(argv) == 0
    assert (len(loads), len(transforms)) == (1, 1)
    transforms.clear()
    argv = ["analyze", "--input", files[0], "--input2", files[1], "--window", "100",
            "--amax", "10", "--out-dir", str(tmp_path / "out")]
    assert cli.main(argv) == 0
    assert len(transforms) == 2


@pytest.mark.parametrize("seed", COMPARE_SEEDS)
def test_optimizer_compare_matches_every_stored_seed(seed, tmp_path, monkeypatch):
    # One pass of the cycle: every method's estimate in every op agrees
    # with the stored reference, not only on the seed the benchmark's
    # own tests run.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(tmp_path)
    run = importlib.import_module("run")
    result = run.run_workload("optimizer_compare", seed, 0.0, setup=False)
    assert result["failed"] == 0, result["failures"]
    assert result["reference_checked_ops"] == result["cycle_length"]
