"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest perfbench/test_perfbench.py -q

The repeat tests run one traced pass of each workload twice, about a
minute and a half in all.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.import_program()

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_and_outputs_repeat_and_tracing_changes_no_output(name, workdir):
    # Each op runs traced and untraced; the checker fails any op whose
    # outputs differ from the first run of that op, so failed == 0
    # means traced and untraced outputs are identical.
    a = run.run_workload(name, 0, 0.0, trace=True, setup=False)
    b = run.run_workload(name, 0, 0.0, trace=True, setup=False)
    for result in (a, b):
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] == 2 * result["cycle_length"]
        assert not result["unmeasured"]
    assert {k: o.digest for k, o in a["outcomes"].items()} == {
        k: o.digest for k, o in b["outcomes"].items()
    }
    for metric in tracing.EXACT_METRICS:
        assert a["per_layer"][metric] == b["per_layer"][metric], metric
    assert set(a["per_layer"]) == set(tracing.LAYER_METRICS)
    assert 0.9 < a["per_layer"]["trace.accounted_ratio"]["value"] <= 1.0


def test_missing_entry_point_reports_layer_unmeasured(workdir):
    renamed = tuple(
        dataclasses.replace(ep, attr="frozen_objective") if ep.attr == "scaled_diameter_fn" else ep
        for ep in tracing.ENTRY_POINTS
    )
    result = run.run_workload("estimate_mc", 0, 0.0, trace=True, entry_points=renamed, setup=False)
    assert result["failed"] == 0
    layer = result["per_layer"]
    for metric in ("ksdist.evals", "ksdist.us_per_eval", "minimize.evals_per_call.brent"):
        assert "hurstks.minimize.frozen_objective not found" in layer[metric]["unmeasured"]
    assert "unmeasured" not in layer["fgn.calls"]
    assert layer["minimize.calls"]["value"] == 1
    assert result["end_to_end"]["ops_per_s"]["value"] > 0


def test_reference_mismatch_fails_op_with_reason(workdir):
    workload = workloads.EstimateMc(0)
    spec = workload.cycle()[0]
    raw = workload.run(spec)
    good = [["brent", raw.h_hat, raw.delta_min]]
    assert run.Checker(workload, [good]).check(0, spec, raw, None) is not None
    bad = [["brent", raw.h_hat + 3e-3, raw.delta_min]]
    checker = run.Checker(workload, [bad])
    assert checker.check(0, spec, raw, None) is None
    (reason,) = checker.failures
    assert "differs from reference" in reason


def test_broken_invariant_and_raising_op_are_failures(workdir):
    workload = workloads.EstimateMc(0)
    spec = workload.cycle()[0]
    raw = dataclasses.replace(workload.run(spec), h_hat=0.0, delta_min=0.5, significant=False,
                              critical_value=0.1)
    checker = run.Checker(workload, None)
    assert checker.check(0, spec, raw, None) is None
    assert checker.check(1, spec, None, "op raised ValueError: boom") is None
    assert set(checker.failures) == {"brent: h_hat 0.0 outside (0, 1]", "op raised ValueError: boom"}


def test_stored_reference_matches_default_seed(workdir):
    result = run.run_workload("optimizer_compare", 0, 0.0, setup=False)
    assert result["failed"] == 0, result["failures"]
    assert result["reference_checked_ops"] == result["cycle_length"]


def test_profile_prints_no_result(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(run, "WORK", tmp_path)
    assert run.main(["--workload", "analyze_windows", "--seconds", "0", "--profile", "5"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out
    assert '"correct"' not in out


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "estimate_mc", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
