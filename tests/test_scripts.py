"""Smoke tests of the experiment scripts in ``scripts/`` on tiny inputs."""

import csv
import functools
import importlib.util
import pathlib

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_optimizer_bench(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    script = _load("optimizer_bench")
    code = script.main(
        ["--h-list", "0.5", "--reps", "1", "--methods", "brent,nelder_mead",
         "--length", "1025", "--subseq", "200", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert f"1 cells x 3 methods -> {out}" in stdout
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sorted(r["method"] for r in rows) == ["brent", "grid", "nelder_mead"]
    assert all(r["error"] == "" for r in rows)
    for method in ("brent", "nelder_mead"):
        assert any(line.startswith(method) for line in stdout.splitlines())


def test_optimizer_bench_leaves_out_unconverged_cells(tmp_path, capsys, monkeypatch):
    script = _load("optimizer_bench")
    monkeypatch.setattr(
        script, "OptimizerConfig", functools.partial(script.OptimizerConfig, max_evals=30)
    )
    code = script.main(
        ["--h-list", "0.5", "--reps", "2", "--methods", "brent",
         "--length", "1025", "--subseq", "200", "--out", str(tmp_path / "bench.csv")]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].split() == ["brent", "0/0", "nan", "0", "nan"]
    assert lines[-1].startswith("left out 2 method cells")


def test_recovery_experiment(capsys):
    script = _load("recovery_experiment")
    code = script.main(
        ["--h-list", "0.5", "--reps", "2", "--length", "1025", "--subseq", "200"]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 paths per exponent, N=1024 increments, a_max=50, T=200, optimizer=brent"
    h_true, mean = lines[-1].split()[:2]
    assert float(h_true) == 0.5
    assert 0.0 < float(mean) <= 1.0
    assert lines[-1].endswith("/2")



@pytest.mark.parametrize("reps", ["1", "0"])
def test_recovery_experiment_needs_two_paths(reps, capsys):
    script = _load("recovery_experiment")
    with pytest.raises(SystemExit) as exc:
        script.main(["--h-list", "0.5", "--reps", reps])
    assert exc.value.code == 2
    assert "--reps must be at least 2" in capsys.readouterr().err
