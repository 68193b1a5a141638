"""The four benchmark workloads.

Each workload turns the seed into a fixed cycle of op specs at
construction; the runner executes the cycle in order, one op at a
time (a closed loop with one caller), and repeats it until the run's
time is up.  ``run`` is the timed part and calls hurstks only through
module attributes, so the tracer's rebinding reaches the benchmark's
own calls too.  ``outcome`` runs untimed: it reads what the op
produced and returns the estimates and a digest of every output, or
raises :class:`OpFailure` with a reason.

File-writing ops use names relative to the working directory, which
the runner sets to the run's scratch directory, so ``report.json``
holds the same bytes in every checkout.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import hashlib
import io
import json
import os
import re
from dataclasses import astuple, dataclass

import numpy as np

from hurstks import cli, fgn, minimize
from hurstks.fgn import FgnSpec
from hurstks.ksdist import RescaledPair
from hurstks.minimize import OptimizerConfig
from hurstks.permute import PermutationPlan

H_CYCLE = (0.2, 0.5, 0.8)


class OpFailure(Exception):
    """An op's output broke a check; the message is the reason."""


@dataclass(frozen=True)
class Estimate:
    label: str
    h_true: float
    h_hat: float
    delta_min: float


@dataclass(frozen=True)
class Outcome:
    estimates: tuple[Estimate, ...]
    digest: str
    # Bytes of output files per layer that wrote them.
    bytes_written: dict


def _seeds(seed: int, key: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed, spawn_key=(key,)).generate_state(count)]


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class Workload:
    name = ""
    # Closed loop, one caller; ``cycle_length`` ops per pass.
    cycle_length = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Generate input files; repeatable, so set-up can be timed."""

    def cycle(self) -> list:
        raise NotImplementedError

    def run(self, spec):
        raise NotImplementedError

    def outcome(self, spec, raw) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Remove large scratch files the ops left behind."""

    def determinism_reason(self) -> str:
        return "output differs from the first run of the same op"


class EstimateMc(Workload):
    """Simulate a 4097-point path, estimate with uniform T=500 and Brent."""

    name = "estimate_mc"
    cycle_length = 60

    def cycle(self):
        return [
            (H_CYCLE[k % 3], *_seeds(self.seed, k, 2)) for k in range(self.cycle_length)
        ]

    def run(self, spec):
        hurst, path_seed, plan_seed = spec
        path = fgn.simulate_fbm(FgnSpec(hurst=hurst, length=4097, seed=path_seed))
        pair = RescaledPair(
            fine=fgn.increments(path, 1), coarse=fgn.increments(path, 50), a_max=50
        )
        plan = PermutationPlan(scheme="uniform_sample", subsample_size=500, seed=plan_seed)
        return minimize.estimate_hurst(pair, plan, OptimizerConfig())

    def outcome(self, spec, raw):
        est = Estimate("brent", spec[0], raw.h_hat, raw.delta_min)
        return Outcome((est,), _sha256(repr(astuple(raw)).encode()), {})


class OptimizerCompare(Workload):
    """One bench_optimizers cell: one path, all four methods."""

    name = "optimizer_compare"
    # Op cost follows the annealing chain's evaluations, which vary
    # by cell; six cells keep the median op from resting on one.
    cycle_length = 6

    def cycle(self):
        return [(H_CYCLE[k % 3], _seeds(self.seed, k, 1)[0]) for k in range(self.cycle_length)]

    def run(self, spec):
        hurst, base_seed = spec
        configs = [OptimizerConfig(method=m) for m in minimize.METHODS]
        return minimize.bench_optimizers([hurst], 1, configs, base_seed=base_seed)

    def outcome(self, spec, raw):
        errors = [f"{r.method}: {r.error}" for r in raw if r.error]
        if errors:
            raise OpFailure("bench row failed: " + "; ".join(errors))
        if sorted(r.method for r in raw) != sorted(minimize.METHODS):
            raise OpFailure(f"expected one row per method, got {[r.method for r in raw]}")
        estimates = tuple(Estimate(r.method, spec[0], r.h_hat, r.delta_min) for r in raw)
        stable = [(r.method, r.h_hat, r.delta_min, r.evaluations) for r in raw]
        return Outcome(estimates, _sha256(repr(stable).encode()), {})


class AnalyzeWindows(Workload):
    """``hurstks analyze`` on a generated 10 x 1512-point level series."""

    name = "analyze_windows"
    cycle_length = 1
    hurst = 0.15
    input_file = "levels.csv"
    out_dir = "analyze_out"

    def setup(self):
        path = fgn.simulate_fbm(FgnSpec(hurst=self.hurst, length=15_120, scale=0.3, seed=self.seed))
        day, one = dt.date(2000, 1, 3), dt.timedelta(days=1)
        with open(self.input_file, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date", "value"])
            for value in np.exp(path.values):
                writer.writerow([day.isoformat(), repr(float(value))])
                day += one

    def cycle(self):
        return [_seeds(self.seed, 0, 1)[0]]

    def run(self, spec):
        return _run_cli(
            ["analyze", "--input", self.input_file, "--window", "1512", "--amax", "21",
             "--seed", str(spec), "--out-dir", self.out_dir]
        )

    def outcome(self, spec, raw):
        code, _ = raw
        if code != 0:
            raise OpFailure(f"analyze exited with code {code}")
        with open(os.path.join(self.out_dir, "report.json"), "rb") as fh:
            report = fh.read()
        with open(os.path.join(self.out_dir, "windows.csv"), "rb") as fh:
            windows = fh.read()
        doc = json.loads(report)
        estimates = tuple(
            Estimate(f"window {w['window_index']}", self.hurst, w["h_hat"], w["delta_min"])
            for series in doc["series"]
            for w in series["windows"]
        )
        if len(estimates) != 10:
            raise OpFailure(f"expected 10 windows, report has {len(estimates)}")
        return Outcome(
            estimates, _sha256(report, b"\0", windows), {"pipeline": len(report) + len(windows)}
        )

    def determinism_reason(self):
        return "report.json or windows.csv bytes differ from the first op"


_FIELD = re.compile(r"^(h_hat|delta_min) = (\S+)$", re.MULTILINE)


class CliRoundtrip(Workload):
    """``hurstks simulate`` 262,145 points to CSV, then ``hurstks estimate``."""

    name = "cli_roundtrip"
    cycle_length = 3
    path_file = "path.csv"

    def cycle(self):
        return [(H_CYCLE[k % 3], *_seeds(self.seed, k, 2)) for k in range(self.cycle_length)]

    def run(self, spec):
        hurst, sim_seed, est_seed = spec
        sim = _run_cli(
            ["simulate", "--hurst", repr(hurst), "--length", "262145", "--seed", str(sim_seed),
             "--out", self.path_file]
        )
        est = _run_cli(
            ["estimate", "--input", self.path_file, "--amax", "50", "--subseq", "500",
             "--optimizer", "brent", "--seed", str(est_seed)]
        )
        return sim, est

    def outcome(self, spec, raw):
        (sim_code, sim_out), (est_code, est_out) = raw
        if sim_code != 0 or est_code != 0:
            raise OpFailure(f"simulate exited {sim_code}, estimate exited {est_code}")
        fields = dict(_FIELD.findall(est_out))
        if set(fields) != {"h_hat", "delta_min"}:
            raise OpFailure(f"estimate printed no h_hat/delta_min: {est_out!r}")
        with open(self.path_file, "rb") as fh:
            data = fh.read()
        est = Estimate("brent", spec[0], float(fields["h_hat"]), float(fields["delta_min"]))
        digest = _sha256(data, sim_out.encode(), est_out.encode())
        return Outcome((est,), digest, {"cli": len(data)})

    def teardown(self):
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.path_file)


WORKLOADS = {w.name: w for w in (EstimateMc, OptimizerCompare, AnalyzeWindows, CliRoundtrip)}
