#!/usr/bin/env python3
"""Write perfbench/reference.json: the estimates of one pass over each
workload's op cycle for seeds 0-15, which later runs must reproduce.

    python3 perfbench/make_reference.py

Regenerate only when a change is meant to move estimates, and say why
in the change.
"""

import json
import os
import shutil
import sys

import run

SEEDS = range(16)


def main() -> int:
    run.import_program()
    doc = {}
    for name in run.WORKLOAD_NAMES:
        workdir = run.WORK / "reference" / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        os.chdir(workdir)
        for seed in SEEDS:
            result = run.run_workload(name, seed, 0.0, setup=False, reference=False)
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failures']}", file=sys.stderr)
                return 1
            outcomes = result["outcomes"]
            doc[f"{name}/{seed}"] = [
                [[e.label, e.h_hat, e.delta_min] for e in outcomes[k].estimates]
                for k in sorted(outcomes)
            ]
            print(f"{name} seed {seed}: {len(outcomes)} ops")
    rows = (f"{json.dumps(key)}: {json.dumps(doc[key])}" for key in sorted(doc))
    with open(run.REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
