#!/usr/bin/env python
"""CI check: a parallel sweep must equal the serial sweep byte-for-byte.

Runs each named experiment twice — in-process (``jobs=1``) and across
a process pool (``--jobs``, default 4) — and compares the JSON
serialization of the two sets of ``ExperimentResult`` objects.  Any
divergence means a sweep cell leaked state between processes (an
unseeded RNG, a module-level cache, ambient-recorder contamination)
or lost the side data it hands its notes, and fails the job.

The default ids are ``fig2`` (a reduced grid of SSD-only cells) and
``table8`` at a tiny preset: a trace-group sweep whose cells return
each stack's whole-run SSD-tap amplification alongside the cell text,
which crosses the pool and ends up in a note.  The acceptance suites
(``tenants``, ``rebuild``, ``cluster``) fan unlike runs whose results
feed each other's rows and checks; CI names them too.

Usage::

    PYTHONPATH=src python scripts/check_parallel_identity.py --jobs 4
    PYTHONPATH=src python scripts/check_parallel_identity.py fig7 --jobs 2
    PYTHONPATH=src python scripts/check_parallel_identity.py \
        tenants rebuild cluster --jobs 4
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import ExperimentScale, run_experiment     # noqa: E402
from repro.harness.experiments import REGISTRY            # noqa: E402

# A reduced fig2 grid keeps the check under a minute while still
# spanning multiple rows and columns (so result reshaping is exercised).
FIG2_GRID = dict(rows=(0.0, 0.2, 0.4), columns=("32MB", "128MB", "512MB"))
TINY = dict(scale=1 / 512, warmup=0.2, duration=0.2)
# A 1/512 shard holds too few segment groups to build (ConfigError).
PRESETS = {"cluster": dict(scale=1 / 128, warmup=0.5, duration=0.5)}


def results(exp_id: str, seed: int, jobs: int) -> list:
    """The experiment's results as JSON-ready dicts."""
    if exp_id == "fig2":
        es = ExperimentScale(scale=1 / 64, warmup=5.0, duration=5.0,
                             seed=seed)
        out = [REGISTRY["fig2"].sweep.only(**FIG2_GRID).run(es, jobs)]
    else:
        es = ExperimentScale(seed=seed, **PRESETS.get(exp_id, TINY))
        out = run_experiment(exp_id, es, jobs)
    return [result.as_dict() for result in out]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiments", nargs="*", default=["fig2", "table8"],
                        metavar="experiment")
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    failed = False
    for exp_id in args.experiments:
        t0 = time.perf_counter()
        serial = results(exp_id, args.seed, 1)
        t1 = time.perf_counter()
        parallel = results(exp_id, args.seed, args.jobs)
        t2 = time.perf_counter()

        a = json.dumps(serial, sort_keys=True)
        b = json.dumps(parallel, sort_keys=True)
        print(f"{exp_id}: serial {t1 - t0:.2f}s, "
              f"--jobs {args.jobs} {t2 - t1:.2f}s")
        if a != b:
            print(f"FAIL: {exp_id}: parallel sweep diverged from serial",
                  file=sys.stderr)
            print(f"serial:   {a}", file=sys.stderr)
            print(f"parallel: {b}", file=sys.stderr)
            failed = True
            continue
        print(f"OK: {exp_id}: --jobs {args.jobs} result is byte-identical "
              f"to serial")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
