#!/usr/bin/env python
"""Alternating parent / change pairs of one benchmark workload.

The measurement behind every pair table in docs/performance.md, as one
command: runs ``bench/run.py --workload W --seed S --seconds T --trace
0`` alternately in two checkouts (the side that goes first alternates
too, so a drifting machine favours neither), and prints each side's
median, quartiles and min .. max of ``host_req_per_s``, ``setup_s`` and
``peak_rss_mb`` with the number of pairs the change is ahead in (ties
count for neither side).  Nothing is imported from either checkout:
each side is the driver's own command, in its own process.

Exits 1 if any run reports ``correct`` false or a failed op, or if the
two sides' ``sim_digest`` ever differ — a speed-up that moves simulated
output is not one.

Usage::

    git clone -q . /root/scratch/parent
    git -C /root/scratch/parent checkout -q HEAD~1
    python scripts/bench_pairs.py /root/scratch/parent . \
        --workload tenants-write-hot --pairs 10
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

# metric -> +1 if higher is better, -1 if lower (BENCHMARK.json).
METRICS = {"host_req_per_s": 1, "setup_s": -1, "peak_rss_mb": -1}
_DIGEST = re.compile(r"sim_digest ([0-9a-f]+)")


def parse_run(stdout: str) -> dict:
    """One driver run: the last line's JSON plus the digest the report
    header printed."""
    doc = json.loads(stdout.strip().splitlines()[-1])
    digest = _DIGEST.search(stdout)
    return {"correct": doc["correct"], "failed": doc["failed"],
            "sim_digest": digest.group(1) if digest else None,
            **{name: doc["metrics"][name]["value"] for name in METRICS
               if name in doc["metrics"]}}


def fold(pairs: Sequence[Tuple[str, str]]) -> dict:
    """``(parent stdout, change stdout)`` per pair -> per metric and
    side the median, quartiles, min and max; per metric the pairs the
    change is ahead in; and ``problems``: what fails the comparison."""
    runs = [(parse_run(parent), parse_run(change))
            for parent, change in pairs]
    problems: List[str] = []
    for i, pair in enumerate(runs, 1):
        for side, run in zip(("parent", "change"), pair):
            if not run["correct"] or run["failed"]:
                problems.append(f"pair {i} {side}: correct={run['correct']} "
                                f"failed={run['failed']}")
        if pair[0]["sim_digest"] != pair[1]["sim_digest"]:
            problems.append(f"pair {i}: sim_digest {pair[0]['sim_digest']} "
                            f"!= {pair[1]['sim_digest']}")
    out: Dict[str, object] = {
        "pairs": len(runs), "problems": problems, "metrics": {},
        "sim_digests": sorted({str(run["sim_digest"])
                               for pair in runs for run in pair})}
    for name, sign in METRICS.items():
        sides = [[run[name] for run in column if name in run]
                 for column in zip(*runs)]
        if not all(sides):
            continue
        cell = {}
        for side, values in zip(("parent", "change"), sides):
            q1, median, q3 = np.percentile(values, [25, 50, 75]).tolist()
            cell[side] = {"median": median, "q1": q1, "q3": q3,
                          "min": min(values), "max": max(values)}
        cell["ahead"] = sum(sign * c > sign * p for p, c in zip(*sides))
        cell["ratio"] = cell["change"]["median"] / cell["parent"]["median"]
        out["metrics"][name] = cell
    return out


def render(folded: dict) -> str:
    lines = []
    for name, cell in folded["metrics"].items():
        sides = "   ".join(
            "{side} {median:.6g} ({q1:.6g} .. {q3:.6g}; "
            "{min:.6g} .. {max:.6g})".format(side=side, **cell[side])
            for side in ("parent", "change"))
        lines.append(f"  {name:<15} {sides}   change ahead {cell['ahead']} / "
                     f"{folded['pairs']} ({cell['ratio']:.3f}x by medians)")
    lines.append(f"  sim_digest {' '.join(folded['sim_digests'])}")
    lines += [f"  PROBLEM {problem}" for problem in folded["problems"]]
    return "\n".join(lines)


def run_side(checkout: Path, workload: str, seed: int, seconds: float) -> str:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    if not done.stdout.strip():
        raise SystemExit(f"{checkout}: bench/run.py printed nothing\n"
                         f"{done.stderr}")
    return done.stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=7)
    args = parser.parse_args(argv)
    checkouts = (args.parent_dir, args.change_dir)
    pairs = []
    for i in range(args.pairs):
        outputs = ["", ""]
        for side in (i % 2, 1 - i % 2):
            outputs[side] = run_side(checkouts[side], args.workload,
                                     args.seed, args.seconds)
        pairs.append(tuple(outputs))
        print(f"pair {i + 1}/{args.pairs}: " + "  ".join(
            f"{parse_run(out).get('host_req_per_s', float('nan')):.0f}"
            for out in outputs), flush=True)
    folded = fold(pairs)
    print(f"{args.workload} --seed {args.seed} --seconds {args.seconds:g}: "
          f"{args.pairs} alternating pairs, parent {args.parent_dir} / "
          f"change {args.change_dir}")
    print(render(folded))
    return 1 if folded["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
