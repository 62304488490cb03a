#!/usr/bin/env python3
"""Steady-state perf ledger: one command, seven workloads.

Two ways in:

``python bench/run.py [--seed N] [--trace] [--smoke] [--out FILE]``
    every workload; three passes interleaved across workloads (pass 1
    of each, then pass 2, ...), one traced pass each with ``--trace``,
    and the forced-scalar twin check; prints every metric by name and
    unit and writes the result set as JSON.

``python bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload, as the benchmark driver calls it; the last line of
    standard output is one JSON object ``{correct, attempted, failed,
    metrics}`` holding the end-to-end metrics (``--trace 0``) or the
    per-layer metrics (``--trace 1``) that ``BENCHMARK.json`` lists.

Every (workload, pass) runs in a fresh subprocess, so peak RSS and
import state belong to that workload alone.  Host-time metrics are the
median of the passes; simulated metrics repeat exactly for a seed, and
``sim_digest`` proves it.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# The request counts in workloads.py are the size of a 16-second run
# (three timed windows of ~5 s); ``--seconds`` scales all of them by one
# common factor.
FULL_SIZE_SECONDS = 16
SMOKE_FACTOR = 1 / 20          # also the size of the twin check
PASSES = 3


def run_pass(**spec) -> dict:
    """One pass in a fresh interpreter; its result dict."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--pass-spec",
         json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"pass {spec} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def _pass_main(spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    print(json.dumps(measure.run_pass(**spec)))
    return 0


def problems_of(passes: List[dict]) -> List[str]:
    """Failed checks and digest disagreements of one workload's passes."""
    found = [f"{name}: {verdict}" for p in passes
             for name, verdict in p["checks"].items() if verdict != "ok"]
    digests = {p.get("sim_digest") for p in passes}
    if len(digests) != 1:
        found.append(f"sim_digest differs between passes: {sorted(digests)}")
    return found


def fail(result: dict, problem: str) -> None:
    """A failed check fails every op of the workload."""
    result["problems"].append(problem)
    result["failed_ops"] = result["attempted_ops"]


def fold(untraced: List[dict], traced: Optional[dict]) -> dict:
    """One workload's result: medians over passes, checks, per-layer."""
    passes = untraced + ([traced] if traced else [])
    out = {"attempted_ops": sum(p["attempted_ops"] for p in passes),
           "failed_ops": sum(p["failed_ops"] for p in passes),
           "problems": [], "sim_digest": passes[0].get("sim_digest")}
    for problem in problems_of(passes):
        fail(out, problem)
    good = [p for p in untraced if "end_to_end" in p]
    if len(good) == len(untraced):
        out["end_to_end"] = {}
        for metric in SPEC["end_to_end"]:
            values = [p["end_to_end"][metric["name"]] for p in good]
            out["end_to_end"][metric["name"]] = {
                "value": statistics.median(values), "unit": metric["unit"],
                "min": min(values), "max": max(values)}
        # Informative, not gated: the wall clock as it ran, and the host
        # speed the probes saw (1.0 = hostclock's reference).
        out["raw_host_req_per_s"] = statistics.median(
            p["attempted_ops"] / p["wall_s"] for p in good)
        out["host_speed"] = statistics.median(p["host_speed"] for p in good)
        out["half_io_amplification"] = good[0]["half_io_amplification"]
        out["warm_requests"] = good[0]["warm_requests"]
        out["timed_requests"] = good[0]["attempted_ops"]
    if traced and "per_layer" in traced and len(good) == len(untraced):
        layers = dict(traced["per_layer"])
        layers["trace.overhead"] = traced["wall_ref_s"] / statistics.median(
            p["wall_ref_s"] for p in good)
        if layers["trace.min_self_s"] < -1e-9:
            fail(out, f"negative span self time {layers['trace.min_self_s']}")
        out["per_layer"] = {
            m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]}
    return out


def report(name: str, result: dict) -> None:
    """Every metric of one workload by name, with its unit."""
    print(f"== {name}: attempted {result['attempted_ops']}, "
          f"failed {result['failed_ops']}, "
          f"sim_digest {result['sim_digest']}")
    for problem in result["problems"]:
        print(f"   PROBLEM {problem}")
    for kind in ("end_to_end", "per_layer"):
        for metric, cell in result.get(kind, {}).items():
            spread = (f"   [{cell['min']:.6g} .. {cell['max']:.6g}]"
                      if "min" in cell and cell["min"] != cell["max"] else "")
            print(f"   {metric:<32}{cell['value']:>16.6g} "
                  f"{cell['unit']}{spread}")
    if "half_io_amplification" in result:
        first, second = result["half_io_amplification"]
        print(f"   io_amplification by window half  {first:.4g} / "
              f"{second:.4g}")
        print(f"   wall-clock req/s {result['raw_host_req_per_s']:.6g} at "
              f"host speed {result['host_speed']:.3f} of reference")


def driver_run(args) -> int:
    """One workload, answering with the driver's one-line JSON."""
    factor = args.seconds / FULL_SIZE_SECONDS
    common = dict(name=args.workload, seed=args.seed, factor=factor)
    # The passes are proven identical by digest, so the checks that walk
    # the whole state run on the last one only; the deepest (every FTL,
    # up to 4.4 s) only in a traced run, to stay inside the driver's cap.
    if args.trace:
        untraced = [run_pass(**common, check_depth="window")]
        traced = run_pass(**common, traced=True, check_depth="deep")
    else:
        untraced = [run_pass(**common, check_depth="state"
                             if i == PASSES - 1 else "window")
                    for i in range(PASSES)]
        traced = None
    result = fold(untraced, traced)
    report(args.workload, result)
    kind = "per_layer" if args.trace else "end_to_end"
    correct = not result["problems"] and kind in result
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted_ops"],
        "failed": result["failed_ops"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result.get(kind, {}).items()},
    }))
    return 0 if correct else 1


def twin_check(name: str, seed: int, chunked: Optional[dict]) -> dict:
    """Chunked and forced-scalar runs at 1/20 size must digest alike.

    ``chunked`` is a pass already made at that size (a smoke run's own),
    or None to make one.
    """
    common = dict(name=name, seed=seed, factor=SMOKE_FACTOR,
                  check_depth="window")
    chunked = chunked or run_pass(**common)
    scalar = run_pass(**common, forced_scalar=True)
    return {"chunked": chunked.get("sim_digest"),
            "forced_scalar": scalar.get("sim_digest"),
            "agree": chunked.get("sim_digest") is not None
            and chunked.get("sim_digest") == scalar.get("sim_digest")}


def full_run(args) -> int:
    """Every workload: interleaved passes, traced pass, twins, JSON."""
    factor = SMOKE_FACTOR if args.smoke else args.seconds / FULL_SIZE_SECONDS
    n_passes = 1 if args.smoke else PASSES
    untraced: Dict[str, List[dict]] = {name: [] for name in WORKLOADS}
    for i in range(n_passes):
        for name in WORKLOADS:
            print(f"-- pass {i + 1}/{n_passes} {name}", flush=True)
            untraced[name].append(
                run_pass(name=name, seed=args.seed, factor=factor))
    results = {}
    for name in WORKLOADS:
        traced = None
        if args.trace:
            print(f"-- traced pass {name}", flush=True)
            traced = run_pass(name=name, seed=args.seed, factor=factor,
                              traced=True)
        results[name] = fold(untraced[name], traced)
    # (For ssd-randwrite, scalar already, the twin is a plain repeat.)
    for name in WORKLOADS:
        print(f"-- twin check {name}", flush=True)
        twin = results[name]["twin"] = twin_check(
            name, args.seed, untraced[name][0] if args.smoke else None)
        if not twin["agree"]:
            fail(results[name], "forced-scalar twin digests differently")
    steady = results["src-write-steady"]
    if "half_io_amplification" in steady and not args.smoke:
        first, second = steady["half_io_amplification"]
        if abs(first - second) > 0.10 * max(first, second):
            fail(steady, f"not in steady state: io_amplification {first:.3f} "
                 f"in the first half of the window, {second:.3f} in the "
                 "second")
    for name in WORKLOADS:
        report(name, results[name])
    payload = {
        "benchmark": "steady-state perf ledger (bench/run.py)",
        "seed": args.seed, "seconds": args.seconds, "size_factor": factor,
        "passes": n_passes, "smoke": args.smoke, "traced": bool(args.trace),
        "python": platform.python_version(), "machine": platform.machine(),
        "workloads": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=1) + "\n")
    failed = sum(r["failed_ops"] for r in results.values())
    print(f"wrote {args.out}; failed ops {failed}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                        help="sum of the three timed windows, nominal; "
                             "scales every request count")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 size, one pass, all checks")
    parser.add_argument("--out", type=Path,
                        default=BENCH / "out" / "results.json")
    parser.add_argument("--pass-spec", type=json.loads,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"{ROOT}/src/repro not found: the benchmark builds the "
                 "stacks from the repository's own source")
    if args.pass_spec is not None:
        return _pass_main(args.pass_spec)
    if args.workload:
        return driver_run(args)
    return full_run(args)


if __name__ == "__main__":
    raise SystemExit(main())
