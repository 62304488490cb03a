"""Command-line interface: ``python -m repro <command>``.

Commands
--------
experiments              list the reproducible tables/figures
run <exp-id> [...]       run experiments; ``--format json`` adds telemetry,
                         ``--jobs N`` fans any experiment's cells over N
                         processes;
                         exits 1 if a result records acceptance
                         ``violation:`` notes (``run tenants``, ``run
                         cluster``, ``run rebuild``)
trace <exp-id>           run one experiment and dump its event trace
report [out.md]          run everything, write the experiments report
replay <group>           replay a trace group against a chosen target
export-trace <name> ...  materialise a synthetic trace as MSR CSV
chaos                    crash-point exploration (``--budget 0``: every
                         point), the broken-seal sensitivity proof and
                         the composed-fault scheduler; exits 1 on any
                         violation

Any :class:`~repro.common.errors.ReproError` escaping a command is
reported as a one-line message and exit status 2.

Every run-like command accepts the scale flags ``--scale`` (a float or
a fraction such as ``1/32``), ``--seed``, ``--warmup`` and
``--duration``; ``--quick`` selects the cheaper preset as the base the
flags override.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.api import (DEFAULT_SCALE, EXPERIMENTS, QUICK_SCALE,
                       ExperimentScale, ReproError, result_violations,
                       run_experiment)

# Sampling cadence (simulated seconds) for ``--format json`` telemetry.
SAMPLE_INTERVAL = 0.25


def _parse_scale(text: str) -> float:
    """Accept either a float (``0.03125``) or a fraction (``1/32``)."""
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return float(num) / float(den)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(
                f"bad scale fraction {text!r}") from exc
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad scale {text!r}") from exc


def _add_scale_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--quick", action="store_true",
                        help="use the smaller/faster preset as the base")
    parser.add_argument("--scale", type=_parse_scale, default=None,
                        metavar="FRAC",
                        help="device/footprint scale, e.g. 1/32 or 0.03125")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed")
    parser.add_argument("--warmup", type=float, default=None,
                        metavar="SECONDS",
                        help="unmeasured simulated warm-up window")
    parser.add_argument("--duration", type=float, default=None,
                        metavar="SECONDS",
                        help="measured simulated window")


def _scale_from(args) -> ExperimentScale:
    """Build the preset: ``--quick`` picks the base, flags override it."""
    es = QUICK_SCALE if getattr(args, "quick", False) else DEFAULT_SCALE
    overrides = {}
    for name in ("scale", "seed", "warmup", "duration"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return replace(es, **overrides) if overrides else es


def cmd_experiments(_args) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for key, (_, blurb) in EXPERIMENTS.items():
        print(f"{key:<{width}}  {blurb}")
    return 0


def cmd_run(args) -> int:
    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s) {', '.join(map(repr, unknown))}; "
              f"see 'python -m repro experiments'", file=sys.stderr)
        return 2
    es = _scale_from(args)
    failed = False

    if args.format == "table":
        first = True
        for exp_id in args.experiments:
            for result in run_experiment(exp_id, es, jobs=args.jobs):
                if not first:
                    print()
                print(result.render())
                first = False
                failed = failed or bool(result_violations(result))
        return 1 if failed else 0

    # --format json: observe each experiment with its own recorder so
    # telemetry (per-device latency, GC events, samples) is per-run.
    from repro.api import ObsRecorder, to_json, use
    payloads = []
    for exp_id in args.experiments:
        recorder = ObsRecorder(sample_interval=SAMPLE_INTERVAL)
        with use(recorder):
            results = run_experiment(exp_id, es, jobs=args.jobs)
        failed = failed or any(result_violations(r) for r in results)
        payloads.append({
            "id": exp_id,
            "results": [r.as_dict() for r in results],
            "telemetry": recorder.telemetry(),
            "paths": recorder.paths(),
        })
    out = payloads[0] if len(payloads) == 1 else payloads
    print(to_json(out))
    return 1 if failed else 0


def cmd_trace(args) -> int:
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; see "
              f"'python -m repro experiments'", file=sys.stderr)
        return 2
    from repro.api import ObsRecorder, events_to_csv, use
    es = _scale_from(args)
    recorder = ObsRecorder()
    with use(recorder):
        run_experiment(args.experiment, es)

    events = recorder.trace.events
    if args.type:
        events = [e for e in events if e.kind == args.type]
    counts = recorder.trace.counts()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"# {args.experiment}: {len(recorder.trace)} events recorded "
          f"({recorder.trace.dropped} dropped): {summary or 'none'}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as sink:
            events_to_csv(events, sink)
        print(f"# wrote {len(events)} events to {args.csv}")
        return 0
    shown = events if args.limit <= 0 else events[:args.limit]
    for event in shown:
        data = event.as_dict()
        extras = " ".join(
            f"{k}={v}" for k, v in data.items()
            if k not in ("type", "t", "device"))
        print(f"{data['t']:>12.6f}  {data['type']:<16} "
              f"{data['device']:<24} {extras}".rstrip())
    hidden = len(events) - len(shown)
    if hidden > 0:
        print(f"# ... {hidden} more (raise --limit or use --csv)")
    return 0


def cmd_report(args) -> int:
    from repro.api import generate_report
    label = " (--quick preset)" if args.quick else ""
    generate_report(_scale_from(args), args.output, quick_label=label)
    return 0


def cmd_replay(args) -> int:
    from repro.api import (CACHE_SPACE, SrcConfig, WritePolicy,
                           build_bcache, build_flashcache, build_src,
                           replay_group)
    es = _scale_from(args)
    builders = {
        "src": lambda: build_src(es.scale,
                                 SrcConfig(cache_space=CACHE_SPACE)),
        "bcache5": lambda: build_bcache(
            es.scale, raid_level=5, policy=WritePolicy.WRITE_BACK,
            writeback_percent=0.90),
        "flashcache5": lambda: build_flashcache(
            es.scale, raid_level=5, policy=WritePolicy.WRITE_BACK,
            dirty_thresh_pct=0.90),
    }
    if args.target not in builders:
        print(f"unknown target {args.target!r} "
              f"(src | bcache5 | flashcache5)", file=sys.stderr)
        return 2
    if args.format == "json":
        from repro.api import ObsRecorder, collect, to_json, use
        recorder = ObsRecorder(sample_interval=SAMPLE_INTERVAL)
        with use(recorder):
            target = builders[args.target]()
            result = replay_group(target, args.group,
                                  scale=es.scale, duration=es.duration,
                                  warmup=es.warmup, seed=es.seed)
        print(to_json({
            "target": args.target,
            "group": args.group,
            "result": result.as_dict(),
            "devices": collect(target),
            "telemetry": recorder.telemetry(),
        }))
        return 0
    result = replay_group(builders[args.target](), args.group,
                          scale=es.scale, duration=es.duration,
                          warmup=es.warmup, seed=es.seed)
    print(f"{args.target} on {args.group}: "
          f"{result.throughput_mb_s:.1f} MB/s, "
          f"amplification {result.io_amplification:.2f}, "
          f"hit ratio {result.hit_ratio:.2f}")
    return 0


def cmd_chaos(args) -> int:
    from repro.api import run_chaos, to_json
    budget = None if args.budget <= 0 else args.budget
    scenarios = None if args.scenario == "all" else [args.scenario]
    payload = run_chaos(scenarios=scenarios, budget=budget,
                        frontier_path=args.frontier, seed=args.seed,
                        ops=args.ops, composed=not args.skip_composed)
    if args.format == "json":
        print(to_json(payload))
    else:
        for name, entry in payload["scenarios"].items():
            print(f"{name}: {entry['explored_now']} explored now, "
                  f"{entry['explored_total']}/{entry['discovered']} total, "
                  f"{entry['remaining']} remaining")
            for violation in entry["violations"]:
                print(f"  violation: {violation}")
        caught = payload["sensitivity"]["violations_caught"]
        print(f"sensitivity: ME seal skipped, {caught} violation(s) caught"
              if caught else
              "sensitivity: ME seal skipped, NOT caught - the explorer "
              "is blind")
        composed = payload["composed"]
        if composed is not None:
            print(f"composed: faults={','.join(composed['faults_composed'])} "
                  f"gc={composed['gc_collections']} "
                  f"checks={composed['invariant_checks']} "
                  f"differential_ok={composed['differential_ok']}")
            for violation in composed["violations"]:
                print(f"  violation: {violation}")
        print("chaos: OK" if payload["ok"] else "chaos: VIOLATIONS")
    return 0 if payload["ok"] else 1


def cmd_export_trace(args) -> int:
    from repro.api import export_synthetic_trace
    with open(args.output, "w", encoding="utf-8") as sink:
        count = export_synthetic_trace(args.trace, args.requests, sink,
                                       scale=args.scale, seed=args.seed)
    print(f"wrote {count} records to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="SRC (Middleware'15) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("experiments", help="list reproducible experiments")

    run = sub.add_parser("run", help="run one or more experiments")
    run.add_argument("experiments", nargs="+", metavar="experiment")
    run.add_argument("--format", choices=("table", "json"),
                     default="table",
                     help="table (default) or json with telemetry")
    run.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="processes to fan every experiment's cells "
                          "over; results are identical to --jobs 1")
    _add_scale_flags(run)

    trace = sub.add_parser(
        "trace", help="run one experiment, dump its event trace")
    trace.add_argument("experiment")
    trace.add_argument("--limit", type=int, default=50,
                       help="max events to print (<=0 for all)")
    trace.add_argument("--type", default=None,
                       help="only events of this type (e.g. GcStart)")
    trace.add_argument("--csv", default=None, metavar="FILE",
                       help="write the filtered events as CSV instead")
    _add_scale_flags(trace)

    report = sub.add_parser("report", help="run everything, write report")
    report.add_argument("output", nargs="?", default="EXPERIMENTS.md")
    _add_scale_flags(report)

    replay = sub.add_parser("replay", help="replay a trace group")
    replay.add_argument("group", choices=["write", "mixed", "read"])
    replay.add_argument("--target", default="src")
    replay.add_argument("--format", choices=("table", "json"),
                        default="table")
    _add_scale_flags(replay)

    chaos = sub.add_parser(
        "chaos", help="chaos verification: crash-point exploration + "
                      "composed-fault scheduler")
    chaos.add_argument("--budget", type=int, default=40,
                       help="new crash points to explore per scenario "
                            "(<=0 explores everything: what CI runs)")
    chaos.add_argument("--scenario", choices=("all", "src", "cluster"),
                       default="all")
    chaos.add_argument("--frontier", default=None, metavar="FILE",
                       help="resumable frontier JSON for a budgeted "
                            "local exploration; omitted = in-memory")
    chaos.add_argument("--seed", type=int, default=0,
                       help="workload seed (changing it resets the "
                            "frontier's scenario)")
    chaos.add_argument("--ops", type=int, default=None,
                       help="override ops per exploration run")
    chaos.add_argument("--skip-composed", action="store_true",
                       help="skip the composed-fault scheduler pass")
    chaos.add_argument("--format", choices=("table", "json"),
                       default="table")

    export = sub.add_parser("export-trace",
                            help="export a synthetic trace as MSR CSV")
    export.add_argument("trace")
    export.add_argument("output")
    export.add_argument("--requests", type=int, default=10_000)
    export.add_argument("--scale", type=float, default=1.0)
    export.add_argument("--seed", type=int, default=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiments": cmd_experiments,
        "run": cmd_run,
        "trace": cmd_trace,
        "report": cmd_report,
        "replay": cmd_replay,
        "export-trace": cmd_export_trace,
        "chaos": cmd_chaos,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
