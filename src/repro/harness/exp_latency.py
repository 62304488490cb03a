"""Supplementary: request latency percentiles per scheme.

The paper reports throughput only; operators also care about tail
latency, which the simulator tracks for free (reservoir-sampled
percentiles over the measured window).  Reuses the Figure 7 lineup:
SRC, SRC-S2D, Bcache5, Flashcache5 on each trace group.

Expected shape: the log-structured targets (SRC) ack buffered writes in
microseconds but pay periodic segment-write stalls; the block-mapped
baselines spread cost across every request; everyone's p99 is dominated
by backend round-trips on misses.

A ``(paced)`` row replays the write group with a per-thread think
time.  Saturated closed-loop replay leaves a device no spare capacity
for SRC's background reclaim to hide in; with any idleness in the
arrival process the reclaim scheduler soaks it up and the foreground
tail drops.
"""

from __future__ import annotations

from repro.harness.context import DEFAULT_SCALE, ExperimentScale
from repro.harness.exp_fig7 import SCHEMES, _builders
from repro.harness.results import ExperimentResult
from repro.harness.runner import TRACE_GROUPS, run_trace_group

LINEUP = tuple(SCHEMES)
# Per-thread pause between completion and next issue for the paced
# row: enough idleness for background reclaim to hide in.
PACED_THINK = 0.002


def run(es: ExperimentScale = DEFAULT_SCALE) -> ExperimentResult:
    result = ExperimentResult(
        experiment="Supplementary (latency)",
        title="Request latency, measured window: p50 | p99 | max (ms)",
        columns=["Scheme"] + list(TRACE_GROUPS),
    )
    builders = dict(_builders(es))
    cells = {scheme: [] for scheme in LINEUP}
    for group in TRACE_GROUPS:
        for scheme in LINEUP:
            target = builders[scheme]()
            res = run_trace_group(target, group, es)
            lat = res.latency
            cells[scheme].append(
                f"{lat.p50 * 1e3:.2f} | {lat.p99 * 1e3:.1f} | "
                f"{lat.max * 1e3:.0f}")
    for scheme in LINEUP:
        result.add_row(scheme, *cells[scheme])

    # Pace the replay threads and rerun SRC on the write-dominant group.
    paced = run_trace_group(builders["SRC"](), "write", es,
                            think_time=PACED_THINK)
    lat = paced.latency
    result.add_row(
        "SRC (paced)",
        f"{lat.p50 * 1e3:.2f} | {lat.p99 * 1e3:.1f} | {lat.max * 1e3:.0f}",
        "-", "-")

    result.notes.append("not in the paper; percentiles from a "
                        "reservoir sample of the measured window")
    result.notes.append(
        f"paced row: write group, {PACED_THINK * 1e3:.0f} ms think "
        "time per replay thread "
        f"(SRC {paced.throughput_mb_s:.1f} MB/s)")
    return result


if __name__ == "__main__":
    print(run().render())
