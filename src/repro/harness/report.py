"""Full-reproduction report: run every experiment, write EXPERIMENTS.md.

``python -m repro report [out.md] [--quick]`` regenerates every table
and figure of the paper and renders the measured rows next to the
paper's reference values.
"""

from __future__ import annotations

import time

from repro.harness.context import ExperimentScale
from repro.harness.experiments import REGISTRY
from repro.harness.results import ExperimentResult

HEADER = """# EXPERIMENTS — paper vs measured

Generated by ``python -m repro report``{mode}. Absolute numbers
come from the calibrated simulator at scale {scale} (capacities and
footprints scaled down, bandwidths and latencies real); the paper's
numbers come from hardware. Shape — orderings, rough factors,
crossovers — is the reproduction target (see README "Fidelity").

Known fidelity gaps (expected for a trace-driven reproduction):

* Absolute trace-group throughput is 2-4x below the paper's: the
  synthetic traces and the closed-loop replayer make the miss path
  (synchronous ~10 ms backend round-trips) weigh more than in the
  authors' replay. Relative results across schemes are unaffected and
  are asserted by ``pytest benchmarks/``.
* The Figure 4 / Figure 2 sweeps keep only the write-unit sizes that
  stay distinct after scale-down (small nominal sizes collapse onto
  the floor of one segment unit).
* Figure 6's lifetime panels use the paper's own endurance-budget
  equation with the measured flash write-amplification, so they match
  the paper closely; its throughput panel inherits the trace-group gap.

"""


def generate(es: ExperimentScale, path: str,
             quick_label: str = "") -> None:
    """Run every registry entry that quotes the paper, in registry order.

    The acceptance suites (tenants, cluster, rebuild) quote nothing and
    are left to ``repro run``.
    """
    parts = [HEADER.format(scale=f"1/{round(1 / es.scale)}",
                           mode=quick_label)]
    for entry in REGISTRY.values():
        if not entry.paper:
            continue
        started = time.time()
        print(f"running {entry.id} ({entry.blurb}) ...", flush=True)
        for result in entry.run(es):
            parts.append(_section(result, entry.paper))
        print(f"  done in {time.time() - started:.0f}s", flush=True)
    with open(path, "w", encoding="utf-8") as sink:
        sink.write("\n".join(parts))
    print(f"wrote {path}")


def _section(result: ExperimentResult, paper: str) -> str:
    lines = [f"## {result.experiment}: {result.title}", ""]
    if paper:
        lines.append(f"**Paper:** {paper}")
        lines.append("")
    lines.append("```")
    lines.append(result.render())
    lines.append("```")
    lines.append("")
    return "\n".join(lines)
