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

* Absolute trace-group throughput runs 2-4x below the paper's (~100-200
  vs ~500-725 MB/s): the synthetic traces and the closed-loop replayer
  weight the miss path (synchronous ~10 ms backend round-trips over the
  1 Gbps iSCSI RAID-10) more than the authors' replay did. Relative
  results across schemes are unaffected.
* SRC's I/O amplification under Sel-GC is higher than the paper's
  (e.g. ~3.3 vs 1.65 on the Write group). Hot clean data is not the
  cause: of the valid blocks S2S finds on its victims (Write group,
  quick preset), 94.5% are dirty and 1.1% hot-clean, so Sel-GC copies
  dirty data the synthetic traces have not overwritten by the time its
  group is reclaimed. How the paper counts amplification and the
  traces' write re-reference are the open suspects. The paper's
  orderings (Sel-GC amp > S2D amp, Sel-GC throughput > S2D) hold.
* Figure 6's lifetimes are shorter than the paper's (~675 vs ~2140
  days for A-MLC Write) in proportion to the higher measured write
  amplification: the lifetime equation is the paper's own, validated
  at the paper's WAF in `tests/test_cost.py`. Its throughput panel
  inherits the trace-group gap.
* The single-NVMe configuration's raw throughput trails the SATA
  RAID-5 sets (the paper has it slightly ahead): our host link
  serializes per-command latency, which understates NVMe's deep
  parallel queues. Its cost-effectiveness orderings still match.
* The Figure 4 / Figure 2 sweeps keep only the write-unit sizes that
  stay distinct after scale-down (small nominal sizes collapse onto
  the floor of one segment unit).

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
