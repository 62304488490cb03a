#!/usr/bin/env python
"""Cost advisor: which SSD set should back your cache?

Runs one trace group over SRC built from each Table 12 product (four
SATA drives as RAID-5, or the single NVMe without parity) and ranks
the products by raw throughput, MB/s per dollar, and lifetime per
dollar — the paper's Figure 6 as a decision tool.

Run:  python examples/cost_advisor.py [write|mixed|read]   (~2 min)
"""

import sys

from repro.cost.products import PRODUCT_ORDER, PRODUCTS
from repro.harness.context import ExperimentScale
from repro.harness.runner import measure_cost

ES = ExperimentScale(scale=1 / 64, warmup=20.0, duration=6.0)


def main() -> None:
    group = sys.argv[1] if len(sys.argv) > 1 else "mixed"
    print(f"workload group: {group}\n")
    rows = []
    for key in PRODUCT_ORDER:
        product = PRODUCTS[key]
        ce = measure_cost(product, group, ES)
        rows.append(ce)
        print(f"measured {key:<14} {ce.throughput_mb_s:7.1f} MB/s, "
              f"lifetime {ce.lifetime_days:6.0f} days "
              f"(${product.set_cost_usd:.0f})")

    print(f"\n{'ranking by':<22} best -> worst")
    print("-" * 70)
    for title, metric in (
            ("throughput", lambda ce: ce.throughput_mb_s),
            ("MB/s per dollar", lambda ce: ce.perf_per_dollar),
            ("lifetime per dollar", lambda ce: ce.lifetime_per_dollar)):
        ranked = sorted(rows, key=metric, reverse=True)
        print(f"{title:<22} " + " > ".join(ce.product for ce in ranked))
    print("\npaper shape: TLC leads MB/s/$; MLC leads lifetime/$; the "
          "NVMe is fast but fail-stop and worst on lifetime/$")


if __name__ == "__main__":
    main()
