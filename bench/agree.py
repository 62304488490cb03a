#!/usr/bin/env python3
"""Do two result sets of the same code agree within the benchmark's bounds?

``python bench/agree.py A.json B.json`` compares two files written by
``bench/run.py`` and exits nonzero on a breach:

* every end-to-end metric of B is no worse than A's, and A's no worse
  than B's, by more than the metric's ``bound`` in ``BENCHMARK.json``;
* when both sets ran the same seed and size, every simulated metric and
  every ``sim_digest`` is identical — the simulator is deterministic,
  so any difference there is a change of behaviour, not noise.

If a host-time metric breaches on unchanged code, raise the pass count
(``PASSES`` in run.py), not the bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
# Measured on the host clock or the host's memory; everything else is
# simulated and repeats exactly for a seed.
HOST_METRICS = ("host_req_per_s", "setup_s", "peak_rss_mb")


def breaches(a: dict, b: dict) -> List[str]:
    same_input = (a["seed"], a["size_factor"]) == (b["seed"],
                                                   b["size_factor"])
    found = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            found.append(f"{name}: missing from the second set")
            continue
        if same_input and wa["sim_digest"] != wb["sim_digest"]:
            found.append(f"{name}: sim_digest {wa['sim_digest'][:12]} != "
                         f"{wb['sim_digest'][:12]}")
        for metric in SPEC["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            va = wa["end_to_end"][key]["value"]
            vb = wb["end_to_end"][key]["value"]
            if same_input and key not in HOST_METRICS:
                if va != vb:
                    found.append(f"{name}: {key} {va!r} != {vb!r} for the "
                                 "same seed")
            elif abs(va - vb) > bound * min(abs(va), abs(vb)):
                found.append(f"{name}: {key} {va:.6g} vs {vb:.6g} differ "
                             f"by more than {bound:.0%}")
    return found


def main(argv=None) -> int:
    paths = (argv if argv is not None else sys.argv[1:])
    if len(paths) != 2:
        sys.exit(__doc__.splitlines()[2].strip())
    a, b = (json.loads(Path(p).read_text()) for p in paths)
    found = breaches(a, b)
    for line in found:
        print(f"BREACH {line}")
    print(f"{len(found)} breaches over {len(a['workloads'])} workloads")
    return 1 if found else 0


if __name__ == "__main__":
    raise SystemExit(main())
