"""Golden pins for the paper's tables, serial and fanned over a pool.

Five experiment ids that between them hold every kind of sweep cell:
``table8`` (per-cell SSD-tap amplification carried to a note),
``table11`` (cache-state counters read after each run), ``fig6``
(product-built stacks and their cost record), ``latency`` (the paced
row run after the grid) and ``table2`` (FIO rows with a derived ratio
column).  Each asserts a sha256 over ``json.dumps(result.as_dict(),
sort_keys=True)`` at a tiny preset.

The digests were recorded from the code where each table was a
hand-written loop in its own module; the tables now run as registry
entries through one sweep, and these pins keep them byte-for-byte
equal to the loops they replaced.  The ``jobs=2`` cases hold the
process-pool path to the same bytes.  A digest may only change
together with an intended change of simulated behaviour.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import ExperimentScale, run_experiment

TINY = ExperimentScale(scale=1 / 1024, warmup=0.1, duration=0.1, seed=3,
                       fio_iodepth=4, fio_threads=1)

GOLDEN = {
    "table8":
        "33c9c1eacd2663db3eef59d6fedd1cbbd201f6fd5809cfd467efdab760d383ff",
    "table11":
        "01f3399ffee36b4d26f2f1a1e3572cc81fefec6c5668949bd0e3a9020b70794a",
    "fig6":
        "addae6d482bff16bad528c11c3fad190b89d2b9f825e9ff31f8c0560a8eff006",
    "latency":
        "2a7a1662c224c6bce22e5a2a34c69b6d44cf5a0ee7648000a00838c998a0586a",
    "table2":
        "fab40b764ec9219bcbc7acd35dd5941c1b60c2451c5df7a3a6b051362743f07d",
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("exp_id", sorted(GOLDEN))
def test_paper_table_digest(exp_id, jobs):
    (result,) = run_experiment(exp_id, TINY, jobs=jobs)
    blob = json.dumps(result.as_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == GOLDEN[exp_id]
