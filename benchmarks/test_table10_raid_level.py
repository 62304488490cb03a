"""Bench: Table 10 — SRC cache RAID level 0/4/5."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp = cell.split(" (")
    return float(tput), float(amp.rstrip(")"))


def test_table10_raid_levels(benchmark, es):
    result = run_once(benchmark, REGISTRY["table10"].sweep.run, es)
    emit(result)
    for row in result.rows:
        group = row[0]
        r0, _ = parse(row[1])
        r4, _ = parse(row[2])
        r5, _ = parse(row[3])
        # RAID-0 (no parity) leads; parity costs roughly 20%.
        assert r0 >= r4 * 0.95 and r0 >= r5 * 0.95, \
            f"{group}: RAID-0 must lead"
        # RAID-5 at least matches RAID-4 (distributed parity).
        assert r5 >= r4 * 0.85, f"{group}: RAID-5 must not trail RAID-4"
        # The parity overhead is bounded (paper: ~20%; allow quick-
        # preset noise up to 2.5x before calling it broken).
        assert r0 / max(r5, 1e-9) < 2.5, \
            f"{group}: parity penalty must stay moderate"
