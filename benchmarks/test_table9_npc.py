"""Bench: Table 9 — Parity-for-Clean vs No-Parity-for-Clean."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, amp = cell.split(" (")
    return float(tput), float(amp.rstrip(")"))


def test_table9_pc_vs_npc(benchmark, es):
    result = run_once(benchmark, REGISTRY["table9"].sweep.run, es)
    emit(result)
    for row in result.rows:
        group = row[0]
        pc_tput, pc_amp = parse(row[1])
        npc_tput, npc_amp = parse(row[2])
        # Paper: NPC outperforms PC on every group (biggest on Write).
        assert npc_tput >= pc_tput * 0.95, \
            f"{group}: NPC must not lose to PC"
        # NPC writes less (no clean parity) -> amplification not higher.
        assert npc_amp <= pc_amp * 1.1, \
            f"{group}: NPC must not amplify more than PC"
    write_gain = parse(result.cell("write", "NPC"))[0] / \
        max(parse(result.cell("write", "PC"))[0], 1e-9)
    assert write_gain >= 1.0, "Write group gains most from NPC"
