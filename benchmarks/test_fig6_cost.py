"""Bench: Figure 6 — cost-effectiveness of SATA RAID-5 vs single NVMe."""

from repro.harness.experiments import REGISTRY

from _bench_utils import emit, run_once


def parse(cell):
    tput, days, perf_d, life_d = cell.split(" | ")
    return float(tput), float(days), float(perf_d), float(life_d)


def test_fig6_cost_effectiveness(benchmark, es):
    result = run_once(benchmark, REGISTRY["fig6"].sweep.run, es)
    emit(result)
    groups = ["write", "mixed", "read"]
    for gi, group in enumerate(groups, start=1):
        cells = {row[0]: parse(row[gi]) for row in result.rows}
        # (b)/(d): MLC always beats TLC on lifetime and lifetime/$.
        for company in ("A", "B"):
            mlc = cells[f"{company}-MLC(SATA)"]
            tlc = cells[f"{company}-TLC(SATA)"]
            assert mlc[1] > tlc[1], \
                f"{group}: {company}-MLC must outlive {company}-TLC"
            assert mlc[3] > tlc[3], \
                f"{group}: MLC must win lifetime/$"
        # (d): the RAID-5 SATA sets beat the single NVMe on lifetime/$.
        nvme = cells["C-MLC(NVMe)"]
        assert cells["A-MLC(SATA)"][3] > nvme[3], \
            f"{group}: SATA RAID-5 must win lifetime/$ over NVMe"
        # (c): TLC generally wins MB/s per dollar among SATA sets.
        assert cells["B-TLC(SATA)"][2] >= cells["B-MLC(SATA)"][2] * 0.8, \
            f"{group}: TLC should be competitive on MB/s/$"
