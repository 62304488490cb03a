"""SSD product sheets (paper Tables 4 and 12).

Prices and specification values are the ones published in the paper;
each Table 12 configuration maps to an :class:`~repro.ssd.spec.SsdSpec`
so cost-effectiveness experiments (Figure 6) can run the same workloads
over each product's simulated device.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List

from repro.common.units import GB, GIB, MB
from repro.ssd.spec import NVME_MLC_400, SATA_MLC_128, SATA_TLC_128, SsdSpec


@dataclass(frozen=True)
class SpecRow:
    """One column of Table 4 (vendor specification sheet)."""

    family: str           # "SSD-A" (SATA) or "SSD-B" (PCIe/NVMe)
    interface: str
    capacity_gb: int
    price_usd: int
    seq_read_mb: int
    seq_write_mb: int
    rand_read_kiops: int
    rand_write_kiops: int


# Table 4, verbatim.
TABLE4: List[SpecRow] = [
    SpecRow("SSD-A", "SATA 3.0", 128, 129, 530, 390, 97, 90),
    SpecRow("SSD-A", "SATA 3.0", 256, 206, 540, 520, 100, 90),
    SpecRow("SSD-A", "SATA 3.0", 512, 435, 540, 520, 100, 90),
    SpecRow("SSD-B", "PCI-e Gen 3.0", 400, 922, 2700, 1080, 450, 75),
    SpecRow("SSD-B", "PCI-e Gen 3.0", 800, 1398, 2800, 1900, 460, 90),
    SpecRow("SSD-B", "PCI-e Gen 3.0", 1600, 3796, 2800, 1900, 450, 150),
    SpecRow("SSD-B", "PCI-e Gen 3.0", 2000, 4250, 2800, 2000, 450, 175),
]


@dataclass(frozen=True)
class Product:
    """One column of Table 12 (the Figure 6 contenders)."""

    key: str              # e.g. "A-MLC(SATA)"
    company: str
    nand: str             # "MLC" | "TLC"
    interface: str        # "SATA" | "NVMe"
    n_units: int          # SSDs in the array
    unit_capacity: int    # bytes per SSD
    set_cost_usd: float   # cost of the whole set
    year: int
    spec: SsdSpec         # simulated device for each unit

    @property
    def endurance(self) -> int:
        """Rated P/E cycles: the flash class of :attr:`spec`."""
        return self.spec.endurance

    @property
    def total_capacity(self) -> int:
        return self.n_units * self.unit_capacity

    @property
    def gb_per_dollar(self) -> float:
        return (self.total_capacity / GB) / self.set_cost_usd

    @property
    def uses_parity(self) -> bool:
        """RAID-5 for the SATA arrays; single NVMe runs without parity."""
        return self.n_units >= 3


def _sata(spec: SsdSpec, capacity: int, prog_bw: float,
          name: str) -> SsdSpec:
    return replace(spec, name=name, capacity=capacity, nand_prog_bw=prog_bw)


# Table 12, with each column bound to a simulated device.  Company A's
# drives are the prototype's 840 Pro class; company B's are slightly
# newer SATA parts with similar envelopes; company C's is the NVMe part
# of Table 4 (400 GB row).
PRODUCTS: Dict[str, Product] = {
    p.key: p for p in [
        Product(
            key="A-MLC(SATA)", company="A", nand="MLC", interface="SATA",
            n_units=4, unit_capacity=128 * GIB, set_cost_usd=418, year=2012,
            spec=_sata(SATA_MLC_128, 128 * GIB, 420 * MB, "a-mlc-128")),
        Product(
            key="A-TLC(SATA)", company="A", nand="TLC", interface="SATA",
            n_units=4, unit_capacity=120 * GIB, set_cost_usd=272, year=2013,
            spec=_sata(SATA_TLC_128, 120 * GIB, 300 * MB, "a-tlc-120")),
        Product(
            key="B-MLC(SATA)", company="B", nand="MLC", interface="SATA",
            n_units=4, unit_capacity=128 * GIB, set_cost_usd=374, year=2014,
            spec=_sata(SATA_MLC_128, 128 * GIB, 440 * MB, "b-mlc-128")),
        Product(
            key="B-TLC(SATA)", company="B", nand="TLC", interface="SATA",
            n_units=4, unit_capacity=128 * GIB, set_cost_usd=225, year=2014,
            spec=_sata(SATA_TLC_128, 128 * GIB, 320 * MB, "b-tlc-128")),
        Product(
            key="C-MLC(NVMe)", company="C", nand="MLC", interface="NVMe",
            n_units=1, unit_capacity=400 * GIB, set_cost_usd=469, year=2015,
            spec=NVME_MLC_400),
    ]
}

PRODUCT_ORDER = ["A-MLC(SATA)", "A-TLC(SATA)", "B-MLC(SATA)",
                 "B-TLC(SATA)", "C-MLC(NVMe)"]
