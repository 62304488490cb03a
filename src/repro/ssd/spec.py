"""SSD device specifications and product presets.

Presets are calibrated to the product lines in the paper's Table 4 /
Table 12: SATA MLC (Samsung 840 Pro class — the prototype's cache
devices), SATA TLC, and a PCIe/NVMe enterprise drive.  Interface
bandwidths come from the vendor specification rows; sustained internal
bandwidth and the 256 MB erase group come from the paper's Figure 2
measurement.  Each preset carries its flash class's page read latency
and rated P/E endurance, representative of 2x-nm NAND of the period
(paper §2.1): MLC endures ~3K cycles, TLC reads slower and endures ~1K.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.common.errors import ConfigError
from repro.common.units import GIB, KIB, MB, MIB, MSEC, USEC


@dataclass(frozen=True)
class SsdSpec:
    """Everything needed to instantiate one simulated SSD."""

    name: str
    capacity: int                 # exported logical bytes
    spare_factor: float           # physical = capacity * (1 + spare)
    superblock_size: int          # erase group size (paper: 256 MB)
    interface_read_bw: float      # bytes/s across the host link
    interface_write_bw: float
    interface_latency: float      # per-command host link latency
    nand_read_bw: float           # aggregate internal read bytes/s
    nand_prog_bw: float           # aggregate internal program bytes/s
    erase_latency: float          # charged per superblock erase
    flush_latency: float          # FTL checkpoint cost of a FLUSH/FUA
    buffer_size: int              # volatile DRAM write buffer
    read_latency: float = 60 * USEC   # NAND page read to register (MLC)
    endurance: int = 3000         # rated P/E cycles per block (MLC)
    page_size: int = 4 * KIB
    queue_depth: int = 32         # host-visible command slots (NCQ = 32)

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ConfigError("capacity must be positive")
        if self.queue_depth < 0:
            raise ConfigError("queue_depth must be >= 0 (0 = unbounded)")
        if not 0.0 < self.spare_factor < 1.0:
            raise ConfigError(
                f"spare_factor must be in (0,1), got {self.spare_factor}")
        if self.superblock_size % self.page_size:
            raise ConfigError("superblock must be a whole number of pages")
        if self.read_latency <= 0 or self.endurance <= 0:
            raise ConfigError("read_latency and endurance must be positive")

    @property
    def logical_pages(self) -> int:
        return self.capacity // self.page_size

    @property
    def physical_pages(self) -> int:
        raw = int(self.capacity * (1 + self.spare_factor))
        return raw // self.page_size

    @property
    def superblock_pages(self) -> int:
        return self.superblock_size // self.page_size

    def scaled(self, factor: float) -> "SsdSpec":
        """Shrink capacity-like quantities by ``factor`` (0 < f <= 1).

        Bandwidths and latencies are untouched, so throughput numbers
        stay calibrated while experiments run proportionally faster.
        """
        if not 0 < factor <= 1:
            raise ConfigError(f"scale factor must be in (0,1], got {factor}")
        page = self.page_size

        def scale(nbytes: int) -> int:
            scaled_val = max(page, int(nbytes * factor))
            return scaled_val - scaled_val % page

        return replace(
            self,
            capacity=scale(self.capacity),
            superblock_size=scale(self.superblock_size),
            buffer_size=scale(self.buffer_size),
            # The erase charge is per superblock; a scaled-down
            # superblock must cost proportionally less or the per-byte
            # erase overhead would be inflated by 1/factor.
            erase_latency=self.erase_latency * factor,
        )


# The prototype's cache device: Samsung 840 Pro 128 GB (Table 1, Table 4
# SSD-A 128 GB row: SR 530 / SW 390 MB/s).  Erase group 256 MB (Fig. 2).
SATA_MLC_128 = SsdSpec(
    name="sata-mlc-128",
    capacity=128 * GIB,
    spare_factor=0.07,
    superblock_size=256 * MIB,
    interface_read_bw=530 * MB,
    interface_write_bw=390 * MB,
    interface_latency=20 * USEC,
    nand_read_bw=1600 * MB,
    nand_prog_bw=420 * MB,
    erase_latency=2 * MSEC,
    flush_latency=3.5 * MSEC,
    buffer_size=256 * MIB,
)

# SATA TLC (840 EVO class): same interface, slower flash, 1K endurance.
SATA_TLC_128 = replace(
    SATA_MLC_128, name="sata-tlc-128", nand_read_bw=1400 * MB,
    nand_prog_bw=300 * MB, erase_latency=2.5 * MSEC, read_latency=80 * USEC,
    endurance=1000)

# Table 4 SSD-B 400 GB row: PCIe NVMe, SR 2700 / SW 1080 MB/s.
NVME_MLC_400 = SsdSpec(
    name="nvme-mlc-400",
    capacity=400 * GIB,
    spare_factor=0.25,
    superblock_size=512 * MIB,
    interface_read_bw=2700 * MB,
    interface_write_bw=1080 * MB,
    interface_latency=8 * USEC,
    nand_read_bw=4000 * MB,
    nand_prog_bw=1200 * MB,
    erase_latency=2 * MSEC,
    flush_latency=1.0 * MSEC,
    buffer_size=512 * MIB,
    read_latency=50 * USEC,
    queue_depth=256,           # NVMe submission queues run far deeper
)
