"""Shared constants and builders for the unit tests."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.common.units import GIB, KIB, MIB
from repro.core.config import SrcConfig
from repro.core.src import SrcCache
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskSpec
from repro.ssd.device import SSDDevice
from repro.ssd.spec import SsdSpec

# A deliberately tiny SSD: 64 MiB, 2 MiB superblocks -> 34 superblocks.
TINY_SSD = SsdSpec(
    name="tiny",
    capacity=64 * MIB,
    spare_factor=0.15,
    superblock_size=2 * MIB,
    interface_read_bw=530e6,
    interface_write_bw=390e6,
    interface_latency=20e-6,
    nand_read_bw=1600e6,
    nand_prog_bw=420e6,
    erase_latency=0.1e-3,
    flush_latency=3.5e-3,
    buffer_size=4 * MIB,
)
# TINY_SSD half a page over: its last 2 KiB are addressable but past
# the FTL's last whole page.
ODD_SSD = replace(TINY_SSD, capacity=64 * MIB + 2 * KIB)

# SRC geometry to match: 4 MiB erase groups, 256 KiB units -> segments
# of 1 MiB holding 4x62 data blocks.
TINY_SRC = SrcConfig(
    erase_group_size=4 * MIB,
    segment_unit=256 * KIB,
    cache_space=128 * MIB,   # 32 MiB per SSD -> 8 segment groups
    t_wait=10e-3,
)

# A small, fast backend (fewer disks than the paper's 8 for speed).
TINY_DISK = DiskSpec(capacity=8 * GIB)


@pytest.fixture
def tiny_ssd() -> SSDDevice:
    return SSDDevice(TINY_SSD)


@pytest.fixture
def tiny_ssds() -> "list[SSDDevice]":
    return [SSDDevice(TINY_SSD, name=f"tiny{i}") for i in range(4)]


@pytest.fixture
def origin() -> PrimaryStorage:
    return PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)


@pytest.fixture
def src(tiny_ssds, origin) -> SrcCache:
    return SrcCache(tiny_ssds, origin, TINY_SRC)


def make_src(config: SrcConfig = TINY_SRC, n_ssds: int = None):
    """Standalone builder for tests needing custom configs."""
    n = n_ssds or config.n_ssds
    ssds = [SSDDevice(TINY_SSD, name=f"tiny{i}") for i in range(n)]
    backend = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    return SrcCache(ssds, backend, config)
