"""SsdSpec validation and derived geometry."""

import pytest

from repro.common.errors import ConfigError
from repro.common.units import GIB, MIB
from repro.ssd.spec import (NVME_MLC_400, SATA_MLC_128, SATA_TLC_128,
                            SsdSpec)


def variant(**overrides):
    base = dict(
        name="x", capacity=1 * GIB, spare_factor=0.1,
        superblock_size=4 * MIB, interface_read_bw=500e6,
        interface_write_bw=400e6, interface_latency=20e-6,
        nand_read_bw=1e9, nand_prog_bw=4e8, erase_latency=1e-3,
        flush_latency=3e-3, buffer_size=8 * MIB)
    base.update(overrides)
    return SsdSpec(**base)


def test_derived_page_counts():
    spec = variant()
    assert spec.logical_pages == 1 * GIB // 4096
    assert spec.physical_pages == int(1 * GIB * 1.1) // 4096
    assert spec.superblock_pages == 1024


def test_spare_factor_bounds():
    with pytest.raises(ConfigError):
        variant(spare_factor=0.0)
    with pytest.raises(ConfigError):
        variant(spare_factor=1.0)


def test_superblock_page_alignment():
    with pytest.raises(ConfigError):
        variant(superblock_size=4 * MIB + 1)


def test_capacity_positive():
    with pytest.raises(ConfigError):
        variant(capacity=0)


def test_presets_consistent_with_table4():
    # SSD-A 128 GB row: SR 530 / SW 390 MB/s.
    assert SATA_MLC_128.interface_read_bw == 530e6
    assert SATA_MLC_128.interface_write_bw == 390e6
    assert SATA_MLC_128.superblock_size == 256 * MIB  # Figure 2
    # SSD-B 400 GB row: SR 2700 / SW 1080 MB/s.
    assert NVME_MLC_400.interface_read_bw == 2700e6
    assert NVME_MLC_400.interface_write_bw == 1080e6


def test_endurance_from_timing():
    assert SATA_MLC_128.endurance == 3000
    assert SATA_TLC_128.endurance == 1000


def test_flash_class_presets():
    """TLC reads slower and endures fewer P/E cycles than MLC."""
    assert SATA_TLC_128.read_latency > SATA_MLC_128.read_latency
    assert SATA_TLC_128.endurance < SATA_MLC_128.endurance


@pytest.mark.parametrize("field", ["read_latency", "endurance"])
def test_flash_class_rejects_nonpositive(field):
    with pytest.raises(ConfigError):
        variant(**{field: 0})


def test_scaled_keeps_page_alignment():
    for factor in (1 / 3, 1 / 7, 1 / 100):
        scaled = SATA_MLC_128.scaled(factor)
        assert scaled.capacity % scaled.page_size == 0
        assert scaled.superblock_size % scaled.page_size == 0
        assert scaled.buffer_size % scaled.page_size == 0


def test_scaled_erase_latency_proportional():
    scaled = SATA_MLC_128.scaled(1 / 8)
    assert scaled.erase_latency == pytest.approx(
        SATA_MLC_128.erase_latency / 8)
