"""The batch entry's contract: ``BlockDevice.submit_extents`` checks the
whole batch before anything mutates, over every device kind — the
bodies (SSD, disk, RAID-1 over disks, primary storage) and the loop over
``submit`` every other device takes — and it is the one definition
of the batch entry in the package.
"""

import ast
import pickle
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.baselines.bcache import BcacheDevice
from repro.block.device import (BlockDevice, LinearDevice, NullDevice,
                                StatsDevice)
from repro.common.errors import AddressError
from repro.common.types import IoOrigin, Op
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskDevice
from repro.raid.array import Raid1Device, Raid5Device
from repro.ssd.device import SSDDevice

from _stacks import TINY_DISK, TINY_SSD

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

DEVICES = {
    # The bodies.
    "ssd": lambda: SSDDevice(TINY_SSD),
    "disk": lambda: DiskDevice(TINY_DISK),
    # RAID-1 over disks: the origin's RAID-10.
    "raid10": lambda: Raid1Device([DiskDevice(TINY_DISK, name=f"d{i}")
                                   for i in range(4)], chunk_size=64 * KIB),
    "primary": lambda: PrimaryStorage(n_disks=4, disk_spec=TINY_DISK),
    # The loop.
    "faulty-ssd": lambda: FaultInjector(SSDDevice(TINY_SSD), FaultPlan()),
    "stats": lambda: StatsDevice(SSDDevice(TINY_SSD)),
    "linear": lambda: LinearDevice(SSDDevice(TINY_SSD), 8 * MIB, 32 * MIB),
    "null": lambda: NullDevice(64 * MIB, latency=1e-4),
    "raid5": lambda: Raid5Device([SSDDevice(TINY_SSD, name=f"s{i}")
                                  for i in range(3)], chunk_size=64 * KIB),
    "bcache": lambda: BcacheDevice(SSDDevice(TINY_SSD),
                                   PrimaryStorage(n_disks=2,
                                                  disk_spec=TINY_DISK),
                                   bucket_size=256 * KIB),
}


def traffic(dev: BlockDevice) -> None:
    """Some timelines busy, queues part full, counters and histograms
    non-zero, before the batch under test."""
    for i in range(12):
        dev.write(i * 3 * 64 * KIB, 2 * PAGE_SIZE, i * 1e-4)
    for i in range(6):
        dev.read(i * 5 * 64 * KIB, PAGE_SIZE, 1e-3)


@pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
@pytest.mark.parametrize("bad,error", [
    ("past the end", AddressError), ("negative", ValueError)])
@pytest.mark.parametrize("kind", sorted(DEVICES))
def test_a_bad_last_extent_mutates_nothing(kind, bad, error, op):
    """Every counter, timeline, queue, FTL and recorder histogram in
    the stack is as it was: the whole stack and its recorder pickle
    to the same bytes before and after the refused batch."""
    dev = DEVICES[kind]()
    recorder = obs.ObsRecorder()
    obs.attach(dev, recorder)
    traffic(dev)
    last = ((dev.size - PAGE_SIZE, 2 * PAGE_SIZE) if bad == "past the end"
            else (PAGE_SIZE, -1))
    offs = np.array([0, 7 * 64 * KIB, last[0]], dtype=np.int64)
    lens = np.array([PAGE_SIZE, 3 * PAGE_SIZE, last[1]], dtype=np.int64)
    before = pickle.dumps((dev, recorder))
    with pytest.raises(error):
        dev.submit_extents(op, offs, lens, np.array([2e-3, 2e-3, 3e-3]),
                           IoOrigin.DESTAGE)
    assert pickle.dumps((dev, recorder)) == before


def primary_state(origin: PrimaryStorage) -> dict:
    line = origin.link._timeline
    return {"stats": [d.stats.as_dict()
                      for d in (origin, origin.array, *origin.disks)],
            "link": (origin.link.bytes_moved, list(line._free),
                     line.busy_time),
            "disks": [(d.qstats.as_dict(), list(d.arm._free),
                       d.arm.busy_time, list(d._recent),
                       list(d._recent_sorted), sorted(d._inflight))
                      for d in origin.disks]}


def test_primary_storage_takes_a_non_monotone_column_of_nows(monkeypatch):
    """Issue times that step back and forth, some tied: the link's
    column of starts, the array's and its disks' bodies (no level
    declines) land every float the per-request loop does."""
    fast, loop = (PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
                  for _ in range(2))
    for origin in (fast, loop):
        traffic(origin)
    rng = np.random.default_rng(11)
    offs = (rng.integers(0, 4096, 60) * 64 * KIB
            + rng.integers(0, 16, 60) * 512)
    lens = rng.choice([0, PAGE_SIZE, 64 * KIB, 200 * KIB], 60)
    nows = np.round(rng.uniform(0.0, 0.02, 60), 3)
    assert (np.diff(nows) < 0).any() and len(set(nows)) < 60
    oracle = BlockDevice._submit_each
    monkeypatch.setattr(BlockDevice, "_submit_each", None)
    got = fast.submit_extents(Op.WRITE, offs, lens, nows, IoOrigin.DESTAGE)
    want = oracle(loop, Op.WRITE, offs, lens, nows, IoOrigin.DESTAGE)
    assert got.tobytes() == want.tobytes()
    assert primary_state(fast) == primary_state(loop)


def ssd_state(ssd: SSDDevice) -> dict:
    lines = (ssd.nand, ssd.nand_reads, ssd.link._timeline,
             ssd.read_link._timeline)
    return {"stats": ssd.stats.as_dict(), "queue": ssd.qstats.as_dict(),
            "inflight": sorted(ssd._inflight),
            "lines": [(list(line._free), line.busy_time) for line in lines],
            "moved": (ssd.link.bytes_moved, ssd.read_link.bytes_moved),
            "ftl": vars(ssd.ftl.counters)}


@pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
def test_an_ssd_with_no_queue_limit_serves_batches_as_the_loop(op):
    """``queue_depth`` 0: the pipeline's queue never fills and its
    counters stay at zero, as ``_admit`` / ``_retire`` leave them."""
    fast, loop = (SSDDevice(replace(TINY_SSD, queue_depth=0))
                  for _ in range(2))
    for ssd in (fast, loop):
        traffic(ssd)
    offs = np.arange(40, dtype=np.int64) * 3 * 64 * KIB
    lens = np.tile([PAGE_SIZE, 64 * KIB, 3 * PAGE_SIZE, 512], 10)
    nows = np.linspace(1e-3, 2e-3, 40)
    got = fast.submit_extents(op, offs, lens, nows, IoOrigin.GC)
    want = BlockDevice._submit_each(loop, op, offs, lens, nows, IoOrigin.GC)
    assert got.tobytes() == want.tobytes()
    assert ssd_state(fast) == ssd_state(loop)
    assert fast.qstats.submissions == 0 and not fast._inflight


def calls_in(tree) -> set:
    return {node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)}


def test_one_module_holds_the_batch_entry():
    """One ``def submit_extents`` in the package, in ``block/device.py``,
    and only it checks and counts a batch: no device restates the
    prologue or reaches past its body with ``super()``."""
    defs, checkers = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        name = path.relative_to(SRC).as_posix()
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "submit_extents":
                defs.append(name)
            if calls_in(node) & {"_check_extents", "_count_extents"}:
                checkers.append((name, node.name))
    assert defs == ["block/device.py"]
    assert checkers == [("block/device.py", "submit_extents")]
