"""Every holder of a NumPy state table that per-request code indexes one
element at a time keeps a ``memoryview`` of it (``ElementViews``): the
view and the array are one buffer, after every growth site that replaces
the array, and after a pickle round trip or a deep copy, which drop the
views and build them again."""

import copy
import pickle

import numpy as np
import pytest

from repro.common.types import ElementViews
from repro.core.arrays import B_CLEAN, B_DIRTY, BlockState, VersionArray
from repro.core.buffers import SegmentBuffer
from repro.core.hotness import HotnessBitmap
from repro.core.mapping import MappingTable
from repro.ssd.ftl import PageMappedFtl

FAR = 50_000        # past every holder's initial span


def block_state():
    state = BlockState()
    state.ensure(901)[[1, 2, 900]] = B_CLEAN
    return state


def versions():
    va = VersionArray()
    for lba in (3, 3, 7):
        va.bump(lba)
    return va


def hotness():
    hot = HotnessBitmap()
    hot.touch(4)
    hot.touch_many(np.array([5, 6, 5]))
    return hot


def mapping():
    table = MappingTable(4)
    table.insert_row(10, 1, 0, 2, 8192, True, 77, 3)
    table.insert_row(11, 2, 1, 0, 4096, False, 78, 1)
    table.invalidate(10)
    return table


def segment_buffer():
    buf = SegmentBuffer(8, dirty=True, name="d", code=B_DIRTY)
    buf.add(12)
    buf.add(13)
    return buf


def ftl():
    table = PageMappedFtl(logical_pages=256, physical_pages=512,
                          superblock_pages=32)
    table.write(0, 40)
    table.write(5, 3)
    return table


# (holder, growth site): each growth replaces a table past its end (a
# buffer's order array holds its capacity; its residency table grows).
# The FTL's tables have a fixed size: its case is ordinary traffic.
CASES = {
    "BlockState.ensure": (block_state, lambda h: h.ensure(FAR)),
    "VersionArray.ensure": (versions, lambda h: h.ensure(FAR)),
    "VersionArray.bump": (versions, lambda h: h.bump(FAR)),
    "VersionArray.__setitem__": (versions, lambda h: h.__setitem__(FAR, 9)),
    "HotnessBitmap.touch": (hotness, lambda h: h.touch(FAR)),
    "HotnessBitmap.touch_many": (
        hotness, lambda h: h.touch_many(np.array([FAR, 2]))),
    "MappingTable.insert_row": (
        mapping, lambda h: h.insert_row(FAR, 3, 2, 1, 0, True, 5, 2)),
    "MappingTable.insert_members": (
        mapping, lambda h: h.insert_members(np.array([FAR, 20]), 1, False)),
    "SegmentBuffer.add": (segment_buffer, lambda h: h.add(FAR)),
    "SegmentBuffer.add_many": (
        segment_buffer, lambda h: h.add_many(np.array([FAR, 30]))),
    "PageMappedFtl.write": (ftl, lambda h: h.write(200, 50)),
}


def holders(holder):
    """The holder and the residency table it shares, if any."""
    shared = getattr(holder, "_state", None)
    return [holder] + ([shared] if shared is not None else [])


def assert_one_buffer(holder):
    """A store through the view reads back through the array at the
    table's last element, and the reverse, restoring it."""
    for h in holders(holder):
        for name in h._VIEWS:
            array, view = getattr(h, name), getattr(h, name + "_v")
            assert view.obj is array, f"{type(h).__name__}.{name}"
            last = len(array) - 1
            old = view[last]
            new = (not old) if array.dtype == bool else old + 1
            view[last] = new
            assert array[last] == new
            array[last] = old
            assert view[last] == old


def plain(value):
    """A holder's state as comparable values (views dropped)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tolist()
    if isinstance(value, ElementViews):
        return {k: plain(v) for k, v in value.__getstate__().items()
                if k != "obs"}       # the FTL's recorder: a stateless null
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_view_and_the_table_are_one_buffer(case):
    build, grow = CASES[case]
    holder = build()
    assert_one_buffer(holder)                                       # (a)
    before = {name: len(getattr(h, name)) for h in holders(holder)
              for name in h._VIEWS}
    grow(holder)
    after = {name: len(getattr(h, name)) for h in holders(holder)
             for name in h._VIEWS}
    assert case.startswith("PageMappedFtl") or any(
        after[name] > before[name] for name in before), "nothing grew"
    assert_one_buffer(holder)                                       # (b)
    for twin in (pickle.loads(pickle.dumps(holder)), copy.deepcopy(holder)):
        assert plain(twin) == plain(holder)                         # (c)
        assert_one_buffer(twin)
        assert plain(twin) == plain(holder)

