"""Durable segment metadata and the superblock."""


from repro.core.metadata import (MetadataStore, SegmentSummary, Superblock,
                                 SRC_MAGIC)


def summary(sg=1, segment=0, sequence=1, generation=5, torn=False,
            lbas=(1, 2, 3)):
    s = SegmentSummary(sg=sg, segment=segment, sequence=sequence,
                       generation=generation, dirty=True, with_parity=True,
                       lbas=list(lbas), checksums=[0] * len(lbas),
                       versions=[1] * len(lbas))
    return s


def superblock():
    return Superblock(magic=SRC_MAGIC, create_time=0.0,
                      device_size=1 << 30, n_ssds=4,
                      erase_group_size=1 << 22, segment_unit=1 << 18)


def test_format_installs_superblock():
    store = MetadataStore()
    store.format(superblock())
    assert store.superblock.magic == SRC_MAGIC


def test_superblock_checksum_stable():
    assert superblock().checksum() == superblock().checksum()


def test_summary_consistent_by_default():
    assert summary().consistent


def test_torn_write_detected():
    store = MetadataStore()
    store.format(superblock())
    store.write_summary(summary(), torn=True)
    assert not store.read_summary(1, 0).consistent


def test_sequence_monotonic():
    store = MetadataStore()
    assert store.next_sequence() == 1
    assert store.next_sequence() == 2


def test_summaries_sorted_by_sequence():
    store = MetadataStore()
    store.format(superblock())
    store.write_summary(summary(sg=1, segment=1, sequence=3))
    store.write_summary(summary(sg=1, segment=0, sequence=1))
    store.write_summary(summary(sg=2, segment=0, sequence=2))
    assert [s.sequence for s in store.all_summaries()] == [1, 2, 3]


def test_drop_group_removes_only_that_group():
    store = MetadataStore()
    store.format(superblock())
    store.write_summary(summary(sg=1, segment=0))
    store.write_summary(summary(sg=2, segment=0, sequence=2))
    store.drop_group(1)
    assert store.read_summary(1, 0) is None
    assert store.read_summary(2, 0) is not None
    assert len(store) == 1


def test_rewrite_same_segment_replaces():
    store = MetadataStore()
    store.format(superblock())
    store.write_summary(summary(sg=1, segment=0, sequence=1))
    store.write_summary(summary(sg=1, segment=0, sequence=9,
                                lbas=(7, 8, 9)))
    assert store.read_summary(1, 0).lbas == [7, 8, 9]
    assert len(store) == 1


def test_format_clears_existing_state():
    store = MetadataStore()
    store.format(superblock())
    store.write_summary(summary())
    store.format(superblock())
    assert len(store) == 0
    assert store.next_sequence() == 1
