"""Exhaustive transition-matrix property tests for the health machine.

The expected matrix below is written out independently of
``LEGAL_TRANSITIONS`` (from the documented §4.3 semantics), so these
tests catch a table edit that silently legalises a skipped state —
both in :class:`HealthTracker` and in the cluster's
:class:`ShardHealthTracker`, including on dynamically added slots.
"""

import random

import pytest

from repro.cluster import ShardHealthTracker
from repro.repair import DeviceHealth, HealthTracker, RepairStateError

H = DeviceHealth.HEALTHY
D = DeviceHealth.DEGRADED
R = DeviceHealth.REBUILDING
F = DeviceHealth.FAILED
B = DeviceHealth.BYPASS

# The documented machine, spelled out pair by pair — NOT imported from
# repro.repair.health, so the test is not circular.
EXPECTED_LEGAL = {
    (H, D), (H, F), (H, B),
    (D, R), (D, F), (D, B),
    (R, H), (R, D), (R, F), (R, B),
    (F, B),
}
ALL_STATES = [H, D, R, F, B]

# A legal path from HEALTHY into each source state, used to drive a
# fresh tracker to the state under test.
PATH_TO = {
    H: [],
    D: [D],
    R: [D, R],
    F: [F],
    B: [B],
}


def drive_to(tracker, member, state):
    now = 0.0
    for step in PATH_TO[state]:
        now += 1.0
        tracker.transition(member, step, now)
    return now


def fresh_plain(_state):
    return HealthTracker(2, device="matrix")


def fresh_shard(_state):
    return ShardHealthTracker(2, device="cluster")


def fresh_added_slot(_state):
    """A ShardHealthTracker slot created by add_slot (online shard add)."""
    tracker = ShardHealthTracker(2, device="cluster")
    slot = tracker.add_slot()
    assert slot == 2
    assert tracker.state(slot) is DeviceHealth.HEALTHY
    return tracker


FACTORIES = [fresh_plain, fresh_shard, fresh_added_slot]
MEMBER_OF = {fresh_plain: 0, fresh_shard: 0, fresh_added_slot: 2}


@pytest.mark.parametrize("factory", FACTORIES,
                         ids=["tracker", "shard-tracker", "added-slot"])
@pytest.mark.parametrize("src", ALL_STATES, ids=lambda s: s.value)
@pytest.mark.parametrize("dst", ALL_STATES, ids=lambda s: s.value)
def test_every_pair_matches_expected_matrix(factory, src, dst):
    """All 25 (src, dst) pairs: legal iff in the documented matrix."""
    tracker = factory(src)
    member = MEMBER_OF[factory]
    now = drive_to(tracker, member, src)
    if (src, dst) in EXPECTED_LEGAL:
        record = tracker.transition(member, dst, now + 1.0, reason="matrix")
        assert tracker.state(member) is dst
        assert record.old is src and record.new is dst
    else:
        with pytest.raises(RepairStateError):
            tracker.transition(member, dst, now + 1.0)
        # A rejected transition must not move the state.
        assert tracker.state(member) is src


def test_matrix_shape():
    """Structural properties: terminals, and every state reachable."""
    # Terminal states admit no exits (FAILED only escapes to BYPASS).
    assert not any(src is B for src, _ in EXPECTED_LEGAL)
    assert {dst for src, dst in EXPECTED_LEGAL if src is F} == {B}
    # Every state is reachable from HEALTHY through legal steps.
    reached = {H}
    frontier = [H]
    while frontier:
        state = frontier.pop()
        for src, dst in EXPECTED_LEGAL:
            if src is state and dst not in reached:
                reached.add(dst)
                frontier.append(dst)
    assert reached == set(ALL_STATES)


def test_illegal_transition_preserves_accounting():
    """A rejected transition leaves history and clocks untouched."""
    tracker = HealthTracker(1, device="acct")
    tracker.transition(0, D, 1.0)
    history_len = len(tracker.history)
    window = tracker.degraded_window_s
    with pytest.raises(RepairStateError):
        tracker.transition(0, H, 2.0)   # DEGRADED -> HEALTHY is illegal
    assert len(tracker.history) == history_len
    assert tracker.degraded_window_s == window
    assert tracker.failed_since(0) == 1.0


@pytest.mark.parametrize("tracker_cls", [HealthTracker, ShardHealthTracker])
def test_random_legal_walks_keep_invariants(tracker_cls):
    """Long random legal walks: state/history/clock invariants hold."""
    rng = random.Random(7)
    legal_from = {}
    for src, dst in EXPECTED_LEGAL:
        legal_from.setdefault(src, []).append(dst)
    for trial in range(20):
        tracker = tracker_cls(3, device=f"walk{trial}")
        now = 0.0
        states = {m: H for m in range(3)}
        unhealthy_since = {}
        expected_window = 0.0
        for _ in range(60):
            member = rng.randrange(3)
            src = states[member]
            choices = legal_from.get(src, [])
            if not choices:
                continue            # terminal slot; leave it parked
            dst = rng.choice(choices)
            now += rng.random()
            tracker.transition(member, dst, now)
            states[member] = dst
            # Shadow the documented accounting.
            if src is H:
                unhealthy_since[member] = now
            if dst is H or dst.terminal:
                since = unhealthy_since.pop(member, None)
                if since is not None:
                    expected_window += now - since
        assert tracker.states() == [states[m] for m in range(3)]
        assert tracker.degraded_window_s == pytest.approx(expected_window)
        assert len(tracker.history) == sum(
            1 for _ in tracker.history)   # history is append-only records
        for record in tracker.history:
            assert (record.old, record.new) in EXPECTED_LEGAL


def test_add_slot_extends_without_disturbing():
    """add_slot appends a HEALTHY slot and leaves existing states alone."""
    tracker = ShardHealthTracker(2, device="grow")
    tracker.transition(0, D, 1.0)
    slot = tracker.add_slot()
    assert slot == 2
    assert len(tracker) == 3
    assert tracker.states() == [D, H, H]
    # The new slot runs the same machine.
    tracker.transition(slot, D, 2.0)
    with pytest.raises(RepairStateError):
        tracker.transition(slot, H, 3.0)
