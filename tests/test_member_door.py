"""``Members.issue``, SRC's one door to its SSDs, and that it stays one.

Its two branches must agree: on a lean stack a member's commands go
down as one device batch (a lone WRITE and a FLUSH by their measured
forks), with the gate forced closed one ``Members.submit`` each.  One
seeded stack runs every caller the door has — K = 1 and copy-forward
seals, S2S victim reads and group TRIMs, an application flush, a
scrub that repairs a corrupt block, a hot-spare rebuild — once down
each branch, and every completion time and counter must match.

Recovery's MS/ME scan goes through the door too, and agrees down
both branches.

Then the door holds: outside ``core/members.py`` no module submits to
a member through ``members.submit`` or the SSD's lean forks, except
the staged unit write of ``SegmentLog._stage``; reclaim and repair
build no ``Request``, and recovery calls no ``submit``.

Last, the fault surface is said once, on ``BlockDevice``: every device
answers ``failed`` / ``fail`` / ``corrupted_in`` / ``clear_corruption``,
so nothing in the package probes for them, and the bypass decision is
the cache's, not the door's.
"""

from __future__ import annotations

import ast
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.block.device import LinearDevice, NullDevice, StatsDevice
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.config import RepairConfig, SrcConfig
from repro.core.members import Members
from repro.core.recovery import recover
from repro.faults import FaultInjector
from repro.harness.context import CACHE_SPACE, build_src
from repro.raid.array import Raid5Device
from repro.ssd.device import SSDDevice

from _stacks import TINY_SSD

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CONFIG = SrcConfig(cache_space=CACHE_SPACE,
                   repair=RepairConfig(hot_spares=1, rebuild_rate=0.0))


# ----------------------------------------------------------------------
# the two branches agree
# ----------------------------------------------------------------------
def record_batches(devices) -> list:
    """``(op, extents)`` of every device batch the ``devices`` serve."""
    batches = []
    for ssd in devices:
        def submit_extents(op, offsets, *args, inner=ssd.submit_extents):
            batches.append((op, len(offsets)))
            return inner(op, offsets, *args)
        ssd.submit_extents = submit_extents
    return batches


def run(lean: bool):
    """Every ``Members.issue`` caller on one stack at scale 1/1024 (4
    groups of 4 segments of 186 blocks): the completion times, the
    state left behind and the member batches seen."""
    cache = build_src(1 / 1024, config=CONFIG)
    if not lean:
        cache.members.seal_fast_ok = lambda: False
    devices = [*cache.ssds, *cache.repair.spares]
    batches = record_batches(devices)
    assert cache.members.seal_fast_ok() is lean
    ends, now = [], 0.0
    rng = np.random.default_rng(3)
    for lba in rng.integers(0, 2_764, size=8_000).tolist():
        now = cache.submit(Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE), now)
        ends.append(now)
    ends.append(cache.handle_flush(now))
    # A latent corrupt dirty block on member 1: scrub reads every unit,
    # rebuilds the block from its stripe and rewrites it.
    lba, loc = next((lba, entry.location)
                    for sg in range(cache.layout.groups)
                    for lba, entry in cache.mapping.sg_blocks(sg)
                    if entry.dirty and entry.location.ssd == 1)
    cache.ssds[1].inject_corruption(loc.offset, PAGE_SIZE)
    report = cache.repair.scrub_now(ends[-1])
    ends.append(ends[-1] + report.duration_s)
    # Member 2 dies under a read; the spare takes its slot and the
    # rebuild reads every other member's unit and writes the spare's.
    cache.ssds[2].fail()
    assert cache.members.submit(2, Request(Op.READ, 0, PAGE_SIZE),
                                ends[-1]) is None
    cache.repair.pump(ends[-1])
    state = {"ends": ends, "report": asdict(report),
             "src": asdict(cache.srcstats), "cache": asdict(cache.cstats),
             "io": [ssd.stats.as_dict() for ssd in devices],
             "ftl": [asdict(ssd.ftl.counters) for ssd in devices],
             "queue": [ssd.qstats.as_dict() for ssd in devices],
             "origin": cache.origin.stats.as_dict()}
    return state, batches


def test_the_lean_and_resilient_branches_agree():
    (lean, batches), (closed, none) = run(lean=True), run(lean=False)
    assert lean == closed
    src = lean["src"]
    assert src["s2s_collections"] > 0 and src["s2d_collections"] > 0
    # A dirty block repaired at all was repaired from its stripe.
    assert src["scrub_repairs"] == 1 and src["scrub_unrepairable"] == 0
    assert src["rebuilds_completed"] == 1 and src["rebuild_units"] > 0
    assert all(io["trim_ops"] > 0 for io in lean["io"][:4])
    assert all(io["flush_ops"] > 0 for io in lean["io"][:4])
    # The lean run took the batches (copy-forward K >= 2 among them),
    # the closed one none: one ``Members.submit`` per command.
    assert max(n for op, n in batches if op is Op.WRITE) > 1
    assert any(op is Op.READ for op, _ in batches)
    assert none == []


def recovered(lean: bool, monkeypatch):
    """A churned stack with member 2 dead, cut and recovered: the
    report, the members' I/O and queue books, and the batches seen."""
    cache = build_src(1 / 1024, config=CONFIG)
    now = 0.0
    rng = np.random.default_rng(5)
    for lba in rng.integers(0, 2_764, size=3_000).tolist():
        now = cache.submit(Request(Op.WRITE, lba * PAGE_SIZE, PAGE_SIZE), now)
    cache.ssds[2].fail()
    before = [ssd.stats.read_ops for ssd in cache.ssds]
    batches = record_batches(cache.ssds)
    with monkeypatch.context() as patch:
        if not lean:
            patch.setattr(Members, "seal_fast_ok", lambda self: False)
        _, report = recover(cache.ssds, cache.origin, cache.config,
                            cache.metadata, now + 1.0)
    state = {"report": asdict(report),
             "scan_reads": [ssd.stats.read_ops - n
                            for ssd, n in zip(cache.ssds, before)],
             "io": [ssd.stats.as_dict() for ssd in cache.ssds],
             "queue": [ssd.qstats.as_dict() for ssd in cache.ssds]}
    return state, batches


def test_recovery_scans_through_the_door_down_both_branches(monkeypatch):
    (lean, batches), (closed, none) = (recovered(True, monkeypatch),
                                       recovered(False, monkeypatch))
    assert lean == closed
    scanned = lean["report"]["segments_scanned"]
    assert scanned > 0 and lean["report"]["elapsed"] > 0
    # Each live member's whole scan, MS and ME of every summary, is one
    # batch; the dead member is read nothing.
    assert batches == [(Op.READ, 2 * scanned)] * 3 and none == []
    assert lean["scan_reads"] == [2 * scanned, 2 * scanned, 0, 2 * scanned]


# ----------------------------------------------------------------------
# the door holds
# ----------------------------------------------------------------------
FORKS = ("submit_write_fast", "submit_flush_fast")


def door_calls(source: str):
    """``(function, call)`` for each member call in ``source`` that
    bypasses ``Members.issue``: ``members.submit(``, the SSD's lean
    forks on anything but ``self``, and ``Request(``."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            func = node.func
            receiver = getattr(func, "value", None)
            name = (getattr(receiver, "attr", None)
                    or getattr(receiver, "id", None))
            if isinstance(func, ast.Name) and func.id == "Request":
                found.append((scope, "Request("))
            elif isinstance(func, ast.Attribute) and (
                    (func.attr == "submit" and name == "members")
                    or (func.attr in FORKS and name != "self")):
                found.append((scope, f"{name}.{func.attr}("))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_the_check_sees_every_way_round_the_door():
    source = ("def f(cache, ssd):\n"
              "    cache.members.submit(0, Request(READ), 0.0)\n"
              "    ssd.submit_flush_fast(0.0)\n"
              "    self.submit_write_fast(0, 4096, 0.0)\n"
              "    cache.members.issue(READ, [], GC)\n")
    assert door_calls(source) == [("f", "members.submit("), ("f", "Request("),
                                  ("f", "ssd.submit_flush_fast(")]


def test_only_the_staged_unit_write_goes_round_the_door():
    stray = {}
    for path in sorted(SRC.rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        if module == "core/members.py":
            continue
        calls = [c for c in door_calls(path.read_text())
                 if c[1] != "Request("]
        if calls:
            stray[module] = calls
    assert stray == {"core/segments.py": [("_stage",
                                           "ssd.submit_write_fast(")]}


def test_reclaim_and_repair_build_no_request():
    for module in ("core/reclaim.py", "repair/controller.py"):
        assert door_calls((SRC / module).read_text()) == [], module
    assert not hasattr(Members, "read_extents")


def test_recovery_submits_nothing_itself():
    calls = [node.func.attr for node in ast.walk(
        ast.parse((SRC / "core/recovery.py").read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    assert "issue" in calls and "submit" not in calls


# ----------------------------------------------------------------------
# one fault surface
# ----------------------------------------------------------------------
SURFACE = {"failed", "fail", "corrupted_in", "clear_corruption"}


def fault_probes(source: str):
    """``getattr`` / ``hasattr`` calls that ask for a fault-surface name."""
    return [(node.func.id, node.args[1].value)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
            and node.args[1].value in SURFACE]


def test_the_probe_check_sees_a_probe():
    source = ("if getattr(ssd, 'failed', False) and hasattr(ssd, 'fail'):\n"
              "    getattr(ssd, 'plan', None)\n")
    assert fault_probes(source) == [("getattr", "failed"), ("hasattr", "fail")]


def test_nothing_probes_for_the_fault_surface():
    probes = {path.relative_to(SRC).as_posix(): fault_probes(path.read_text())
              for path in sorted(SRC.rglob("*.py"))}
    assert {module: found for module, found in probes.items() if found} == {}


def test_every_device_answers_the_fault_surface():
    devices = [StatsDevice(NullDevice(MIB)),
               LinearDevice(NullDevice(2 * MIB), MIB, MIB),
               Raid5Device([NullDevice(MIB, name=f"m{i}") for i in range(4)]),
               NullDevice(MIB)]
    for device in devices:
        assert device.failed is False
        assert device.corrupted_in(0, 4 * PAGE_SIZE) == set()
        device.clear_corruption(0, 4 * PAGE_SIZE)
        device.fail()
        assert device.failed is True


def test_the_injector_forwards_the_fault_surface():
    ssd = SSDDevice(TINY_SSD)
    injector = FaultInjector(ssd)
    ssd.inject_corruption(PAGE_SIZE, PAGE_SIZE)
    assert injector.corrupted_in(0, 4 * PAGE_SIZE) == {1}
    injector.clear_corruption(PAGE_SIZE, PAGE_SIZE)
    assert ssd.corrupted_in(0, 4 * PAGE_SIZE) == set()
    assert not injector.failed
    injector.fail()
    assert injector.failed and ssd.failed


def test_bypass_is_the_caches_decision():
    assert not hasattr(Members, "enter_bypass")
