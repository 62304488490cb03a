"""``Members.issue``, SRC's one door to its SSDs, and that it stays one.

Its two branches must agree: on a lean stack a member's commands go
down as one device batch (a lone WRITE and a FLUSH by their measured
forks), with the gate forced closed one ``Members.submit`` each.  One
seeded stack runs every caller the door has — K = 1 and copy-forward
seals, S2S victim reads and group TRIMs, an application flush, a
scrub that repairs a corrupt block, a hot-spare rebuild — once down
each branch, and every completion time and counter must match.

Then the door holds: outside ``core/members.py`` no module submits to
a member through ``members.submit`` or the SSD's lean forks, except
the staged unit write of ``SegmentLog._stage``, and reclaim and repair
build no ``Request``.
"""

from __future__ import annotations

import ast
from dataclasses import asdict
from pathlib import Path

import numpy as np

from repro.common.types import Op, Request
from repro.common.units import PAGE_SIZE
from repro.core.config import RepairConfig, SrcConfig
from repro.core.members import Members
from repro.harness.context import CACHE_SPACE, build_src

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CONFIG = SrcConfig(cache_space=CACHE_SPACE,
                   repair=RepairConfig(hot_spares=1, rebuild_rate=0.0))


# ----------------------------------------------------------------------
# the two branches agree
# ----------------------------------------------------------------------
def run(lean: bool):
    """Every ``Members.issue`` caller on one stack at scale 1/1024 (4
    groups of 4 segments of 186 blocks): the completion times, the
    state left behind and the member batches seen."""
    cache = build_src(1 / 1024, config=CONFIG)
    if not lean:
        cache.members.seal_fast_ok = lambda: False
    devices = [*cache.ssds, *cache.repair.spares]
    batches = []
    for ssd in devices:
        def submit_extents(op, offsets, *args, inner=ssd.submit_extents):
            batches.append((op, len(offsets)))
            return inner(op, offsets, *args)
        ssd.submit_extents = submit_extents
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
