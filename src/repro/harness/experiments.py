"""The experiment registry: every reproduced table and figure as data.

The paper's evaluation is one shape written many times: a grid of
configurations over the three MSR trace groups (or over FIO).  Each
such table is a :class:`Sweep` — a row axis, ``(label, build)``
columns, a cell and its notes — and runs through the one
:func:`~repro.harness.parallel.sweep`, which fans its cells over
``--jobs`` processes with results byte-identical to the serial run.

:data:`REGISTRY` maps every CLI id to an :class:`Experiment`: a sweep,
or a suite function for what is not a grid (the static data tables and
the tenants / cluster / rebuild acceptance suites, which keep their
own modules).  ``repro.api``, the CLI, the report, the benchmarks and
the tests all read this one table; adding an experiment is adding one
entry here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.common import CacheTarget, WritePolicy
from repro.baselines.writeboost import WriteboostDevice
from repro.block.device import StatsDevice
from repro.common.units import GB, KB, KIB, MIB
from repro.core.config import (CleanRedundancy, FlushPoint, GcScheme,
                               ReclaimConfig, SrcConfig, VictimPolicy)
from repro.core.src import SrcCache
from repro.cost.products import PRODUCT_ORDER, PRODUCTS, TABLE4
from repro.harness import exp_cluster, exp_rebuild, exp_tenants
from repro.harness.context import (CACHE_SPACE, DEFAULT_SCALE,
                                   ExperimentScale, build_bcache,
                                   build_cache_window, build_flashcache,
                                   build_origin, build_src, build_ssds)
from repro.harness.parallel import parallel_map, sweep
from repro.harness.results import ExperimentResult, ratio
from repro.harness.runner import (TRACE_GROUPS, Cell, chunk_overwrites,
                                  cost, fio_on_baseline, fio_on_ssd, replay,
                                  run_trace_group)
from repro.workloads.msr import TRACES, SyntheticTrace, TraceSpec
from repro.workloads.replay import ReplayResult

Sides = List[List[Any]]


@dataclass(frozen=True)
class Sweep:
    """One table as a grid: ``cell(row, build, es)`` at every point.

    Cells run row-major (every column of the first row, then the next
    row); each returns ``(value, side)``.  ``transpose`` lays the table
    out with one row per column, as Figures 6 and 7 print their
    schemes down the side while the loop runs group by group.
    ``finish(result, sides, es)`` runs in the calling process after the
    grid: it turns the cells' side data into notes, or adds a row.
    """

    experiment: str                          # e.g. "Table 8"
    title: str
    head: str                                # first column's header
    rows: Tuple
    columns: Tuple[Tuple[str, Any], ...]     # (label, build) pairs
    cell: Callable[[Any, Any, ExperimentScale], Cell]
    notes: Tuple[str, ...] = ()
    row_label: Callable[[Any], str] = str
    transpose: bool = False
    # (header, numerator, denominator): a column of ratio(cells[n], cells[d])
    ratio_column: Optional[Tuple[str, int, int]] = None
    finish: Optional[Callable[[ExperimentResult, Sides, ExperimentScale],
                              None]] = None

    def run(self, es: ExperimentScale = DEFAULT_SCALE,
            jobs: int = 1) -> ExperimentResult:
        cells = sweep(self.rows, self.columns, self.cell, es, jobs)
        values = [[value for value, _ in row] for row in cells]
        keys = [self.row_label(row) for row in self.rows]
        labels = [label for label, _ in self.columns]
        if self.transpose:
            keys, labels = labels, keys
            values = [list(column) for column in zip(*values)]
        header = [self.head] + labels
        if self.ratio_column:
            header.append(self.ratio_column[0])
        result = ExperimentResult(self.experiment, self.title, header)
        for key, row in zip(keys, values):
            if self.ratio_column:
                _, num, den = self.ratio_column
                row = row + [ratio(row[num], row[den])]
            result.add_row(key, *row)
        result.notes.extend(self.notes)
        if self.finish is not None:
            self.finish(result, [[side for _, side in row] for row in cells],
                        es)
        return result

    def only(self, rows: Optional[Sequence] = None,
             columns: Optional[Sequence[str]] = None) -> "Sweep":
        """The same sweep over a subset of its rows and column labels."""
        return replace(
            self,
            rows=self.rows if rows is None else
            tuple(r for r in self.rows if r in rows),
            columns=self.columns if columns is None else
            tuple(c for c in self.columns if c[0] in columns))


@dataclass(frozen=True)
class Experiment:
    """One registry entry: what ``repro run <id>`` runs."""

    id: str
    blurb: str                       # one line for ``repro experiments``
    paper: str = ""                  # the paper's rows, quoted by the report
    sweep: Optional[Sweep] = None
    # Entries that are not a grid: suite(es, jobs) -> result or [results].
    suite: Optional[Callable[[ExperimentScale, int], Any]] = None

    @property
    def module(self) -> str:
        """The module holding the code this entry runs."""
        return self.suite.__module__ if self.suite else __name__

    def run(self, es: ExperimentScale = DEFAULT_SCALE,
            jobs: int = 1) -> List[ExperimentResult]:
        if self.sweep is not None:
            return [self.sweep.run(es, jobs)]
        out = self.suite(es, jobs)
        return out if isinstance(out, list) else [out]


# ----------------------------------------------------------------------
# column builds: build(es) -> a fresh stack (partials, so pools pickle)
# ----------------------------------------------------------------------
def _src(config: SrcConfig, es: ExperimentScale) -> SrcCache:
    return build_src(es.scale, config=config)


def _tapped_src(config: SrcConfig, es: ExperimentScale) -> SrcCache:
    """SRC over StatsDevice taps, for whole-run SSD amplification."""
    taps = [StatsDevice(s) for s in build_ssds(es.scale, n=config.n_ssds)]
    return build_src(es.scale, config=config, ssds=taps)


def _config(build=_src, **fields) -> partial:
    """A column build: SRC at Table 7 defaults with ``fields`` changed."""
    return partial(build, SrcConfig(cache_space=CACHE_SPACE, **fields))


def _bcache5(es: ExperimentScale) -> CacheTarget:
    return build_bcache(es.scale, raid_level=5,
                        policy=WritePolicy.WRITE_BACK, writeback_percent=0.90)


def _flashcache5(es: ExperimentScale) -> CacheTarget:
    return build_flashcache(es.scale, raid_level=5,
                            policy=WritePolicy.WRITE_BACK,
                            dirty_thresh_pct=0.90)


def _writeboost(es: ExperimentScale) -> WriteboostDevice:
    """Writeboost as an admin would deploy it: the array as RAID-0."""
    window, _ = build_cache_window(es.scale, raid_level=0)
    return WriteboostDevice(window, build_origin(), segment_size=512 * KIB,
                            migrate_threshold=0.7)


def _gc(scheme: GcScheme, victim: VictimPolicy) -> partial:
    return _config(_tapped_src, reclaim=ReclaimConfig(
        gc_scheme=scheme, victim_policy=victim, u_max=0.90))


# The Figure 7 lineup (chunk 4 KB, 2 MB buckets / sets, 90% writeback
# thresholds for the baselines, per §5.4); the latency table reuses it.
SCHEMES = (
    ("SRC", _config()),
    ("SRC-S2D", _config(reclaim=ReclaimConfig(gc_scheme=GcScheme.S2D))),
    ("Bcache5", _bcache5),
    ("Flashcache5", _flashcache5),
)


# ----------------------------------------------------------------------
# cell formatters: fmt(replay result, target) -> (value, side)
# ----------------------------------------------------------------------
def _mbs_amp(res: ReplayResult, _target) -> Cell:
    return f"{res.throughput_mb_s:.1f} ({res.io_amplification:.2f})", None


def _mbs_amp_taps(res: ReplayResult, cache: SrcCache) -> Cell:
    """Also the whole-run (incl. warm-up) amplification over the taps."""
    return _mbs_amp(res, cache)[0], sum(
        tap.amplification(cache.stats.total_bytes) for tap in cache.ssds)


def _mbs_amp_overlap(res: ReplayResult, cache: SrcCache) -> Cell:
    """Also how much reclaim ran in the background, and what it stalled."""
    ssd_bytes = sum(s.stats.read_bytes + s.stats.write_bytes
                    for s in cache.ssds)
    bg = sum(s.stats.background_bytes for s in cache.ssds)
    share = bg / ssd_bytes if ssd_bytes else 0.0
    stats = cache.srcstats
    return _mbs_amp(res, cache)[0], (
        f"bg share {share:.0%}, {stats.background_reclaims} reclaims, "
        f"{stats.throttle_stalls} stalls "
        f"({stats.throttle_wait_s * 1e3:.1f} ms)")


def _mbs_amp_hit(res: ReplayResult, _target) -> Cell:
    return (f"{res.throughput_mb_s:.1f} | {res.io_amplification:.2f} | "
            f"{res.hit_ratio:.2f}"), None


def _mbs_hit(res: ReplayResult, _target) -> Cell:
    return f"{res.throughput_mb_s:.1f} | {res.hit_ratio:.2f}", None


def _percentiles(res: ReplayResult) -> str:
    lat = res.latency
    return f"{lat.p50 * 1e3:.2f} | {lat.p99 * 1e3:.1f} | {lat.max * 1e3:.0f}"


def _latency(res: ReplayResult, _target) -> Cell:
    return _percentiles(res), None


# ----------------------------------------------------------------------
# finishers: notes from side data, extra rows
# ----------------------------------------------------------------------
def _tap_note(result: ExperimentResult, sides: Sides,
              _es: ExperimentScale) -> None:
    write = sides[TRACE_GROUPS.index("write")]
    result.notes.append(
        "whole-run SSD-tap amplification, Write group (incl. warm-up): "
        + ", ".join(f"{name} {amp:.2f}"
                    for name, amp in zip(result.columns[1:], write)))


def _overlap_note(result: ExperimentResult, sides: Sides,
                  _es: ExperimentScale) -> None:
    per_sg = result.columns.index("Per Segment Group") - 1
    result.notes.append(
        "background reclaim overlap (per-SG runs): "
        + "; ".join(f"{group}: {row[per_sg]}"
                    for group, row in zip(TRACE_GROUPS, sides)))


# Per-thread pause between completion and next issue for the paced
# row: enough idleness for background reclaim to hide in.  Saturated
# closed-loop replay leaves no spare capacity for SRC's reclaim; with
# any idleness in the arrivals the scheduler soaks it up and the
# foreground tail drops.
PACED_THINK = 0.002


def _paced_row(result: ExperimentResult, _sides: Sides,
               es: ExperimentScale) -> None:
    paced = run_trace_group(_src(SrcConfig(cache_space=CACHE_SPACE), es),
                            "write", es, think_time=PACED_THINK)
    result.add_row("SRC (paced)", _percentiles(paced), "-", "-")
    result.notes.append(
        f"paced row: write group, {PACED_THINK * 1e3:.0f} ms think "
        "time per replay thread "
        f"(SRC {paced.throughput_mb_s:.1f} MB/s)")


# ----------------------------------------------------------------------
# the sweeps
# ----------------------------------------------------------------------
TABLE2 = Sweep(
    "Table 2", "FIO 4KB random write: write-through vs write-back, "
    "single SSD (MB/s)", "Type", ("Bcache", "Flashcache"),
    (("WT", (-1, WritePolicy.WRITE_THROUGH)),
     ("WB", (-1, WritePolicy.WRITE_BACK))),
    fio_on_baseline, ratio_column=("Improvement (x)", 1, 0),
    notes=("paper: Bcache 15.3 -> 65.9 (4.3x); "
           "Flashcache 5.7 -> 100.3 (17.5x)",))

TABLE3 = Sweep(
    "Table 3", "Impact of flush command on raw SSD throughput (MB/s)",
    "Pattern", ("Sequential", "Random"),
    (("No flush", False), ("flush", True)),
    fio_on_ssd, ratio_column=("Reduction (x)", 0, 1),
    notes=("paper: sequential 402 -> 96 (4.1x); random 249 -> 30 (8.3x)",))

FIG1 = Sweep(
    "Figure 1", "Bcache/Flashcache write-back on RAID levels, FIO 4KB "
    "random write (MB/s)", "Cache", ("Bcache", "Flashcache"),
    tuple((f"RAID-{level}", (level, WritePolicy.WRITE_BACK))
          for level in (0, 1, 4, 5)),
    fio_on_baseline,
    notes=("paper shape: RAID-0 best; RAID-1 ~half; parity RAID hurts "
           "Flashcache more than Bcache",))

# Nominal (unscaled) write-unit sizes; the paper sweeps 4 KB-1 GB, we
# keep the range whose scaled sizes stay distinct.
FIG2 = Sweep(
    "Figure 2", "Erase group size: throughput (MB/s) vs write unit size "
    "across OPS levels", "OPS", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    tuple((f"{s}MB", s) for s in (32, 64, 128, 256, 512, 1024)),
    chunk_overwrites, row_label=lambda ops: f"{int(ops * 100)}%",
    notes=("paper shape: converges to ~400 MB/s at 256MB independent of "
           "OPS; small units degrade more at low OPS",))

# Nominal erase group sizes (the paper sweeps 2 MB-1 GB; scaled runs
# keep the sizes that remain distinct after scale-down), UMAX 90%.
FIG4 = Sweep(
    "Figure 4", "SRC vs erase group size: throughput MB/s "
    "(I/O amplification)", head="Group", rows=TRACE_GROUPS,
    columns=tuple((f"{s}MB", _config(erase_group_size=s * MIB))
                  for s in (32, 64, 128, 256, 512, 1024)),
    cell=partial(replay, fmt=_mbs_amp),
    notes=("paper shape: throughput rises with erase group size; "
           "amplification minimized at the small end",))

TABLE8 = Sweep(
    "Table 8", "Free space management, MB/s (I/O amplification)",
    head="Group", rows=TRACE_GROUPS,
    columns=(("S2D/FIFO", _gc(GcScheme.S2D, VictimPolicy.FIFO)),
             ("S2D/Greedy", _gc(GcScheme.S2D, VictimPolicy.GREEDY)),
             ("Sel-GC/FIFO", _gc(GcScheme.SEL_GC, VictimPolicy.FIFO)),
             ("Sel-GC/Greedy", _gc(GcScheme.SEL_GC, VictimPolicy.GREEDY))),
    cell=partial(replay, fmt=_mbs_amp_taps), finish=_tap_note,
    notes=("paper: Sel-GC > S2D on all groups; S2D has lower "
           "amplification",))

FIG5 = Sweep(
    "Figure 5", "Sel-GC UMAX sweep: throughput MB/s (I/O amplification)",
    head="Group", rows=TRACE_GROUPS,
    columns=tuple((f"{int(u * 100)}%", _config(reclaim=ReclaimConfig(
        gc_scheme=GcScheme.SEL_GC, u_max=u)))
        for u in (0.30, 0.50, 0.70, 0.90, 0.95)),
    cell=partial(replay, fmt=_mbs_amp),
    notes=("paper shape: peak near UMAX=90%, amplification grows with "
           "UMAX",))

TABLE9 = Sweep(
    "Table 9", "Clean data redundancy: PC vs NPC, MB/s "
    "(I/O amplification)", head="Group", rows=TRACE_GROUPS,
    columns=tuple((mode.name, _config(_tapped_src, clean_redundancy=mode))
                  for mode in (CleanRedundancy.PC, CleanRedundancy.NPC)),
    cell=partial(replay, fmt=_mbs_amp_taps), finish=_tap_note,
    notes=("paper: NPC wins everywhere, most on Write (431 -> 508)",))

TABLE10 = Sweep(
    "Table 10", "SRC cache RAID level, MB/s (I/O amplification)",
    head="Group", rows=TRACE_GROUPS,
    columns=tuple((f"RAID-{level}", _config(raid_level=level))
                  for level in (0, 4, 5)),
    cell=partial(replay, fmt=_mbs_amp),
    notes=("paper: RAID-0 > RAID-5 > RAID-4; 0 -> 5 gap ~20%",))

TABLE11 = Sweep(
    "Table 11", "flush issue point, MB/s (I/O amplification)",
    head="Group", rows=TRACE_GROUPS,
    columns=(("Per Segment", _config(flush_point=FlushPoint.PER_SEGMENT)),
             ("Per Segment Group",
              _config(flush_point=FlushPoint.PER_SEGMENT_GROUP))),
    cell=partial(replay, fmt=_mbs_amp_overlap), finish=_overlap_note,
    notes=("paper: per-segment flush costs ~10% (Write) to >40% (Read)",))

# The Table 12 products as SRC caches: the four-drive SATA sets as
# RAID-5, the NVMe drive alone without parity.
FIG6 = Sweep(
    "Figure 6", "Cost-effectiveness: MB/s | days | (MB/s)/$ | days/$",
    "Product", TRACE_GROUPS, tuple((key, key) for key in PRODUCT_ORDER),
    cost, transpose=True,
    notes=("paper shape: MLC > TLC raw perf; TLC better MB/s/$; MLC "
           "better days/$; NVMe fastest but worst lifetime/$ and "
           "fail-stop",))

FIG7 = Sweep(
    "Figure 7", "SRC vs existing solutions: MB/s | I/O amp | hit ratio",
    "Scheme", TRACE_GROUPS, SCHEMES, partial(replay, fmt=_mbs_amp_hit),
    transpose=True,
    notes=("paper: SRC 2.8-3.1x over Bcache5, 2.3-2.8x over Flashcache5; "
           "Sel-GC > S2D with higher amp and hit ratio",))

# Hotness-aware S2S vs blind S2S (copy every clean block) isolates the
# per-page hotness bitmap (§4.2); separate_hot_clean is §6's future-work
# option of grouping hot clean data apart from dirty data.
ABLATION = Sweep(
    "Ablation", "SRC design ablations, MB/s (I/O amplification)",
    head="Group", rows=TRACE_GROUPS,
    columns=tuple((name, _config(reclaim=ReclaimConfig(
        gc_scheme=GcScheme.SEL_GC, **overrides)))
        for name, overrides in (
            ("hotness-aware", {}),
            ("blind-S2S", dict(hotness_aware=False)),
            ("separate-hot-clean", dict(separate_hot_clean=True)))),
    cell=partial(replay, fmt=_mbs_amp),
    notes=("expected: blind S2S raises amplification without throughput "
           "gain",))

# Not a paper table: §5.1 notes SRC was built by modifying
# DM-Writeboost; this quantifies what erase-group alignment, clean-data
# caching and Sel-GC bought over it on the same hardware.
WRITEBOOST = Sweep(
    "Supplementary", "SRC vs DM-Writeboost (its code ancestor): MB/s | hit",
    "Scheme", TRACE_GROUPS,
    (("Writeboost(R0)", _writeboost), ("SRC", _config())),
    partial(replay, fmt=_mbs_hit), transpose=True,
    notes=("expected: SRC ahead on the Read group (Writeboost never "
           "caches reads); Writeboost is competitive on pure writes "
           "(RAID-0 log, no parity or clean-data upkeep)",))

# Not a paper table: reservoir-sampled latency percentiles of the
# Figure 7 lineup, plus SRC replayed below saturation (the paced row).
LATENCY = Sweep(
    "Supplementary (latency)",
    "Request latency, measured window: p50 | p99 | max (ms)",
    "Scheme", TRACE_GROUPS, SCHEMES, partial(replay, fmt=_latency),
    transpose=True, finish=_paced_row,
    notes=("not in the paper; percentiles from a reservoir sample of "
           "the measured window",))


# ----------------------------------------------------------------------
# the tables that are data, not a grid
# ----------------------------------------------------------------------
def _characterise(spec: TraceSpec, es: ExperimentScale,
                  sample: int) -> list:
    trace = SyntheticTrace(spec, scale=1 / 256, seed=es.seed)
    reqs = list(itertools.islice(trace.requests(), sample))
    mean_kb = sum(r.length for r in reqs) / len(reqs) / KB
    read_pct = 100 * sum(r.op.value == "read" for r in reqs) / len(reqs)
    return [spec.name, spec.group, spec.req_size_kb, mean_kb,
            100 * spec.read_ratio, read_pct]


def table6(es: ExperimentScale = DEFAULT_SCALE, jobs: int = 1,
           sample: int = 4000) -> ExperimentResult:
    """Each synthetic trace's spec vs a measured sample of its requests."""
    result = ExperimentResult(
        "Table 6", "Trace characteristics: spec vs synthesized "
        "(request KB, read ratio)",
        ["Trace", "Group", "Spec KB", "Meas KB", "Spec R%", "Meas R%"])
    for row in parallel_map(partial(_characterise, es=es, sample=sample),
                            TRACES.values(), jobs=jobs):
        result.add_row(*row)
    return result


def table4() -> ExperimentResult:
    result = ExperimentResult(
        "Table 4", "Storage device comparison (vendor specs)",
        ["Family", "Interface", "GB", "Price$", "SR MB/s", "SW MB/s",
         "RR K", "RW K"])
    for row in TABLE4:
        result.add_row(row.family, row.interface, row.capacity_gb,
                       row.price_usd, row.seq_read_mb, row.seq_write_mb,
                       row.rand_read_kiops, row.rand_write_kiops)
    return result


def table12() -> ExperimentResult:
    result = ExperimentResult(
        "Table 12", "SATA and NVMe SSD sets (Figure 6 contenders)",
        ["Product", "NAND", "Endurance", "Capacity GB", "Cost$", "GB/$",
         "Year"])
    for key in PRODUCT_ORDER:
        p = PRODUCTS[key]
        result.add_row(key, p.nand, p.endurance,
                       round(p.total_capacity / GB), p.set_cost_usd,
                       p.gb_per_dollar, p.year)
    result.notes.append("paper GB/$: 1.22 / 1.76 / 1.36 / 2.27 / 0.85")
    return result


def _tables4_12(_es: ExperimentScale, _jobs: int) -> List[ExperimentResult]:
    return [table4(), table12()]


REGISTRY: Dict[str, Experiment] = {e.id: e for e in (
    Experiment("table2", "WT vs WB, single SSD",
               "Bcache WT 15.3 / WB 65.9 (4.3x); "
               "Flashcache WT 5.7 / WB 100.3 (17.5x)", TABLE2),
    Experiment("table3", "flush command impact",
               "sequential 402 -> 96 MB/s (4.1x); "
               "random 249 -> 30 MB/s (8.3x)", TABLE3),
    Experiment("fig1", "caches over RAID levels",
               "RAID-0 best for both; RAID-1 ~half; parity RAID hurts "
               "Flashcache (in-place) more than Bcache (log)", FIG1),
    Experiment("fig2", "erase group size",
               "converges to ~400 MB/s at a 256 MB write unit "
               "independent of OPS; small units degrade, worst at 0% OPS",
               FIG2),
    Experiment("fig4", "SRC vs erase group size",
               "throughput rises with erase group size (W/M/R all); "
               "I/O amplification minimized at 2 MB", FIG4),
    Experiment("table8", "free space management",
               "S2D FIFO/Greedy 301/312, 491/466, 480/596; Sel-GC "
               "FIFO/Greedy 522/507, 581/547, 619/725 MB/s (W/M/R)",
               TABLE8),
    Experiment("fig5", "UMAX sweep",
               "Sel-GC throughput peaks at UMAX=90%, drops at 95%; "
               "amplification grows with UMAX", FIG5),
    Experiment("table9", "PC vs NPC",
               "PC 431/521/670 vs NPC 508/547/726 MB/s (W/M/R); "
               "largest gain on Write (~18%)", TABLE9),
    Experiment("table10", "SRC RAID level",
               "RAID-0 650/686/791; RAID-4 482/521/699; "
               "RAID-5 508/547/726 MB/s (W/M/R)", TABLE10),
    Experiment("table11", "flush control",
               "per-segment 463/481/418 vs per-SG 508/547/726 MB/s; "
               "Read group suffers >40% under per-segment flushes",
               TABLE11),
    Experiment("fig6", "cost-effectiveness",
               "MLC > TLC raw; TLC better MB/s/$; MLC better "
               "lifetime/$; NVMe fastest but fail-stop, worst "
               "lifetime/$ (A-MLC Write ~2140 days)", FIG6),
    Experiment("fig7", "SRC vs existing solutions",
               "SRC over Bcache5: 2.83/2.92/3.09x; over Flashcache5: "
               "2.50/2.75/2.34x (W/M/R); SRC amp 1.65/1.53/1.21; "
               "Sel-GC raises amp and hit ratio vs S2D", FIG7),
    Experiment("table6", "trace characteristics",
               "verbatim data (trace characteristics)", suite=table6),
    Experiment("tables4-12", "product sheets",
               "verbatim data (vendor specs); "
               "GB/$ 1.22/1.76/1.36/2.27/0.85", suite=_tables4_12),
    Experiment("ablation", "design ablations",
               "(not in the paper; DESIGN.md design-choice ablations)",
               ABLATION),
    Experiment("writeboost", "supplementary: SRC vs DM-Writeboost lineage",
               "(not in the paper; §5.1 notes SRC was built by "
               "modifying DM-Writeboost)", WRITEBOOST),
    Experiment("latency", "supplementary: latency percentiles per scheme",
               "(not in the paper; tail latency of the Figure 7 lineup)",
               LATENCY),
    Experiment("tenants", "tenant isolation: QoS shares vs a write whale",
               suite=exp_tenants.run),
    Experiment("cluster",
               "sharded cluster: scaling, rebalance, blast radius",
               suite=exp_cluster.run),
    Experiment("rebuild", "hot-spare rebuild rate sweep + scrub demo",
               suite=exp_rebuild.run),
)}
