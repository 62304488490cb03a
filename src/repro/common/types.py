"""Core I/O request types shared by every layer of the stack.

The block layer speaks in :class:`Request` objects, mirroring the Linux
``bio``: an opcode, a byte offset, a byte length and optional flags.
Simulated devices consume a request and return the completion time.
"""

from __future__ import annotations

import enum
from dataclasses import fields

import numpy as np

from repro.common.units import PAGE_SIZE


class Op(enum.Enum):
    """Block-layer operation codes."""

    READ = "read"
    WRITE = "write"
    FLUSH = "flush"   # barrier: durably persist all completed writes
    TRIM = "trim"     # advise the device the range is dead (discard)


class IoOrigin(enum.Enum):
    """Who generated an I/O — the attribution axis of the lifecycle.

    Foreground I/O is application-visible work whose latency the host
    observes; the background origins (garbage collection, destage,
    rebuild) occupy the same device resources but their completion is
    not waited on by the application ack path.  Devices account bytes
    per origin (:attr:`IoStats.bytes_by_origin`), which is what lets
    the harnesses report GC/foreground overlap directly.
    """

    FOREGROUND = "fg"
    GC = "gc"
    DESTAGE = "destage"
    REBUILD = "rebuild"
    SCRUB = "scrub"


# Small-integer codes of the chunk columns ``op`` / ``origin``
# (:mod:`repro.common.chunks`), in enum declaration order; defined in
# this leaf module so :meth:`IoStats.record_chunk` and the chunk
# helpers share one table.  Stable: differential artifacts and tests
# rely on them.
OPS = list(Op)
OP_READ, OP_WRITE, OP_FLUSH, OP_TRIM = range(4)
ORIGINS = list(IoOrigin)
ORIGIN_FG, ORIGIN_GC, ORIGIN_DESTAGE, ORIGIN_REBUILD, ORIGIN_SCRUB = range(5)

# The members themselves as module globals, for the per-request paths
# to compare against.  On CPython 3.11 ``Op.READ`` goes through the
# enum metaclass (~125 ns, where a global load is ~17 ns) and ``.value``
# through a descriptor (~145 ns, where ``._value_`` is ~19 ns); a request
# compares against several of them per layer (docs/performance.md).
READ, WRITE, FLUSH, TRIM = OPS
FOREGROUND, GC, DESTAGE, REBUILD, SCRUB = ORIGINS

# Around this many rows (or FTL pages) a scalar loop stops beating
# numpy dispatch overhead.  Measured on the FTL: a vector op's fixed
# cost (array allocation, np.unique) is ~15-20 us against ~0.3 us per
# page element-wise, so scalar wins until roughly 48-64; 32 keeps a
# safety margin on slower interpreters (docs/performance.md).
SCALAR_THRESHOLD = 32


class Request:
    """A block-layer I/O request.

    ``offset`` and ``length`` are in bytes.  ``fua`` marks a Force Unit
    Access write (write-through the device cache).  FLUSH requests carry
    zero length.  ``origin`` attributes the request to foreground work
    or one of the background services (GC, destage, rebuild); layers
    that transform a request must propagate it to the sub-requests they
    issue so per-device attribution stays truthful.  ``tenant`` names
    the owning tenant on multi-tenant stacks (:mod:`repro.tenancy`);
    ``None`` means untagged single-tenant traffic.

    Plain ``__slots__`` class rather than a dataclass: millions of
    Requests are allocated per run, and dropping the per-instance
    ``__dict__`` measurably cuts both allocation time and memory.
    """

    __slots__ = ("op", "offset", "length", "fua", "origin", "tenant")

    def __init__(self, op: Op, offset: int = 0, length: int = 0,
                 fua: bool = False,
                 origin: IoOrigin = IoOrigin.FOREGROUND,
                 tenant: "str | None" = None):
        if offset < 0 or length < 0:
            raise ValueError(
                f"negative offset/length: {op} offset={offset} "
                f"length={length}")
        if op is FLUSH and length != 0:
            raise ValueError("FLUSH requests carry no data")
        self.op = op
        self.offset = offset
        self.length = length
        self.fua = fua
        self.origin = origin
        self.tenant = tenant

    def __repr__(self) -> str:
        tenant = f", tenant={self.tenant!r}" if self.tenant else ""
        return (f"Request(op={self.op!r}, offset={self.offset}, "
                f"length={self.length}, fua={self.fua}, "
                f"origin={self.origin!r}{tenant})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Request):
            return NotImplemented
        return (self.op is other.op and self.offset == other.offset
                and self.length == other.length and self.fua == other.fua
                and self.origin is other.origin
                and self.tenant == other.tenant)

    @property
    def end(self) -> int:
        return self.offset + self.length

    def pages(self) -> range:
        """Logical 4 KiB page indexes covered by this request."""
        first = self.offset // PAGE_SIZE
        last = (self.end + PAGE_SIZE - 1) // PAGE_SIZE
        return range(first, last)

    def whole_pages(self, page_size: int = PAGE_SIZE) -> range:
        """Pages this request covers completely — what a TRIM may
        discard: the rest of a partly covered page is still live."""
        return range(-(-self.offset // page_size), self.end // page_size)


def read(offset: int, length: int) -> Request:
    return Request(READ, offset, length)


def write(offset: int, length: int, fua: bool = False) -> Request:
    return Request(WRITE, offset, length, fua)


def flush() -> Request:
    return Request(FLUSH)


def trim(offset: int, length: int) -> Request:
    return Request(TRIM, offset, length)


class Counters:
    """The stats protocol of a flat counter dataclass (``SrcStats``,
    ``CacheStats``, ``ClusterStats``): a dict round trip, a point-in-time
    copy and the counts since one."""

    def as_dict(self) -> dict:
        return dict(self.__dict__)

    @classmethod
    def from_dict(cls, data: dict):
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in names})

    def snapshot(self):
        return type(self)(**self.__dict__)

    def delta(self, earlier):
        """Counters accumulated since ``earlier`` was snapshotted."""
        return type(self)(**{k: v - getattr(earlier, k)
                             for k, v in self.__dict__.items()})


class ElementViews:
    """Base of a holder of NumPy tables that per-request code indexes
    one element at a time: table ``name`` in ``_VIEWS`` has a
    ``memoryview`` of its buffer at ``name_v``, which loads and stores
    Python ints and bools (only: it refuses a float) at about half
    NumPy's element cost (docs/performance.md).  A holder that replaces
    a table calls :meth:`_view` there.  Views neither pickle nor copy:
    the state drops them, ``__setstate__`` builds them again."""

    __slots__ = ()
    _VIEWS: tuple = ()

    def _view(self) -> None:
        for name in self._VIEWS:
            setattr(self, name + "_v", memoryview(getattr(self, name)))

    def __getstate__(self) -> dict:
        state = (dict(vars(self)) if hasattr(self, "__dict__") else
                 {name: getattr(self, name) for name in self.__slots__})
        for name in self._VIEWS:
            del state[name + "_v"]
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)
        self._view()


_IOSTATS_FIELDS = ("read_bytes", "write_bytes", "read_ops", "write_ops",
                   "flush_ops", "trim_ops", "trim_bytes", "bytes_by_origin")


class IoStats:
    """Byte and operation counters, kept per device / per layer.

    ``__slots__`` because ``record`` sits on the per-request hot path
    of every device in the stack.
    """

    __slots__ = _IOSTATS_FIELDS

    def __init__(self, read_bytes: int = 0, write_bytes: int = 0,
                 read_ops: int = 0, write_ops: int = 0,
                 flush_ops: int = 0, trim_ops: int = 0,
                 trim_bytes: int = 0, bytes_by_origin: dict = None):
        self.read_bytes = read_bytes
        self.write_bytes = write_bytes
        self.read_ops = read_ops
        self.write_ops = write_ops
        self.flush_ops = flush_ops
        self.trim_ops = trim_ops
        self.trim_bytes = trim_bytes
        self.bytes_by_origin = ({} if bytes_by_origin is None
                                else bytes_by_origin)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}"
                         for name in _IOSTATS_FIELDS)
        return f"IoStats({body})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IoStats):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in _IOSTATS_FIELDS)

    def record(self, req: Request) -> None:
        op = req.op
        if op is READ:
            self.read_ops += 1
            self.read_bytes += req.length
        elif op is WRITE:
            self.write_ops += 1
            self.write_bytes += req.length
        elif op is FLUSH:
            self.flush_ops += 1
            return
        elif op is TRIM:
            self.trim_ops += 1
            self.trim_bytes += req.length
            return
        key = req.origin._value_
        self.bytes_by_origin[key] = (
            self.bytes_by_origin.get(key, 0) + req.length)

    def record_chunk(self, ops, lengths, origin_codes) -> None:
        """Bulk :meth:`record` over chunk columns (batch engine path).

        ``ops`` / ``origin_codes`` are the small-integer codes of
        :mod:`repro.common.chunks`; ``lengths`` is in bytes.  Counter
        updates are identical to calling :meth:`record` once per row —
        the differential tests hold the two paths to byte equality.
        """
        ops = np.asarray(ops)
        lengths = np.asarray(lengths)
        if ops.shape[0] < SCALAR_THRESHOLD:
            # Scalar loop under the vector crossover: a short chunk
            # (mixed-trace write runs are a handful of rows) costs more
            # in bincount setup than in plain integer adds.
            by_origin = self.bytes_by_origin
            origin_list = np.asarray(origin_codes).tolist()
            lengths_list = lengths.tolist()
            for i, op in enumerate(ops.tolist()):
                length = lengths_list[i]
                if op == OP_READ:
                    self.read_ops += 1
                    self.read_bytes += length
                elif op == OP_WRITE:
                    self.write_ops += 1
                    self.write_bytes += length
                elif op == OP_FLUSH:
                    self.flush_ops += 1
                    continue
                elif op == OP_TRIM:
                    self.trim_ops += 1
                    self.trim_bytes += length
                    continue
                key = ORIGINS[origin_list[i]]._value_
                by_origin[key] = by_origin.get(key, 0) + length
            return
        op_counts = np.bincount(ops, minlength=4)
        op_bytes = np.bincount(ops, weights=lengths, minlength=4)
        self.read_ops += int(op_counts[OP_READ])
        self.read_bytes += int(op_bytes[OP_READ])
        self.write_ops += int(op_counts[OP_WRITE])
        self.write_bytes += int(op_bytes[OP_WRITE])
        self.flush_ops += int(op_counts[OP_FLUSH])
        self.trim_ops += int(op_counts[OP_TRIM])
        self.trim_bytes += int(op_bytes[OP_TRIM])
        # bytes_by_origin accumulates READ/WRITE lengths only.
        data = (ops == OP_READ) | (ops == OP_WRITE)
        if data.any():
            origin_codes = np.asarray(origin_codes)
            by_origin = np.bincount(origin_codes[data],
                                    weights=lengths[data])
            for code, total in enumerate(by_origin):
                if total:
                    key = ORIGINS[code]._value_
                    self.bytes_by_origin[key] = (
                        self.bytes_by_origin.get(key, 0) + int(total))

    @property
    def total_bytes(self) -> int:
        return self.read_bytes + self.write_bytes

    @property
    def total_ops(self) -> int:
        return self.read_ops + self.write_ops + self.flush_ops + self.trim_ops

    @property
    def foreground_bytes(self) -> int:
        """READ/WRITE bytes attributed to application-visible work."""
        return self.bytes_by_origin.get(FOREGROUND._value_, 0)

    @property
    def background_bytes(self) -> int:
        """READ/WRITE bytes attributed to GC, destage and rebuild."""
        return sum(v for k, v in self.bytes_by_origin.items()
                   if k != FOREGROUND._value_)

    def as_dict(self) -> dict:
        data = {name: getattr(self, name) for name in _IOSTATS_FIELDS}
        data["bytes_by_origin"] = dict(self.bytes_by_origin)
        data["total_bytes"] = self.total_bytes
        data["total_ops"] = self.total_ops
        data["foreground_bytes"] = self.foreground_bytes
        data["background_bytes"] = self.background_bytes
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "IoStats":
        return cls(**{k: v for k, v in data.items()
                      if k in _IOSTATS_FIELDS})

    def snapshot(self) -> "IoStats":
        return IoStats(
            self.read_bytes, self.write_bytes, self.read_ops,
            self.write_ops, self.flush_ops, self.trim_ops, self.trim_bytes,
            dict(self.bytes_by_origin),
        )

    def delta(self, earlier: "IoStats") -> "IoStats":
        """Counters accumulated since ``earlier`` was snapshotted."""
        origins = {
            k: self.bytes_by_origin.get(k, 0)
            - earlier.bytes_by_origin.get(k, 0)
            for k in set(self.bytes_by_origin) | set(earlier.bytes_by_origin)
        }
        return IoStats(
            self.read_bytes - earlier.read_bytes,
            self.write_bytes - earlier.write_bytes,
            self.read_ops - earlier.read_ops,
            self.write_ops - earlier.write_ops,
            self.flush_ops - earlier.flush_ops,
            self.trim_ops - earlier.trim_ops,
            self.trim_bytes - earlier.trim_bytes,
            {k: v for k, v in origins.items() if v},
        )


def _tuple2_hash_array(a, b):
    """``hash((int(a_i), int(b_i)))`` over parallel uint64 columns.

    An exact reimplementation of CPython's tuple hash (the xxHash-based
    scheme of 3.8+) over two non-negative int lanes, where each lane's
    item hash is the Mersenne-prime reduction ``k % (2**61 - 1)`` CPython
    uses for ints.  Int hashing is not randomized (PYTHONHASHSEED only
    affects str/bytes), so this is deterministic across runs — which is
    what lets the latency reservoir's hash-slotted replacement vectorize
    while staying bit-identical to the scalar loop.
    """
    mersenne = np.uint64((1 << 61) - 1)
    p1 = np.uint64(11400714785074694791)
    p2 = np.uint64(14029467366897019727)
    tail = np.uint64(2 ^ (2870177450012600261 ^ 3527539))
    acc = np.uint64(2870177450012600261) + (a % mersenne) * p2
    acc = ((acc << np.uint64(31)) | (acc >> np.uint64(33))) * p1
    acc += (b % mersenne) * p2
    acc = ((acc << np.uint64(31)) | (acc >> np.uint64(33))) * p1
    acc += tail
    acc[acc == np.uint64(0xFFFFFFFFFFFFFFFF)] = np.uint64(1546275796)
    return acc.view(np.int64)


def quantile(samples, q: float) -> float:
    """The q-quantile of ``samples``: element ``int(q * n)`` of their
    sorted copy (capped at the last), 0.0 when there are none."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class LatencyStats:
    """Streaming latency accumulator with approximate percentiles.

    Percentiles come from a fixed reservoir sample (size 4096) so
    memory stays bounded over arbitrarily long runs.  ``__slots__``:
    one ``record`` per completion on the tenant and replay hot paths.
    """

    __slots__ = ("count", "total", "max", "_reservoir", "_reservoir_size")

    def __init__(self, count: int = 0, total: float = 0.0,
                 max: float = 0.0, _reservoir: list = None,
                 _reservoir_size: int = 4096):
        self.count = count
        self.total = total
        self.max = max
        self._reservoir = [] if _reservoir is None else _reservoir
        self._reservoir_size = _reservoir_size

    def __repr__(self) -> str:
        return (f"LatencyStats(count={self.count}, total={self.total}, "
                f"max={self.max})")

    def record(self, latency: float) -> None:
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(latency)
        else:
            # Vitter's algorithm R with a deterministic hash-based slot.
            slot = hash((self.count, round(latency * 1e9))) % self.count
            if slot < self._reservoir_size:
                self._reservoir[slot] = latency

    def record_many(self, latencies) -> None:
        """Record a column of latencies (batch engine path).

        Bit-identical to calling :meth:`record` per sample: the running
        total accumulates strictly left-to-right (``np.add.accumulate``,
        not pairwise ``sum``), and reservoir replacement slots come from
        :func:`_tuple2_hash_array` — an exact vectorization of CPython's
        ``hash((count, round(latency * 1e9)))``.  Replacements apply in
        row order so duplicate slots keep last-writer-wins.
        """
        if len(latencies) < 32:
            # Below the vector crossover the per-call numpy overhead
            # (rint, hashing, accumulate) exceeds n scalar records; a
            # list (the engine's per-request block) needs no conversion.
            record = self.record
            for latency in (latencies.tolist() if isinstance(
                    latencies, np.ndarray) else latencies):
                record(latency)
            return
        lats = np.asarray(latencies, dtype=np.float64)
        n = lats.shape[0]
        count0 = self.count
        seq = np.empty(n + 1, dtype=np.float64)
        seq[0] = self.total
        seq[1:] = lats
        self.total = float(np.add.accumulate(seq)[-1])
        peak = float(lats.max())
        if peak > self.max:
            self.max = peak
        reservoir = self._reservoir
        size = self._reservoir_size
        fill = min(max(size - len(reservoir), 0), n)
        if fill:
            reservoir.extend(lats[:fill].tolist())
        self.count = count0 + n
        if fill < n:
            rest = lats[fill:]
            counts = np.arange(count0 + fill + 1, count0 + n + 1,
                               dtype=np.uint64)
            # round() and np.rint are both exact round-half-to-even on
            # the same float64 product, so the hashed key is identical.
            rounded = np.rint(rest * 1e9).astype(np.int64)
            slots = (_tuple2_hash_array(counts, rounded.astype(np.uint64))
                     % counts.astype(np.int64))
            hit = np.nonzero(slots < size)[0]
            if hit.shape[0]:
                for slot, lat in zip(slots[hit].tolist(),
                                     rest[hit].tolist()):
                    reservoir[slot] = lat

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (q in [0, 1]) from the reservoir."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0,1], got {q}")
        return quantile(self._reservoir, q)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
        }
