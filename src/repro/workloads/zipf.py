"""Zipfian block popularity — the skew engine behind the trace models.

Production block workloads (MSR Cambridge and Microsoft Production
Server traces, Table 6) are highly skewed: a small hot set absorbs most
accesses.  We model per-trace skew with a bounded Zipf distribution
sampled efficiently via inverse-CDF lookup on a precomputed table, with
a per-trace shuffle so different traces hash their hot sets to
different regions of the volume.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.chunks import DEFAULT_CHUNK_REQUESTS, OP_WRITE, make_chunk
from repro.common.errors import ConfigError
from repro.common.units import KIB, PAGE_SIZE


class ZipfSampler:
    """Bounded Zipf(theta) over ``n`` items with O(log n) sampling."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0,
                 shuffle: bool = True):
        if n <= 0:
            raise ConfigError("n must be positive")
        if theta < 0:
            raise ConfigError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if shuffle:
            self._perm = self._rng.permutation(n)
        else:
            self._perm = None

    def sample(self) -> int:
        """Draw one item index in [0, n)."""
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u))
        if self._perm is not None:
            return int(self._perm[rank])
        return rank

    def sample_many(self, count: int) -> np.ndarray:
        """Vectorised draw of ``count`` item indexes."""
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u)
        if self._perm is not None:
            return self._perm[ranks]
        return ranks


def zipf_chunks(span: int, request_size: int = 4 * KIB,
                seed: int = 0) -> Iterator[np.ndarray]:
    """Chunked Zipf-skewed write stream over ``span`` bytes, forever.

    Offsets are page-aligned with Zipf(0.99) popularity; the
    vector draw (:meth:`ZipfSampler.sample_many`) consumes the RNG
    bitstream exactly as repeated scalar :meth:`ZipfSampler.sample`
    calls do.
    """
    if request_size <= 0 or span < request_size:
        raise ConfigError("span must cover at least one request")
    slots = max(1, (span - request_size) // PAGE_SIZE + 1)
    sampler = ZipfSampler(slots, seed=seed)
    while True:
        offsets = (sampler.sample_many(DEFAULT_CHUNK_REQUESTS)
                   .astype(np.int64) * PAGE_SIZE)
        yield make_chunk(offsets, request_size, OP_WRITE)
