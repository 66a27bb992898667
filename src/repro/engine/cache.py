"""LRU cache of encoded hypervector chunks.

Wearable stress-monitoring pipelines repeatedly score the same sliding
windows (overlapping windows, retries, multi-model ensembles sharing one
encoder budget).  Encoding — the random projection plus the trigonometric
activation — dominates fused-inference cost, so
:class:`~repro.engine.CompiledModel` can optionally memoise encoded chunks
keyed by the exact bytes of the input chunk.

The cache stores the *raw* encoded matrix; consumers treat cached entries as
read-only (the engine's scoring paths never mutate an encoding).  Hit/miss
counters are exposed for observability.  Long
running serving processes (:mod:`repro.serving`) bound the cache by total
byte footprint (``max_bytes``) in addition to — or instead of — the entry
count, since micro-batched chunks vary in row count.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

from ..obs import Tally

__all__ = ["CacheStats", "LRUCache", "array_fingerprint"]


def array_fingerprint(array: np.ndarray) -> bytes:
    """Content digest of an array: dtype, shape and raw bytes.

    Two arrays collide only on a SHA-1 collision, which is negligible next to
    the float round-trip noise of re-encoding.
    """
    contiguous = np.ascontiguousarray(array)
    digest = hashlib.sha1()
    digest.update(str(contiguous.dtype).encode())
    digest.update(str(contiguous.shape).encode())
    digest.update(contiguous.tobytes())
    return digest.digest()


class CacheStats(Tally):
    """Hit/miss/eviction counts of one cache instance."""

    COUNTS = {
        "hits": ("repro_engine_cache_hits_total", "Encode-cache hits."),
        "misses": ("repro_engine_cache_misses_total", "Encode-cache misses."),
        "evictions": (
            "repro_engine_cache_evictions_total", "Encode-cache evictions."
        ),
    }

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def hit_ratio(self) -> float:
        """Alias of :attr:`hit_rate`, the name reported by Table II."""
        return self.hit_rate

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, hit_rate={self.hit_rate:.3f})"
        )


class LRUCache:
    """Least-recently-used mapping from fingerprints to encoded chunks.

    ``maxsize`` bounds the number of cached chunks; ``max_bytes`` bounds the
    summed ``nbytes`` of the cached arrays.  At least one bound must be set
    (``maxsize=None`` means "unbounded count, bytes-bound only").  With the
    engine's fixed chunking every entry has the same shape, so a pure count
    bound implies a byte footprint of ``maxsize * chunk_size * total_dim *
    itemsize``; serving workloads with variable micro-batch sizes should cap
    ``max_bytes`` instead.  Values larger than ``max_bytes`` on their own are
    never stored (they would immediately evict the whole cache for a single
    unlikely-to-repeat entry).
    """

    def __init__(self, maxsize: int | None, *, max_bytes: int | None = None) -> None:
        if maxsize is None and max_bytes is None:
            raise ValueError("at least one of maxsize / max_bytes must be set")
        if maxsize is not None and maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.maxsize = int(maxsize) if maxsize is not None else None
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self.stats = CacheStats()
        self.current_bytes = 0
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> np.ndarray | None:
        """Return the cached array for ``key`` (marking it recent) or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.bump("misses")
            return None
        self._entries.move_to_end(key)
        self.stats.bump("hits")
        return entry

    def _evict_lru(self) -> None:
        _, evicted = self._entries.popitem(last=False)
        self.current_bytes -= evicted.nbytes
        self.stats.bump("evictions")

    def put(self, key: bytes, value: np.ndarray) -> None:
        """Insert ``value``, evicting least-recently-used entries until it fits."""
        if self.max_bytes is not None and value.nbytes > self.max_bytes:
            return
        existing = self._entries.pop(key, None)
        if existing is not None:
            self.current_bytes -= existing.nbytes
        if self.maxsize is not None:
            while len(self._entries) >= self.maxsize:
                self._evict_lru()
        if self.max_bytes is not None:
            while self._entries and self.current_bytes + value.nbytes > self.max_bytes:
                self._evict_lru()
        self._entries[key] = value
        self.current_bytes += value.nbytes

    def clear(self) -> None:
        self._entries.clear()
        self.current_bytes = 0
