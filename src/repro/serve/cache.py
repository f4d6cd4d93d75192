"""A bounded, thread-safe LRU result cache for the alias service.

Pestrie query structures are immutable after decode, so a cached answer
stays valid until the service swaps its backend (``apply_delta``); the
eviction policy is recency, plus targeted invalidation at swap time.
Stored values are never mutated: the alias service caches booleans and
compact ``array("I")`` id lists, and copies a list answer into a fresh
``list`` on every hit, so concurrent callers never share one.

Invalidation is epoch-guarded against the compute/put race: a reader may
compute an answer against the old backend, lose the CPU, and try to cache
it after the swap already invalidated that key.  ``put`` therefore accepts
the epoch the reader observed *before* computing; ``invalidate_where``
bumps the epoch under the same lock, so any in-flight put stamped with the
old epoch is silently dropped instead of resurrecting a stale answer.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional

from ..obs import get_registry


class LRUCache:
    """Least-recently-used mapping with a fixed capacity.

    All operations take the internal lock, so one instance can be shared
    by every worker thread of a service.  A ``capacity`` of zero disables
    caching entirely (every ``get`` misses, ``put`` is a no-op).
    """

    __slots__ = ("_capacity", "_data", "_epoch", "_evictions", "_invalidated",
                 "_lock", "hits", "misses")

    _MISS = object()

    def __init__(self, capacity: int = 4096):
        if capacity < 0:
            raise ValueError("cache capacity must be non-negative")
        self._capacity = capacity
        self._data: "OrderedDict[Hashable, object]" = OrderedDict()
        self._epoch = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        # Registry handles held for the instance's lifetime; the hot get/put
        # paths never touch them except on the (rare) eviction branch.
        registry = get_registry()
        self._evictions = registry.counter("repro_cache_evictions_total")
        self._invalidated = registry.counter("repro_cache_invalidated_total")

    @property
    def epoch(self) -> int:
        """Current invalidation epoch; read it *before* computing a value."""
        with self._lock:
            return self._epoch

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, default: Optional[object] = None) -> object:
        """Return the cached value (refreshing its recency) or ``default``."""
        with self._lock:
            value = self._data.get(key, self._MISS)
            if value is self._MISS:
                self.misses += 1
                return default
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: object, epoch: Optional[int] = None) -> None:
        """Insert or refresh a value, evicting the oldest entry if full.

        With ``epoch`` given, the put is dropped when an invalidation has
        happened since the caller read :attr:`epoch` — the value may have
        been computed against a backend that is no longer current.
        """
        if self._capacity == 0:
            return
        with self._lock:
            if epoch is not None and epoch != self._epoch:
                return
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            if len(self._data) > self._capacity:
                self._data.popitem(last=False)
                self._evictions.inc()

    def invalidate_where(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``; bump the epoch.

        Returns the number of entries removed.  The epoch bump and the
        removals are one atomic step, so a concurrent ``put`` stamped with
        the pre-invalidation epoch can never land afterwards.
        """
        with self._lock:
            self._epoch += 1
            stale = [key for key in self._data if predicate(key)]
            for key in stale:
                del self._data[key]
        if stale:
            self._invalidated.inc(len(stale))
        return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._epoch += 1
            self._data.clear()
            self.hits = 0
            self.misses = 0
