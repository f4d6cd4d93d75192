"""The alias query service: a thread-safe, instrumented query front-end.

:class:`AliasService` fronts one loaded query index and is what a
long-running process (an IDE daemon, a CI bot, an analysis server)
should talk to instead of a raw :class:`FlatIndex`:

* **thread safety** — the underlying query structures are immutable after
  decode, and the service's own mutable state (result cache, statistics)
  is individually locked, so any number of worker threads may query one
  service concurrently;
* **batch APIs** — ``is_alias_batch`` / ``list_aliases_many`` /
  ``points_to_batch`` deduplicate repeated queries, sort the remainder by
  ptList column so consecutive lookups share slab searches, and pay the
  instrumentation cost once per call instead of once per query;
* **caching** — a bounded LRU holds recent answers (list answers as the
  packed little-endian ``uint32`` bytes the backend returns), valid until
  :meth:`~AliasService.apply_delta` swaps the backend (which invalidates
  exactly the entries the delta could have changed);
* **live updates** — :meth:`~AliasService.apply_delta` hot-swaps the
  backend for a delta-extended one without pausing readers: in-flight
  queries finish against whichever backend they captured, and the cache's
  epoch guard keeps their answers from being cached stale;
* **instrumentation** — per-query-type counters, cache hit rate, and
  p50/p95 latencies, surfaced through :meth:`stats` and the
  ``repro-pestrie serve-stats`` CLI subcommand.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.flat import PACKED_QUERIES, FlatIndex, packed_answer, unpack_ids
from ..delta import (
    DeltaLog,
    OverlayIndex,
    VersionUnavailableError,
    VersionedOverlay,
    load_versions,
)
from ..obs import DEFAULT_SLOW_CAPACITY, DEFAULT_SLOW_THRESHOLD, SlowQuery, SlowQueryLog
from ..obs.cost import QueryCost, current_cost, measure, note_cache_hit
from ..obs.tracing import trace
from .cache import LRUCache
from .stats import DEFAULT_WINDOW, ServiceStats, StatsSnapshot

_MISS = object()


def _fill_cost(cost: QueryCost, backend, epoch: int, hits: int, misses: int,
               queries: int) -> None:
    """Stamp the backend-shape costs a measured block can't observe itself.

    Called inside the ``measure()`` block so a surrounding context (the
    daemon's per-request one) inherits the values through the exit merge.
    The byte/section counters arrive separately via the store layer's
    hooks; this fills in what only the service knows: the cache outcome,
    the epoch answered at, and the backend's replay depth.
    """
    cost.cache_hits += hits
    cost.cache_misses += misses
    cost.queries = queries
    cost.epoch = epoch
    depth = getattr(backend, "generation", 0)
    if depth > cost.replay_depth:
        cost.replay_depth = depth


class AliasService:
    """Serve Table 1 queries from one decoded Pestrie index.

    ``backend`` is a :class:`FlatIndex` or an
    :class:`~repro.delta.OverlayIndex` over one.  Use the classmethods to
    build one from an index or a file.
    """

    def __init__(self, backend, cache_size: int = 4096,
                 stats_window: int = DEFAULT_WINDOW,
                 slow_query_threshold: Optional[float] = DEFAULT_SLOW_THRESHOLD,
                 slow_log_capacity: int = DEFAULT_SLOW_CAPACITY):
        self._backend = backend
        self._cache = LRUCache(cache_size)
        self._stats = ServiceStats(window=stats_window)
        # Slow-query diagnostics: one float compare per query while quiet.
        # ``slow_query_threshold=None`` disables capture entirely.
        self._slow = SlowQueryLog(threshold=slow_query_threshold,
                                  capacity=slow_log_capacity,
                                  service=self._stats.service)
        # Serialises writers (apply_delta, prune_versions) against each
        # other and against version resolution (as_of, versions()); the
        # query paths never take it.
        self._swap_lock = threading.Lock()
        # MVCC state: every apply_delta stamps a new version, and every
        # superseded backend stays reachable (immutable, structure-shared)
        # so as_of() can pin it.  A service built from a versioned file
        # additionally carries the file's own epoch history.
        self._version = 0
        self._version_floor = 0
        self._history: Dict[int, object] = {0: backend}
        self._versioned: Optional[VersionedOverlay] = None

    @classmethod
    def from_index(cls, index: FlatIndex, **options) -> "AliasService":
        return cls(index, **options)

    @classmethod
    def from_files(cls, paths: Sequence[str], lazy: bool = False,
                   **options) -> "AliasService":
        """Serve one persistent file (``lazy=True`` defers section decode
        to the first query).

        ``paths`` must name exactly one file; any other count raises
        ``ValueError`` before anything is opened.  A ``PESTRIE3``/
        ``PESTRIE4`` file is opened through the versioned loader: the
        service starts at the file's epoch head with the whole on-disk
        version history answerable via :meth:`as_of`.
        """
        from ..core.pipeline import load_index

        if len(paths) != 1:
            raise ValueError("a service fronts exactly one file, got %d"
                             % len(paths))
        versioned: Optional[VersionedOverlay] = None
        if _is_delta_capable(paths[0]):
            versioned = load_versions(paths[0], lazy=lazy)
            backend = versioned.head_overlay()
        else:
            backend = load_index(paths[0], lazy=lazy)
        try:
            service = cls(backend, **options)
            if versioned is not None:
                service._versioned = versioned
                service._version = versioned.head
                service._version_floor = versioned.floor
                service._history = {versioned.head: backend}
            return service
        except BaseException:
            # The service never owned the backend: close the mappings we
            # just opened instead of leaking them (a close failure must not
            # mask the constructor's error).
            try:
                (versioned if versioned is not None else backend).close()
            except Exception:
                pass
            raise

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def backend(self):
        return self._backend

    @property
    def n_pointers(self) -> int:
        return self._backend.n_pointers

    @property
    def n_objects(self) -> int:
        return self._backend.n_objects

    def stats(self) -> StatsSnapshot:
        return self._stats.snapshot()

    def reset_stats(self) -> None:
        self._stats.reset()
        self._slow.clear()

    @property
    def slow_query_log(self) -> SlowQueryLog:
        return self._slow

    def slow_queries(self) -> List[SlowQuery]:
        """The most recent queries over the slow threshold, oldest first."""
        return self._slow.entries()

    def set_slow_query_threshold(self, seconds: Optional[float]) -> None:
        """Change (or ``None``-disable) the slow-query capture threshold."""
        if seconds is not None and seconds < 0:
            raise ValueError("slow-query threshold must be non-negative")
        self._slow.threshold = seconds

    def cache_size(self) -> int:
        return len(self._cache)

    def clear_cache(self) -> None:
        self._cache.clear()

    def close(self) -> None:
        """Release the backend's mapped resources, if it holds any.

        Lazy (mmap-backed) backends free their containers; for an eager
        backend this is a no-op.  The service object itself stays
        constructed — queries after close fail with
        ``ContainerClosedError`` from the backend, not with attribute
        errors from a half-torn-down service.
        """
        if self._versioned is not None:
            self._versioned.close()
            return
        self._backend.close()

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------

    def apply_delta(self, log: DeltaLog) -> int:
        """Apply an edit script to the live service; readers never pause.

        The backend is swapped for a delta-extended one (an
        :class:`~repro.delta.OverlayIndex` over the current base), then
        exactly the cache entries the delta could have changed are
        dropped.  Swap happens *before* invalidation: in the window between them a reader
        can only cache answers from the *new* backend — and any in-flight
        pre-swap computation is discarded by the cache's epoch guard.

        Each effective delta also stamps a new service version: the
        superseded backend stays pinned in the version history, so
        :meth:`as_of` can still answer at any earlier version, and
        snapshot handles taken before the swap keep their exact answers.

        Returns the number of cache entries invalidated.
        """
        inserts, deletes = log.net()
        facts = inserts + deletes
        if not facts:
            return 0
        with self._swap_lock:
            old = self._backend
            new = self._extended_backend(old, log)

            dirty: Set[int] = {pointer for pointer, _ in facts}
            objects: Set[int] = {obj for _, obj in facts}
            # list_aliases(r) can change for any r sharing a delta object
            # with a dirty pointer — on either side of the swap (r may be
            # an alias only before, or only after, the edit).
            affected: Set[int] = set(dirty)
            for obj in objects:
                affected.update(old.list_pointed_by(obj))
                affected.update(new.list_pointed_by(obj))

            self._backend = new
            self._version += 1
            self._history[self._version] = new

            def stale(key) -> bool:
                if len(key) == 3:
                    # Version-qualified entries belong to pinned snapshots:
                    # a historical answer can never go stale.
                    return False
                kind, operand = key
                if kind == "is_alias":
                    return operand[0] in dirty or operand[1] in dirty
                if kind == "list_aliases":
                    return operand in affected
                if kind == "list_points_to":
                    return operand in dirty
                if kind == "list_pointed_by":
                    return operand in objects
                return True

            return self._cache.invalidate_where(stale)

    @staticmethod
    def _extended_backend(backend, log: DeltaLog):
        if isinstance(backend, OverlayIndex):
            return backend.extend(log)
        return OverlayIndex(backend, log)

    # ------------------------------------------------------------------
    # Time travel
    # ------------------------------------------------------------------

    @property
    def version(self) -> int:
        """The service's current (head) version."""
        return self._version

    @property
    def version_floor(self) -> int:
        """The oldest version :meth:`as_of` can still answer."""
        return self._version_floor

    def versions(self) -> List[int]:
        """Every answerable version, oldest first (floor leads the list)."""
        with self._swap_lock:
            known = {self._version_floor, self._version}
            known.update(epoch for epoch in self._history
                         if epoch >= self._version_floor)
            if self._versioned is not None:
                known.update(epoch for epoch in self._versioned.versions()
                             if epoch >= self._version_floor)
            return sorted(known)

    def as_of(self, version: int) -> "AliasSnapshot":
        """Pin a read-only snapshot of the service at ``version``.

        The handle answers all four Table 1 queries (and their batch
        forms) exactly as the service did at that version, no matter how
        many deltas land afterwards — backends are immutable, so the pin
        is just a reference, not a copy.  Versions between two epochs
        resolve to the older epoch; versions outside
        ``[version_floor, version]`` raise
        :class:`~repro.delta.VersionUnavailableError`.
        """
        backend, resolved = self._resolve_version(version)
        return AliasSnapshot(self, backend, resolved)

    def prune_versions(self, floor: int) -> int:
        """Raise the version floor, releasing history below it.

        The service-side analogue of the file compaction watermark: after
        ``prune_versions(v)``, :meth:`as_of` below ``v`` fails loudly with
        :class:`~repro.delta.VersionUnavailableError`.  Snapshot handles
        already pinned below the new floor keep working — they hold their
        backend directly.  Returns the number of history entries dropped.
        """
        if not isinstance(floor, int) or isinstance(floor, bool):
            raise TypeError("version floor must be an integer, got %r" % (floor,))
        with self._swap_lock:
            if floor > self._version:
                raise VersionUnavailableError(
                    "cannot raise the version floor to %d: service head is %d"
                    % (floor, self._version)
                )
            if floor <= self._version_floor:
                return 0
            file_head = (self._versioned.head
                         if self._versioned is not None else None)
            if file_head is None or floor > file_head:
                # Keep the floor state itself resolvable: re-key the
                # backend that answers for the new floor before dropping
                # everything older.
                snap = max((epoch for epoch in self._history if epoch <= floor),
                           default=None)
                if snap is not None:
                    self._history[floor] = self._history[snap]
            dropped = [epoch for epoch in self._history if epoch < floor]
            for epoch in dropped:
                del self._history[epoch]
            self._version_floor = floor
            return len(dropped)

    def _resolve_version(self, version: int):
        """Map a requested version to ``(backend, resolved_epoch)``."""
        if not isinstance(version, int) or isinstance(version, bool):
            raise TypeError("version must be an integer, got %r" % (version,))
        with self._swap_lock:
            if version < self._version_floor:
                raise VersionUnavailableError(
                    "version %d predates the service's version floor %d"
                    % (version, self._version_floor)
                )
            if version > self._version:
                raise VersionUnavailableError(
                    "version %d is ahead of the service head %d"
                    % (version, self._version)
                )
            versioned = self._versioned
            if versioned is not None and version <= versioned.head:
                overlay = versioned.as_of(version)
                resolved = max(
                    (epoch for epoch in versioned.versions() if epoch <= version),
                    default=versioned.floor,
                )
                return overlay, resolved
            snap = max(epoch for epoch in self._history if epoch <= version)
            return self._history[snap], snap

    def _snapshot_is_alias(self, backend, version: int, p: int, q: int) -> bool:
        start = time.perf_counter()
        key = ("is_alias", (p, q) if p <= q else (q, p), version)
        value = self._cache.get(key, _MISS)
        hit = value is not _MISS
        cost: Optional[QueryCost] = None
        if not hit:
            self._stats.record_cache(0, 1)
            # No epoch guard: a version-qualified answer never goes stale
            # (apply_delta's invalidation skips 3-tuple keys entirely).
            with measure() as cost:
                with trace.span("serve.is_alias", version=version), \
                        trace.span("index.answer",
                                   backend=type(backend).__name__):
                    value = backend.is_alias(p, q)
                _fill_cost(cost, backend, version, 0, 1, 1)
            self._cache.put(key, value)
        else:
            self._stats.record_cache(1, 0)
            note_cache_hit()
        elapsed = time.perf_counter() - start
        self._stats.record("is_alias", elapsed)
        self._slow.record("is_alias", (p, q), elapsed, cache_hit=hit,
                          epoch=version, cost=cost)
        return value

    def _snapshot_packed(self, backend, version: int, kind: str,
                         operand: int) -> bytes:
        start = time.perf_counter()
        key = (kind, operand, version)
        value = self._cache.get(key, _MISS)
        hit = value is not _MISS
        cost: Optional[QueryCost] = None
        if not hit:
            self._stats.record_cache(0, 1)
            with measure() as cost:
                with trace.span("serve.%s" % kind, version=version), \
                        trace.span("index.answer",
                                   backend=type(backend).__name__):
                    value = packed_answer(backend, kind, operand)
                _fill_cost(cost, backend, version, 0, 1, 1)
            self._cache.put(key, value)
        else:
            self._stats.record_cache(1, 0)
            note_cache_hit()
        elapsed = time.perf_counter() - start
        self._stats.record(kind, elapsed)
        self._slow.record(kind, (operand,), elapsed, cache_hit=hit,
                          epoch=version, cost=cost)
        return value

    # ------------------------------------------------------------------
    # Single-query API
    # ------------------------------------------------------------------

    def is_alias(self, p: int, q: int) -> bool:
        start = time.perf_counter()
        key = ("is_alias", (p, q) if p <= q else (q, p))
        value = self._cache.get(key, _MISS)
        hit = value is not _MISS
        cost: Optional[QueryCost] = None
        if not hit:
            self._stats.record_cache(0, 1)
            # Snapshot the epoch before the backend: if apply_delta swaps
            # in between, the stale-epoch put below is dropped.
            epoch = self._cache.epoch
            backend = self._backend
            # A miss pays a cost context (misses already pay backend work;
            # hits stay on the passive note_cache_hit path).
            with measure() as cost:
                with trace.span("serve.is_alias"), \
                        trace.span("index.answer",
                                   backend=type(backend).__name__):
                    value = backend.is_alias(p, q)
                _fill_cost(cost, backend, self._version, 0, 1, 1)
            self._cache.put(key, value, epoch=epoch)
        else:
            self._stats.record_cache(1, 0)
            note_cache_hit()
        elapsed = time.perf_counter() - start
        self._stats.record("is_alias", elapsed)
        self._slow.record("is_alias", (p, q), elapsed, cache_hit=hit,
                          epoch=self._version, cost=cost)
        return value

    def list_aliases(self, p: int) -> List[int]:
        return unpack_ids(self._list_query("list_aliases", p))

    def list_points_to(self, p: int) -> List[int]:
        return unpack_ids(self._list_query("list_points_to", p))

    def list_pointed_by(self, obj: int) -> List[int]:
        return unpack_ids(self._list_query("list_pointed_by", obj))

    def _list_query(self, kind: str, operand: int) -> bytes:
        start = time.perf_counter()
        key = (kind, operand)
        value = self._cache.get(key, _MISS)
        hit = value is not _MISS
        cost: Optional[QueryCost] = None
        if not hit:
            self._stats.record_cache(0, 1)
            epoch = self._cache.epoch
            backend = self._backend
            with measure() as cost:
                with trace.span("serve.%s" % kind), \
                        trace.span("index.answer",
                                   backend=type(backend).__name__):
                    value = packed_answer(backend, kind, operand)
                _fill_cost(cost, backend, self._version, 0, 1, 1)
            self._cache.put(key, value, epoch=epoch)
        else:
            self._stats.record_cache(1, 0)
            note_cache_hit()
        elapsed = time.perf_counter() - start
        self._stats.record(kind, elapsed)
        self._slow.record(kind, (operand,), elapsed, cache_hit=hit,
                          epoch=self._version, cost=cost)
        return value

    # ------------------------------------------------------------------
    # Batch API
    # ------------------------------------------------------------------

    def is_alias_batch(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """Answer many IsAlias queries in one call.

        Repeated pairs (in the batch or the cache) are answered once; the
        remainder goes through the backend's column-sorted batch path.
        """
        start = time.perf_counter()
        results: List[bool] = [False] * len(pairs)
        pending: Dict[Tuple[int, int], List[int]] = {}
        hits = 0
        for position, (p, q) in enumerate(pairs):
            norm = (p, q) if p <= q else (q, p)
            value = self._cache.get(("is_alias", norm), _MISS)
            if value is _MISS:
                pending.setdefault(norm, []).append(position)
            else:
                hits += 1
                results[position] = value
        cost: Optional[QueryCost] = None
        if pending:
            unique = list(pending)
            # Same ordering contract as the single-query miss path (see
            # is_alias): the epoch is snapshotted BEFORE the backend.  If
            # apply_delta swaps mid-batch, every put below carries the
            # pre-swap epoch and is dropped by the cache's guard — a batch
            # can never launder stale answers into the post-swap cache.
            epoch = self._cache.epoch
            backend = self._backend
            # One cost context and one span pair for the whole batch — the
            # instrumentation cost is paid per call, not per query.
            with measure() as cost:
                with trace.span("serve.is_alias", batch=len(pairs)), \
                        trace.span("index.answer",
                                   backend=type(backend).__name__):
                    answers = backend.is_alias_batch(unique)
                _fill_cost(cost, backend, self._version,
                           hits, len(pairs) - hits, len(pairs))
            for norm, answer in zip(unique, answers):
                self._cache.put(("is_alias", norm), answer, epoch=epoch)
                for position in pending[norm]:
                    results[position] = answer
        elif hits:
            ambient = current_cost()
            if ambient is not None:
                ambient.cache_hits += hits
        elapsed = time.perf_counter() - start
        self._stats.record_cache(hits, len(pairs) - hits)
        self._stats.record("is_alias", elapsed, queries=len(pairs), batched=True)
        if pairs:
            # A batch logs one entry (the whole call) when its *per-query*
            # average crosses the threshold; the first operands identify it.
            self._slow.record("is_alias", tuple(pairs[:4]), elapsed,
                              cache_hit=not pending, batched=True,
                              queries=len(pairs), epoch=self._version,
                              cost=cost)
        return results

    def list_aliases_many(self, pointers: Sequence[int]) -> List[List[int]]:
        return list(map(unpack_ids, self.packed_batch("list_aliases", pointers)))

    def points_to_batch(self, pointers: Sequence[int]) -> List[List[int]]:
        return list(map(unpack_ids, self.packed_batch("list_points_to", pointers)))

    def pointed_by_batch(self, objects: Sequence[int]) -> List[List[int]]:
        return list(map(unpack_ids, self.packed_batch("list_pointed_by", objects)))

    def packed_batch(self, kind: str, operands: Sequence[int]) -> List[bytes]:
        """Answer many ``kind`` list queries, each as packed bytes.

        ``kind`` is ``"list_aliases"``, ``"list_points_to"`` or
        ``"list_pointed_by"``; each answer is the little-endian ``uint32``
        bytes the daemon writes to the wire unchanged.  Repeated operands
        (in the batch or the cache) are answered once.
        """
        if kind not in PACKED_QUERIES:
            raise ValueError("%r is not a list query" % (kind,))
        start = time.perf_counter()
        results: List[Optional[bytes]] = [None] * len(operands)
        pending: Dict[int, List[int]] = {}
        hits = 0
        for position, operand in enumerate(operands):
            value = self._cache.get((kind, operand), _MISS)
            if value is _MISS:
                pending.setdefault(operand, []).append(position)
            else:
                hits += 1
                results[position] = value
        cost: Optional[QueryCost] = None
        if pending:
            unique = list(pending)
            # Epoch before backend — the batch-wide stale-put guard; see
            # is_alias_batch.  The backend is captured once so the whole
            # batch resolves against one snapshot.
            epoch = self._cache.epoch
            backend = self._backend
            if kind != "list_pointed_by":
                column_of = backend.column_of
                # Column-sorted resolution: consecutive misses touch
                # neighbouring slabs, keeping the lookups cache-friendly.
                unique.sort(key=lambda operand: _column_key(column_of, operand))
            with measure() as cost:
                with trace.span("serve.%s" % kind, batch=len(operands)), \
                        trace.span("index.answer",
                                   backend=type(backend).__name__):
                    for operand in unique:
                        value = packed_answer(backend, kind, operand)
                        self._cache.put((kind, operand), value, epoch=epoch)
                        for position in pending[operand]:
                            results[position] = value
                _fill_cost(cost, backend, self._version,
                           hits, len(operands) - hits, len(operands))
        elif hits:
            ambient = current_cost()
            if ambient is not None:
                ambient.cache_hits += hits
        elapsed = time.perf_counter() - start
        self._stats.record_cache(hits, len(operands) - hits)
        self._stats.record(kind, elapsed, queries=len(operands), batched=True)
        if operands:
            self._slow.record(kind, tuple(operands[:4]), elapsed,
                              cache_hit=not pending, batched=True,
                              queries=len(operands), epoch=self._version,
                              cost=cost)
        return results


class AliasSnapshot:
    """A pinned, read-only view of an :class:`AliasService` at one version.

    Obtained from :meth:`AliasService.as_of`.  The snapshot holds a direct
    reference to the (immutable) backend that was current at its version,
    so its answers are fixed for the handle's lifetime — concurrent
    ``apply_delta`` calls, cache invalidations, and even
    :meth:`AliasService.prune_versions` past this version cannot change
    them.  Results are cached in the service's LRU under
    version-qualified keys, shared between all snapshots pinned at the
    same resolved version.
    """

    __slots__ = ("_backend", "_service", "_version")

    def __init__(self, service: AliasService, backend, version: int):
        self._service = service
        self._backend = backend
        self._version = version

    @property
    def version(self) -> int:
        """The resolved epoch this snapshot answers for."""
        return self._version

    @property
    def backend(self):
        return self._backend

    @property
    def n_pointers(self) -> int:
        return self._backend.n_pointers

    @property
    def n_objects(self) -> int:
        return self._backend.n_objects

    # -- single queries -------------------------------------------------

    def is_alias(self, p: int, q: int) -> bool:
        return self._service._snapshot_is_alias(self._backend, self._version, p, q)

    def list_aliases(self, p: int) -> List[int]:
        return unpack_ids(self._packed("list_aliases", p))

    def list_points_to(self, p: int) -> List[int]:
        return unpack_ids(self._packed("list_points_to", p))

    def list_pointed_by(self, obj: int) -> List[int]:
        return unpack_ids(self._packed("list_pointed_by", obj))

    def _packed(self, kind: str, operand: int) -> bytes:
        return self._service._snapshot_packed(self._backend, self._version,
                                              kind, operand)

    # -- batch queries ---------------------------------------------------

    def is_alias_batch(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        return [self.is_alias(p, q) for p, q in pairs]

    def list_aliases_many(self, pointers: Sequence[int]) -> List[List[int]]:
        return [self.list_aliases(p) for p in pointers]

    def points_to_batch(self, pointers: Sequence[int]) -> List[List[int]]:
        return [self.list_points_to(p) for p in pointers]

    def pointed_by_batch(self, objects: Sequence[int]) -> List[List[int]]:
        return [self.list_pointed_by(obj) for obj in objects]

    def packed_batch(self, kind: str, operands: Sequence[int]) -> List[bytes]:
        """:meth:`AliasService.packed_batch` at this snapshot's version."""
        if kind not in PACKED_QUERIES:
            raise ValueError("%r is not a list query" % (kind,))
        return [self._packed(kind, operand) for operand in operands]


def _is_delta_capable(path: str) -> bool:
    """True when the file's base format can carry a DELTA chain (v3/v4)."""
    from ..core.encoder import MAGIC_V3, MAGIC_V4

    with open(path, "rb") as stream:
        magic = stream.read(8)
    return magic in (MAGIC_V3, MAGIC_V4)


def _column_key(column_of, operand: int):
    column = column_of(operand)
    return (column is None, column)
