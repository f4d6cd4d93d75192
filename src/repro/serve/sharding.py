"""Multi-file sharding: one logical index over pointer-id ranges.

A production deployment persists one Pestrie file per analysis unit (a
library, a partition of a whole-program result) and serves them together.
:class:`ShardedIndex` stacks several decoded :class:`FlatIndex` objects
into a single Table 1 backend: shard ``i`` serves the global pointer ids
``[offset_i, offset_i + n_pointers_i)`` while all shards share one object
id universe.

Semantics: each shard must be the Pestrie encoding of a row-slice of one
global points-to matrix (the concatenation of the slices, in shard order,
is the global matrix).  Within a shard every query is the exact Pestrie
answer; across shards aliasing falls back to the definition — the
points-to sets of the two pointers intersect — which is exactly the
oracle the per-shard encodings preserve.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.flat import FlatIndex, pack_ids
from ..obs import get_registry

_REGISTRY = get_registry()
_SAME_SHARD = _REGISTRY.counter("repro_shard_queries_total", scope="same")
_CROSS_SHARD = _REGISTRY.counter("repro_shard_queries_total", scope="cross")
_SWAPS = _REGISTRY.counter("repro_shard_swaps_total")


class ShardedIndex:
    """Several pointer-id-range shards behind the Table 1 protocol.

    Shards are duck-typed: anything speaking the protocol fits, which is
    how :meth:`with_delta` mixes pristine :class:`FlatIndex` shards
    with :class:`~repro.delta.OverlayIndex` ones after a live update.
    """

    def __init__(self, indexes: Sequence[FlatIndex]):
        if not indexes:
            raise ValueError("a sharded index needs at least one shard")
        self._indexes: List[FlatIndex] = list(indexes)
        self._offsets: List[int] = [0]
        for index in self._indexes:
            self._offsets.append(self._offsets[-1] + index.n_pointers)
        self.n_pointers = self._offsets[-1]
        self.n_objects = max(index.n_objects for index in self._indexes)

    @classmethod
    def from_files(cls, paths: Sequence[str],
                   lazy: bool = False) -> "ShardedIndex":
        """Serve several persistent files as one logical index.

        With ``lazy=True`` each shard is an mmap-backed lazy open: only the
        headers are read at startup, and a shard decodes its sections on
        the first query routed to it — cold start stays O(shard count),
        not O(total bytes).  Call :meth:`close` to release the mappings.
        """
        from ..core.pipeline import load_index

        indexes: List[FlatIndex] = []
        try:
            for path in paths:
                indexes.append(load_index(path, lazy=lazy))
            # Constructed inside the guard: a constructor failure must
            # release the k opened mappings just like an open failure.
            return cls(indexes)
        except BaseException:
            for index in indexes:
                close = getattr(index, "close", None)
                if close is not None:
                    try:
                        close()
                    except Exception:
                        pass  # best effort; never mask the original error
            raise

    def close(self) -> None:
        """Release every shard's backing container (no-op for eager shards).

        Shards whose structures already materialised keep answering;
        anything unmaterialised fails cleanly with ``ContainerClosedError``
        on its next query.
        """
        for index in self._indexes:
            close = getattr(index, "close", None)
            if close is not None:
                close()

    @property
    def shard_count(self) -> int:
        return len(self._indexes)

    @property
    def shards(self) -> Tuple[FlatIndex, ...]:
        return tuple(self._indexes)

    def shard_of(self, pointer: int) -> Tuple[int, int]:
        """Map a global pointer id to ``(shard index, local pointer id)``."""
        if not 0 <= pointer < self.n_pointers:
            raise IndexError(
                "pointer id %d out of range [0, %d)" % (pointer, self.n_pointers)
            )
        shard = bisect_right(self._offsets, pointer) - 1
        return shard, pointer - self._offsets[shard]

    def column_of(self, pointer: int) -> Optional[Tuple[int, int]]:
        """A sortable batching key: ``(shard, ptList column)``; None if untracked."""
        shard, local = self.shard_of(pointer)
        column = self._indexes[shard].column_of(local)
        return None if column is None else (shard, column)

    # ------------------------------------------------------------------
    # Live updates
    # ------------------------------------------------------------------

    def swap_shard(self, position: int, index: FlatIndex) -> None:
        """Replace one shard in place with an equivalent-dimension index.

        The replacement must serve the same pointer-id range (typically a
        freshly compacted or re-loaded encoding of the same slice).  The
        shard list is rebuilt and swapped with a single reference
        assignment, so concurrent readers see either the old or the new
        list — never a half-updated one.
        """
        if not 0 <= position < len(self._indexes):
            raise IndexError("shard position %d out of range [0, %d)"
                             % (position, len(self._indexes)))
        current = self._indexes[position]
        if index.n_pointers != current.n_pointers:
            raise ValueError(
                "replacement shard serves %d pointers, shard %d serves %d"
                % (index.n_pointers, position, current.n_pointers)
            )
        replacement = list(self._indexes)
        replacement[position] = index
        self._indexes = replacement
        _SWAPS.inc()

    def with_delta(self, log) -> "ShardedIndex":
        """A new sharded index with a global edit script overlaid.

        Facts are routed to their shard by pointer id; each touched shard
        becomes (or extends) an :class:`~repro.delta.OverlayIndex` over a
        shard-local log, and untouched shards are shared as-is with the
        new instance.
        """
        from ..delta import INSERT, DeltaLog, OverlayIndex

        per_shard: Dict[int, DeltaLog] = {}
        for op, pointer, obj in log:
            shard, local = self.shard_of(pointer)
            shard_log = per_shard.setdefault(shard, DeltaLog())
            if op == INSERT:
                shard_log.insert(local, obj)
            else:
                shard_log.delete(local, obj)
        replacement = list(self._indexes)
        for shard, shard_log in per_shard.items():
            index = replacement[shard]
            if isinstance(index, OverlayIndex):
                replacement[shard] = index.extend(shard_log)
            else:
                replacement[shard] = OverlayIndex(index, shard_log)
        return ShardedIndex(replacement)

    # ------------------------------------------------------------------
    # Table 1 queries
    # ------------------------------------------------------------------

    def is_alias(self, p: int, q: int) -> bool:
        shard_p, local_p = self.shard_of(p)
        shard_q, local_q = self.shard_of(q)
        if shard_p == shard_q:
            _SAME_SHARD.inc()
            return self._indexes[shard_p].is_alias(local_p, local_q)
        _CROSS_SHARD.inc()
        points_p = self._indexes[shard_p].list_points_to(local_p)
        if not points_p:
            return False
        points_q = self._indexes[shard_q].list_points_to(local_q)
        return not set(points_p).isdisjoint(points_q)

    def is_alias_batch(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """Batched IsAlias: same-shard runs go through the shard's own
        column-sorted batch path; cross-shard pairs intersect points-to sets."""
        results = [False] * len(pairs)
        same_shard: Dict[int, List[Tuple[int, int, int]]] = {}
        cross: List[Tuple[int, int, int, int, int]] = []
        for position, (p, q) in enumerate(pairs):
            shard_p, local_p = self.shard_of(p)
            shard_q, local_q = self.shard_of(q)
            if shard_p == shard_q:
                same_shard.setdefault(shard_p, []).append((position, local_p, local_q))
            else:
                cross.append((position, shard_p, local_p, shard_q, local_q))
        if same_shard:
            _SAME_SHARD.inc(sum(len(jobs) for jobs in same_shard.values()))
        if cross:
            _CROSS_SHARD.inc(len(cross))
        for shard, jobs in same_shard.items():
            answers = self._indexes[shard].is_alias_batch(
                [(local_p, local_q) for _, local_p, local_q in jobs]
            )
            for (position, _, _), answer in zip(jobs, answers):
                results[position] = answer
        for position, shard_p, local_p, shard_q, local_q in cross:
            points_p = self._indexes[shard_p].list_points_to(local_p)
            if not points_p:
                continue
            points_q = self._indexes[shard_q].list_points_to(local_q)
            results[position] = not set(points_p).isdisjoint(points_q)
        return results

    def list_points_to(self, p: int) -> List[int]:
        shard, local = self.shard_of(p)
        return self._indexes[shard].list_points_to(local)

    def list_pointed_by(self, obj: int) -> List[int]:
        if not 0 <= obj < self.n_objects:
            raise IndexError("object id %d out of range [0, %d)" % (obj, self.n_objects))
        result: List[int] = []
        for shard, index in enumerate(self._indexes):
            if obj < index.n_objects:
                base = self._offsets[shard]
                result.extend(base + local for local in index.list_pointed_by(obj))
        return result

    def list_aliases(self, p: int) -> List[int]:
        shard, local = self.shard_of(p)
        base = self._offsets[shard]
        result = [base + q for q in self._indexes[shard].list_aliases(local)]
        if len(self._indexes) > 1:
            # Cross-shard aliases: every pointer of another shard reaching
            # one of p's objects.  Collected per shard into a set because a
            # pointer sharing several objects with p must appear once.
            points = self._indexes[shard].list_points_to(local)
            for other, index in enumerate(self._indexes):
                if other == shard:
                    continue
                members = set()
                for obj in points:
                    if obj < index.n_objects:
                        members.update(index.list_pointed_by(obj))
                other_base = self._offsets[other]
                result.extend(other_base + q for q in sorted(members))
        return result

    # Packed answers (see FlatIndex.list_aliases_packed): a cross-shard
    # answer is assembled as a list, so it is packed whole.

    def list_aliases_packed(self, p: int) -> bytes:
        return pack_ids(self.list_aliases(p))

    def list_points_to_packed(self, p: int) -> bytes:
        return pack_ids(self.list_points_to(p))

    def list_pointed_by_packed(self, obj: int) -> bytes:
        return pack_ids(self.list_pointed_by(obj))
