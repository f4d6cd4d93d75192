"""The overlay query structure: immutable base index + in-memory delta.

:class:`OverlayIndex` answers all four Table 1 queries over the *effective*
points-to relation

    eff(p) = (base(p) − deleted(p)) ∪ inserted(p)

without touching the persisted base: the base :class:`FlatIndex` stays
immutable (and shareable between overlay generations), and the delta is
normalised into two small per-pointer sets.  Normalisation anchors every
edit against the base with the O(log n) membership primitive
``points_to_contains``: inserting a fact the base already has is a no-op
(or un-deletes it), deleting a fact the base lacks is a no-op (or retracts
a pending insert) — so ``inserted(p) ∩ base(p) = ∅`` and
``deleted(p) ⊆ base(p)`` always hold, and the overlay's answer composition
never double-counts.

Query costs, with Δ_p the normalised delta of pointer ``p`` and *dirty*
the pointers whose effective row differs from the base:

* ``is_alias(p, q)`` — O(log n + (|Δ_p| + |Δ_q|) log n): base answer, plus
  one membership probe per inserted fact.  Only when the base answer is
  *contested* — the base says alias and a deletion removed a witnessing
  shared object — does it fall back to scanning one base points-to set;
  the compaction threshold keeps that case rare and bounded.
* ``list_aliases(p)`` for a clean ``p`` — the base answer plus one
  overlay ``is_alias`` per dirty pointer: only a dirty ``q`` can gain or
  lose ``p`` as an alias, so the base's clean members pass unchecked.  A
  dirty ``p`` confirms every candidate (base aliases, dirty pointers, and
  base pointers of the objects ``p`` gained).
* ``list_points_to`` / ``list_pointed_by`` — output-linear plus |Δ| on
  the queried row/column.
* With no delta at all, or on a row/column the delta never touched,
  every query (``is_alias_batch`` too) forwards straight to the base.

List answers are unordered, as on every other backend.  Each list query
also has a packed form (``list_aliases_packed`` and so on, as on
:class:`FlatIndex`): a query the delta cannot touch forwards the base's
packed answer, and any other packs the overlay's list.

Instances are immutable after construction: :meth:`extend` composes a
further edit script into a *new* overlay sharing the same base.  Delta
rows are frozensets shared between generations, so ``extend`` copies four
dicts of references and rebuilds only the rows its log touches — a
service that pins every generation for ``as_of`` holds each row once per
change, not once per generation.  That is what lets a live service
hot-swap generations under concurrent readers cheaply.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.flat import FlatIndex, pack_ids, packed_answer
from ..matrix.points_to import PointsToMatrix
from ..obs import get_registry, trace
from .log import DeltaLog

Fact = Tuple[int, int]

#: Default compaction trigger: re-encode once the net delta exceeds this
#: fraction of the base fact count (Section "LSM overlay" of docs/FORMAT.md).
DEFAULT_COMPACTION_RATIO = 0.20

_EMPTY: FrozenSet[int] = frozenset()


class _DeltaState:
    """Normalised delta rows, structure-shared between generations.

    Every row is a frozenset that no generation ever mutates, so a
    :meth:`copy` is four shallow dict copies and an update replaces only
    the rows it changes.  ``base_count`` caches base row lengths; the base
    never changes, so every generation of one overlay shares that dict.
    ``net_ops`` counts the facts in ``inserted`` and ``deleted``.
    """

    __slots__ = ("inserted", "deleted", "ins_by_obj", "del_by_obj", "base_count",
                 "net_ops")

    def __init__(self, base_count: Optional[Dict[int, int]] = None):
        self.inserted: Dict[int, FrozenSet[int]] = {}
        self.deleted: Dict[int, FrozenSet[int]] = {}
        self.ins_by_obj: Dict[int, FrozenSet[int]] = {}
        self.del_by_obj: Dict[int, FrozenSet[int]] = {}
        #: len(base points-to set), computed once per pointer ever asked.
        self.base_count: Dict[int, int] = {} if base_count is None else base_count
        self.net_ops = 0

    def copy(self) -> "_DeltaState":
        twin = _DeltaState(self.base_count)
        twin.inserted = dict(self.inserted)
        twin.deleted = dict(self.deleted)
        twin.ins_by_obj = dict(self.ins_by_obj)
        twin.del_by_obj = dict(self.del_by_obj)
        twin.net_ops = self.net_ops
        return twin

    def update(self, forward: Dict[int, FrozenSet[int]],
               reverse: Dict[int, FrozenSet[int]],
               added: List[Fact], removed: List[Fact]) -> None:
        """Add and remove ``(pointer, obj)`` facts in one forward/reverse pair.

        ``added`` must be absent from ``forward`` and ``removed`` present,
        so the net-op count moves by exactly their difference.
        """
        _replace_rows(forward, added, removed)
        _replace_rows(reverse, [(o, p) for p, o in added], [(o, p) for p, o in removed])
        self.net_ops += len(added) - len(removed)


def _replace_rows(table: Dict[int, FrozenSet[int]], added: List[Fact],
                  removed: List[Fact]) -> None:
    """Rebuild each row of ``table`` the facts touch, once per row."""
    changes: Dict[int, Tuple[List[int], List[int]]] = {}
    for key, member in added:
        changes.setdefault(key, ([], []))[0].append(member)
    for key, member in removed:
        changes.setdefault(key, ([], []))[1].append(member)
    for key, (plus, minus) in changes.items():
        row = table.get(key, _EMPTY).difference(minus).union(plus)
        if row:
            table[key] = row
        else:
            table.pop(key, None)


class OverlayIndex:
    """Table 1 queries over an immutable base index plus a delta."""

    def __init__(self, base: FlatIndex, log: Optional[DeltaLog] = None):
        self._base = base
        self.n_pointers = base.n_pointers
        self.n_objects = base.n_objects
        self.n_groups = base.n_groups
        self._state = _DeltaState()
        self._base_facts: Optional[int] = None
        #: Delta generations composed over the base (replay depth: 1 for a
        #: freshly built overlay, +1 per :meth:`extend`).  Cost accounting
        #: reads it to attribute overlay replay depth to a query.
        self.generation = 1
        if log is not None and len(log):
            self._apply(log)

    # ------------------------------------------------------------------
    # Construction / composition
    # ------------------------------------------------------------------

    def _base_row_len(self, pointer: int) -> int:
        count = self._state.base_count.get(pointer)
        if count is None:
            count = len(self._base.list_points_to(pointer))
            self._state.base_count[pointer] = count
        return count

    def _apply(self, log: DeltaLog) -> None:
        """Fold a log into the state, anchoring each net op against the base."""
        state = self._state
        inserts, deletes = log.net()
        with trace.span("overlay.apply", inserts=len(inserts), deletes=len(deletes)):
            self._apply_net(state, inserts, deletes)
        registry = get_registry()
        registry.counter("repro_delta_overlay_extends_total").inc()
        registry.gauge("repro_delta_net_ops").set(state.net_ops)

    def _apply_net(self, state: "_DeltaState", inserts, deletes) -> None:
        # A net log names each fact once, so every op is decided against
        # the state as it stood before the log; each touched row is then
        # rebuilt once.
        base = self._base
        ins_added: List[Fact] = []
        ins_removed: List[Fact] = []
        del_added: List[Fact] = []
        del_removed: List[Fact] = []
        for pointer, obj in inserts:
            self._check_pointer(pointer)
            self._check_object(obj)
            if obj in state.deleted.get(pointer, _EMPTY):
                del_removed.append((pointer, obj))
            elif (obj not in state.inserted.get(pointer, _EMPTY)
                  and not base.points_to_contains(pointer, obj)):
                ins_added.append((pointer, obj))
        for pointer, obj in deletes:
            self._check_pointer(pointer)
            self._check_object(obj)
            if obj in state.inserted.get(pointer, _EMPTY):
                ins_removed.append((pointer, obj))
            elif (obj not in state.deleted.get(pointer, _EMPTY)
                  and base.points_to_contains(pointer, obj)):
                del_added.append((pointer, obj))
        state.update(state.inserted, state.ins_by_obj, ins_added, ins_removed)
        state.update(state.deleted, state.del_by_obj, del_added, del_removed)

    def extend(self, log: DeltaLog) -> "OverlayIndex":
        """A new overlay over the same base with ``log`` composed on top."""
        twin = OverlayIndex(self._base)
        twin._state = self._state.copy()
        twin._base_facts = self._base_facts
        twin.generation = self.generation + 1
        twin._apply(log)
        return twin

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def base(self) -> FlatIndex:
        return self._base

    def close(self) -> None:
        """Release the base index's backing container, if it has one."""
        close = getattr(self._base, "close", None)
        if close is not None:
            close()

    def dirty_pointers(self) -> FrozenSet[int]:
        """Pointers whose effective points-to set differs from the base."""
        return frozenset(self._state.inserted) | frozenset(self._state.deleted)

    def net_delta(self) -> Tuple[List[Fact], List[Fact]]:
        """The normalised delta as sorted ``(inserts, deletes)`` fact lists."""
        inserts = sorted((p, o) for p, row in self._state.inserted.items() for o in row)
        deletes = sorted((p, o) for p, row in self._state.deleted.items() for o in row)
        return inserts, deletes

    def delta_size(self) -> int:
        """Net delta ops currently overlaid on the base."""
        return self._state.net_ops

    def base_fact_count(self) -> int:
        """Points-to facts in the base (computed once, O(facts))."""
        if self._base_facts is None:
            self._base_facts = sum(
                len(self._base.list_points_to(p)) for p in range(self.n_pointers)
            )
        return self._base_facts

    def delta_ratio(self) -> float:
        """``|Δ| / base facts`` — the compaction trigger metric."""
        return self.delta_size() / max(1, self.base_fact_count())

    def needs_compaction(self, ratio: float = DEFAULT_COMPACTION_RATIO) -> bool:
        """True once the overlay outgrew the configured delta ratio."""
        if ratio < 0:
            raise ValueError("compaction ratio must be non-negative")
        return self.delta_size() > 0 and self.delta_ratio() > ratio

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _check_pointer(self, pointer: int) -> None:
        if not 0 <= pointer < self.n_pointers:
            raise IndexError(
                "pointer id %d out of range [0, %d)" % (pointer, self.n_pointers)
            )

    def _check_object(self, obj: int) -> None:
        if not 0 <= obj < self.n_objects:
            raise IndexError("object id %d out of range [0, %d)" % (obj, self.n_objects))

    def _is_dirty(self, pointer: int) -> bool:
        return pointer in self._state.inserted or pointer in self._state.deleted

    def _eff_count(self, pointer: int) -> int:
        state = self._state
        return (self._base_row_len(pointer)
                - len(state.deleted.get(pointer, _EMPTY))
                + len(state.inserted.get(pointer, _EMPTY)))

    def points_to_contains(self, pointer: int, obj: int) -> bool:
        """Membership in the *effective* points-to set."""
        self._check_pointer(pointer)
        self._check_object(obj)
        state = self._state
        if obj in state.inserted.get(pointer, _EMPTY):
            return True
        if obj in state.deleted.get(pointer, _EMPTY):
            return False
        return self._base.points_to_contains(pointer, obj)

    # ------------------------------------------------------------------
    # Table 1 queries
    # ------------------------------------------------------------------

    def is_alias(self, p: int, q: int) -> bool:
        """Effective IsAlias: do ``eff(p)`` and ``eff(q)`` intersect?"""
        if not self._is_dirty(p) and not self._is_dirty(q):
            # Out-of-range ids are never dirty: the base raises for them.
            return self._base.is_alias(p, q)
        self._check_pointer(p)
        self._check_pointer(q)
        if p == q:
            return self._eff_count(p) > 0
        state = self._state
        # Inserted witnesses: any fresh fact of one side in the other's
        # effective set decides immediately.
        for obj in state.inserted.get(p, _EMPTY):
            if self.points_to_contains(q, obj):
                return True
        for obj in state.inserted.get(q, _EMPTY):
            if self.points_to_contains(p, obj):
                return True
        # Remaining possibility: a surviving base-level witness.
        if not self._base.is_alias(p, q):
            return False
        deleted_p = state.deleted.get(p, _EMPTY)
        deleted_q = state.deleted.get(q, _EMPTY)
        if not deleted_p and not deleted_q:
            return True
        # Was any deleted fact actually part of the base intersection?  If
        # not, the base witness survives untouched.
        contested = any(self._base.points_to_contains(q, obj) for obj in deleted_p)
        if not contested:
            contested = any(obj not in deleted_p and self._base.points_to_contains(p, obj)
                            for obj in deleted_q)
        if not contested:
            return True
        # Deletion-contested pair: scan the smaller deleted side's base row.
        # Rare by construction (compaction bounds |Δ|), and bounded by one
        # points-to set.  Counted because a growing rate of these scans is
        # the first sign an overlay has outlived its compaction budget.
        get_registry().counter("repro_delta_contested_scans_total").inc()
        if deleted_p and (not deleted_q or self._base_row_len(p) <= self._base_row_len(q)):
            side, other, side_deleted = p, q, deleted_p
        else:
            side, other, side_deleted = q, p, deleted_q
        other_deleted = state.deleted.get(other, _EMPTY)
        for obj in self._base.list_points_to(side):
            if obj in side_deleted or obj in other_deleted:
                continue
            if self._base.points_to_contains(other, obj):
                return True
        return False

    def is_alias_batch(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """Batched IsAlias: clean pairs ride the base's column-sorted path."""
        state = self._state
        if not state.inserted and not state.deleted:
            return self._base.is_alias_batch(pairs)
        results = [False] * len(pairs)
        clean: List[Tuple[int, int, int]] = []
        for position, (p, q) in enumerate(pairs):
            self._check_pointer(p)
            self._check_pointer(q)
            if self._is_dirty(p) or self._is_dirty(q):
                results[position] = self.is_alias(p, q)
            else:
                clean.append((position, p, q))
        if clean:
            answers = self._base.is_alias_batch([(p, q) for _, p, q in clean])
            for (position, _, _), answer in zip(clean, answers):
                results[position] = answer
        return results

    def column_of(self, pointer: int) -> Optional[int]:
        """The base ptList column — still the right batching sort key."""
        return self._base.column_of(pointer)

    # List answers are unordered, as on every other backend.  A row or
    # column the delta never touched (out-of-range ids included) forwards
    # to the base, which raises the range errors itself.

    def list_points_to(self, p: int) -> List[int]:
        if not self._is_dirty(p):
            return self._base.list_points_to(p)
        state = self._state
        deleted = state.deleted.get(p, _EMPTY)
        result = [obj for obj in self._base.list_points_to(p) if obj not in deleted]
        result.extend(state.inserted.get(p, _EMPTY))
        return result

    def list_pointed_by(self, obj: int) -> List[int]:
        state = self._state
        if obj not in state.ins_by_obj and obj not in state.del_by_obj:
            return self._base.list_pointed_by(obj)
        dropped = state.del_by_obj.get(obj, _EMPTY)
        result = [p for p in self._base.list_pointed_by(obj) if p not in dropped]
        result.extend(state.ins_by_obj.get(obj, _EMPTY))
        return result

    def list_aliases(self, p: int) -> List[int]:
        """Effective ListAliases.

        For a clean ``p`` only a dirty ``q`` can gain or lose ``p`` as an
        alias: the base answer's clean members pass unchecked and each
        dirty pointer is confirmed with one overlay ``is_alias``.  A dirty
        ``p`` confirms every candidate: base aliases, dirty pointers, and
        base pointers of an object ``p`` freshly gained.
        """
        state = self._state
        inserted, deleted = state.inserted, state.deleted
        if not inserted and not deleted:
            return self._base.list_aliases(p)
        if p not in inserted and p not in deleted:
            result = [q for q in self._base.list_aliases(p)
                      if q not in inserted and q not in deleted]
            result.extend(q for q in inserted if self.is_alias(p, q))
            result.extend(q for q in deleted
                          if q not in inserted and self.is_alias(p, q))
            return result
        candidates: Set[int] = set(self._base.list_aliases(p))
        candidates.update(inserted)
        candidates.update(deleted)
        # Pointers that gained one of p's fresh objects are dirty already.
        for obj in inserted.get(p, _EMPTY):
            candidates.update(self._base.list_pointed_by(obj))
        candidates.discard(p)
        return [q for q in candidates if self.is_alias(p, q)]

    def list_points_to_packed(self, p: int) -> bytes:
        if not self._is_dirty(p):
            return packed_answer(self._base, "list_points_to", p)
        return pack_ids(self.list_points_to(p))

    def list_pointed_by_packed(self, obj: int) -> bytes:
        state = self._state
        if obj not in state.ins_by_obj and obj not in state.del_by_obj:
            return packed_answer(self._base, "list_pointed_by", obj)
        return pack_ids(self.list_pointed_by(obj))

    def list_aliases_packed(self, p: int) -> bytes:
        state = self._state
        if not state.inserted and not state.deleted:
            return packed_answer(self._base, "list_aliases", p)
        return pack_ids(self.list_aliases(p))

    # ------------------------------------------------------------------
    # Bulk reconstruction
    # ------------------------------------------------------------------

    def materialize(self) -> PointsToMatrix:
        """The effective points-to matrix (compaction input and test oracle)."""
        matrix = self._base.materialize()
        for pointer, row in self._state.deleted.items():
            for obj in row:
                matrix.rows[pointer].discard(obj)
        for pointer, row in self._state.inserted.items():
            for obj in row:
                matrix.add(pointer, obj)
        return matrix

    def memory_footprint(self) -> int:
        """Base structure bytes plus the overlay's own dictionaries."""
        import sys

        total = self._base.memory_footprint()
        state = self._state
        for table in (state.inserted, state.deleted, state.ins_by_obj, state.del_by_obj):
            total += sys.getsizeof(table)
            for members in table.values():
                total += sys.getsizeof(members) + 28 * len(members)
        total += sys.getsizeof(state.base_count) + 2 * 28 * len(state.base_count)
        return total
