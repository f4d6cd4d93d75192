"""Segment tree for rectangle point-enclosure queries (Section 3.4.1).

The low-memory alternative of Table 7's query-memory trade
(:class:`SegmentIndex`): an ``IsAlias`` question is a point-enclosure
query over the stored rectangles.  The paper's structure: a segment tree over the x-axis
``[0, Ne)`` where every node owns the rectangles whose x-interval crosses
its midline, kept sorted by their ``Y1`` coordinate.

Because stored rectangles are pairwise disjoint and all rectangles at a node
share an x-point (the midline), their y-intervals are pairwise disjoint too
— so a predecessor binary search on ``Y1`` finds the only possible covering
rectangle at each node.  A point query therefore visits ``O(log Ne)`` nodes
with an ``O(log R)`` search at each: ``O(log² n)`` total.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True, order=True)
class Rect:
    """An axis-aligned rectangle ``<X1, X2, Y1, Y2>`` over timestamps.

    Field order makes the natural sort the ``Y1``-major one needed by the
    per-node balanced lists.
    """

    y1: int
    y2: int
    x1: int
    x2: int

    def covers(self, x: int, y: int) -> bool:
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def encloses(self, other: "Rect") -> bool:
        return (
            self.x1 <= other.x1
            and other.x2 <= self.x2
            and self.y1 <= other.y1
            and other.y2 <= self.y2
        )

    def as_tuple(self) -> tuple:
        """The paper's ``<X1, X2, Y1, Y2>`` presentation order."""
        return (self.x1, self.x2, self.y1, self.y2)


@dataclass
class _Node:
    lo: int
    hi: int
    #: Parallel sorted arrays: ``keys[i] == rects[i].y1``.
    keys: List[int] = field(default_factory=list)
    rects: List[Rect] = field(default_factory=list)
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def mid(self) -> int:
        return (self.lo + self.hi) // 2


class SegmentTree:
    """Point-enclosure structure over x-range ``[0, size)``.

    Only correct for pairwise-disjoint rectangle sets; the encoder's
    Theorem 2 pruning guarantees that for every stored file.
    """

    def __init__(self, size: int):
        if size <= 0:
            size = 1
        self._root = _Node(0, size)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def insert(self, rect: Rect) -> None:
        """Store a rectangle at the highest node whose midline it crosses."""
        node = self._root
        while True:
            mid = node.mid
            if rect.x2 < mid:
                if node.left is None:
                    node.left = _Node(node.lo, mid)
                node = node.left
            elif rect.x1 > mid:
                if node.right is None:
                    node.right = _Node(mid, node.hi)
                node = node.right
            else:
                position = bisect_right(node.keys, rect.y1)
                node.keys.insert(position, rect.y1)
                node.rects.insert(position, rect)
                self._count += 1
                return

    def find_covering(self, x: int, y: int) -> Optional[Rect]:
        """The unique stored rectangle covering ``(x, y)``, or ``None``."""
        node = self._root
        while node is not None:
            if node.keys:
                # Predecessor by Y1: the only candidate at this node.
                index = bisect_right(node.keys, y) - 1
                if index >= 0 and node.rects[index].covers(x, y):
                    return node.rects[index]
            mid = node.mid
            if x < mid:
                node = node.left
            elif x > mid:
                node = node.right
            else:
                return None
        return None

    def covers(self, x: int, y: int) -> bool:
        return self.find_covering(x, y) is not None

    def memory_footprint(self) -> int:
        """Measured tree size in bytes: nodes plus their key/rect arrays.

        The stored :class:`Rect` objects themselves are not counted — the
        caller owns (and typically shares) them and counts them once.
        """
        total = 0
        stack = [self._root]
        while stack:
            node = stack.pop()
            total += sys.getsizeof(node)
            total += sys.getsizeof(node.keys) + 28 * len(node.keys)
            total += sys.getsizeof(node.rects)
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return total


class SegmentIndex:
    """``IsAlias`` over one segment tree: the memory side of Table 7.

    Section 4 keeps per-column rectangle lists (the ptList, served by
    :class:`~repro.core.flat.FlatIndex`), where a rectangle is stored once
    per slab its x-range stabs.  A single segment tree stores every
    rectangle exactly once and answers ``is_alias`` in O(log² n) instead.
    This class exists to measure that trade (``bench_ablation_query_mode``);
    it is not a serving engine.  ``payload`` must be validated (decoded
    payloads are).
    """

    def __init__(self, payload):
        self.n_pointers = payload.n_pointers
        origin_ts = sorted(payload.object_ts)
        self._pointer_ts = list(payload.pointer_ts)
        #: Origin rank of each tracked pointer's PES (``None`` if untracked).
        self._pes_rank = [None if ts is None else bisect_right(origin_ts, ts) - 1
                          for ts in self._pointer_ts]
        self._rects = [rect for rect, _case1 in payload.rects]
        self._tree = SegmentTree(payload.n_groups)
        for rect in self._rects:
            self._tree.insert(rect)

    def is_alias(self, p: int, q: int) -> bool:
        """Decide whether pointers ``p`` and ``q`` may alias — O(log² n)."""
        for pointer in (p, q):
            if not 0 <= pointer < self.n_pointers:
                raise IndexError("pointer id %d out of range [0, %d)"
                                 % (pointer, self.n_pointers))
        ts_p, ts_q = self._pointer_ts[p], self._pointer_ts[q]
        if ts_p is None or ts_q is None:
            return False
        if p == q or self._pes_rank[p] == self._pes_rank[q]:
            return True
        return self._tree.covers(min(ts_p, ts_q), max(ts_p, ts_q))

    def stored_entries(self) -> int:
        """Rectangle entries the tree stores: exactly one per rectangle."""
        return len(self._tree)

    def memory_footprint(self) -> int:
        """Python heap bytes: tree nodes, rectangles and per-pointer arrays."""
        total = self._tree.memory_footprint()
        total += sys.getsizeof(self._rects)
        total += sum(sys.getsizeof(rect) for rect in self._rects)
        for values in (self._pointer_ts, self._pes_rank):
            total += sys.getsizeof(values) + 28 * len(values)
        return total
