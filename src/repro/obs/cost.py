"""Per-query cost accounting: *why* was this query slow?

Aggregate metrics (PR 4) say how many bytes the store parsed and how many
cache misses the service took — across the whole process.  This module
attributes those costs to **one query**: a thread-local stack of
:class:`QueryCost` contexts that the store, overlay, and serve layers feed
while a ``measure()`` block is active.  The slow-query log and the daemon
attach the resulting breakdown to individual entries and responses, so a
60 ms outlier is explainable as "cold file: 4 sections / 1.2 MB parsed"
rather than a mystery.

Hot-path contract: when no context is active (the overwhelmingly common
case), every ``add_*``/``note_*`` helper returns after one thread-local
attribute read and a truthiness check — cheap enough to leave the hooks on
permanently, like the tracer's disabled spans.

Nesting: contexts stack.  The daemon opens one ``measure()`` per request
while the service opens another per batch call; on exit a child folds its
counters into its parent (additively for counters, ``max`` for depth), so
the outermost context always sees the whole call's cost.

Thread-locality: a context only observes work on the thread that entered
it.  The daemon runs each request's service work on a single executor
thread, so one ``measure()`` around the dispatch captures everything; code
that fans out across threads must measure per-thread and merge with
:meth:`QueryCost.merge`.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional

__all__ = [
    "QueryCost",
    "measure",
    "current_cost",
    "add_parsed_bytes",
    "add_section",
    "note_cache_hit",
    "note_cache_miss",
    "note_replay_depth",
    "note_epoch",
]


class QueryCost:
    """The itemised cost of answering one query (or one batch call)."""

    __slots__ = (
        "bytes_parsed",
        "sections_materialized",
        "cache_hits",
        "cache_misses",
        "replay_depth",
        "epoch",
        "queries",
        "seconds",
        "coalesced",
    )

    def __init__(self) -> None:
        self.bytes_parsed = 0
        self.sections_materialized = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Overlay generations composed under the answer (0 = pure base).
        self.replay_depth = 0
        #: MVCC epoch the query was answered at (``None`` outside MVCC).
        self.epoch: Optional[int] = None
        #: Queries covered by the measured call (> 1 for a batch).
        self.queries = 0
        self.seconds = 0.0
        #: True when the daemon answered by joining an in-flight twin.
        self.coalesced = False

    # ------------------------------------------------------------------

    def merge(self, child: "QueryCost") -> None:
        """Fold ``child``'s costs into this context (see module docs)."""
        self.bytes_parsed += child.bytes_parsed
        self.sections_materialized += child.sections_materialized
        self.cache_hits += child.cache_hits
        self.cache_misses += child.cache_misses
        self.queries += child.queries
        self.replay_depth = max(self.replay_depth, child.replay_depth)
        if self.epoch is None:
            self.epoch = child.epoch

    def as_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (``None`` epoch omitted; key order fixed)."""
        out: Dict[str, object] = {
            "bytes_parsed": self.bytes_parsed,
            "sections_materialized": self.sections_materialized,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "replay_depth": self.replay_depth,
            "queries": self.queries,
            "seconds": round(self.seconds, 6),
        }
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.coalesced:
            out["coalesced"] = True
        return out

    def render(self) -> str:
        """Deterministic multi-line breakdown for ``--explain`` output."""
        lines = [
            "bytes_parsed            %d" % self.bytes_parsed,
            "sections_materialized   %d" % self.sections_materialized,
            "cache                   %d hit / %d miss"
            % (self.cache_hits, self.cache_misses),
            "replay_depth            %d" % self.replay_depth,
            "queries                 %d" % self.queries,
            "seconds                 %.6f" % self.seconds,
        ]
        if self.epoch is not None:
            lines.insert(0, "epoch                   %d" % self.epoch)
        if self.coalesced:
            lines.append("coalesced               true")
        return "\n".join(lines)

    def summary(self) -> str:
        """One-line form for slow-query entries and flight events."""
        parts = [
            "%dB parsed" % self.bytes_parsed,
            "%d sections" % self.sections_materialized,
            "cache %d/%d" % (self.cache_hits, self.cache_hits + self.cache_misses),
            "depth %d" % self.replay_depth,
        ]
        if self.epoch is not None:
            parts.append("epoch %d" % self.epoch)
        return ", ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "QueryCost(%r)" % (self.as_dict(),)


_LOCAL = threading.local()


def _stack() -> List[QueryCost]:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def current_cost() -> Optional[QueryCost]:
    """The innermost active context on this thread, or ``None``."""
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        return stack[-1]
    return None


class _Measure:
    """Context manager pushing one :class:`QueryCost` on this thread."""

    __slots__ = ("cost",)

    def __enter__(self) -> QueryCost:
        cost = QueryCost()
        cost.seconds = time.perf_counter()
        _stack().append(cost)
        self.cost = cost
        return cost

    def __exit__(self, exc_type, exc, tb) -> bool:
        cost = self.cost
        cost.seconds = time.perf_counter() - cost.seconds
        stack = _stack()
        if stack and stack[-1] is cost:
            stack.pop()
        elif cost in stack:  # never corrupt the stack on behalf of a bug
            stack.remove(cost)
        if stack:
            stack[-1].merge(cost)
        return False


def measure() -> _Measure:
    """Open a cost context::

        with measure() as cost:
            service.is_alias(p, q)
        print(cost.render())
    """
    return _Measure()


# ----------------------------------------------------------------------
# Recording hooks — called from the store/delta/serve hot paths.  Each is
# a no-op costing one thread-local read when no context is active.
# ----------------------------------------------------------------------


def add_parsed_bytes(amount: int) -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1].bytes_parsed += amount


def add_section() -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1].sections_materialized += 1


def note_cache_hit() -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1].cache_hits += 1


def note_cache_miss() -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        stack[-1].cache_misses += 1


def note_replay_depth(depth: int) -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack:
        top = stack[-1]
        if depth > top.replay_depth:
            top.replay_depth = depth


def note_epoch(epoch: Optional[int]) -> None:
    stack = getattr(_LOCAL, "stack", None)
    if stack and epoch is not None:
        stack[-1].epoch = epoch
