"""Pestrie construction by row partitioning (Section 3.1).

The builder scans the pointed-by matrix ``PMT`` one object row at a time, in
the chosen object order.  Processing row ``o``:

1. a fresh *origin* group is created holding ``o`` and every pointer of the
   row not yet present in the trie;
2. every existing group ``g`` holding some row pointers is split: the row
   pointers move to a new child of ``g`` (tree edge labelled with ``g``'s
   current tree-edge count) and the origin gains a cross edge to the child
   (ξ = 0) — *unless* the move would empty ``g``, in which case the pointers
   stay put and the origin's cross edge targets ``g`` itself with
   ξ = ``g``'s current tree-edge count (the paper's no-empty-groups rule,
   which is what makes ξ-reachability necessary).

Only non-origin groups can be emptied (objects never move), so cross edges
always target non-origin groups.  The whole pass is ``O(nm)``.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

from ..matrix.points_to import PointsToMatrix
from ..obs import get_registry, trace
from .structure import Pestrie

#: Recognised object-order heuristics for :func:`build_pestrie`.
ORDER_CHOICES = ("hub", "simple", "random", "identity")


def _run_front(matrix: PointsToMatrix, last: str, order: str,
               seed: Optional[int], explicit_order: Optional[Sequence[int]]) -> dict:
    """Run the encode stages up to and including ``last``; return the artefacts."""
    from .stages import ENCODE_STAGES, BuildContext, run_stages  # stages builds on this module

    names = [stage.name for stage in ENCODE_STAGES]
    ctx = BuildContext(matrix, order=order, seed=seed, explicit_order=explicit_order)
    run_stages(ctx, ENCODE_STAGES[: names.index(last) + 1])
    return ctx.artifacts


def resolve_order(
    matrix: PointsToMatrix,
    order: str = "hub",
    seed: Optional[int] = None,
    explicit: Optional[Sequence[int]] = None,
) -> list:
    """Turn an order name (or an explicit permutation) into an object order.

    Runs the pipeline's ``normalize`` and ``order`` stages.
    """
    return _run_front(matrix, "order", order, seed, explicit)["object_order"]


def build_pestrie(
    matrix: PointsToMatrix,
    order: str = "hub",
    seed: Optional[int] = None,
    explicit_order: Optional[Sequence[int]] = None,
) -> Pestrie:
    """Construct the Pestrie for ``matrix`` using the given object order.

    ``order`` selects the heuristic (``"hub"`` is the paper's default;
    ``"random"`` is the Figure 7 baseline; ``"identity"`` reproduces the
    worked example).  ``explicit_order`` overrides the heuristic with a
    caller-supplied permutation.  Runs the pipeline's ``normalize``,
    ``order`` and ``trie`` stages; the trie is not interval-labelled.
    """
    return _run_front(matrix, "trie", order, seed, explicit_order)["pestrie"]


def build_pestrie_from_rows(
    n_pointers: int,
    n_objects: int,
    object_order: Sequence[int],
    rows: Sequence[Sequence[int]],
    order_name: str = "staged",
) -> Pestrie:
    """Construct from a resolved object order and the pointed-by adjacency
    (``rows[obj]`` = ascending pointer ids); the pipeline's ``trie`` stage.
    """
    start = time.perf_counter()
    with trace.span("build.pestrie", pointers=n_pointers,
                    objects=n_objects, order=order_name):
        pestrie = _build_from_rows(n_pointers, n_objects, list(object_order), rows)
    registry = get_registry()
    registry.counter("repro_build_runs_total").inc()
    registry.counter("repro_build_groups_total").inc(len(pestrie.groups))
    registry.histogram("repro_build_seconds").observe(time.perf_counter() - start)
    return pestrie


def _build_from_rows(
    n_pointers: int,
    n_objects: int,
    object_order: list,
    rows: Sequence[Sequence[int]],
) -> Pestrie:
    pestrie = Pestrie(n_pointers, n_objects, object_order)
    groups = pestrie.groups
    group_of_pointer = pestrie.group_of_pointer

    for obj in object_order:
        origin = pestrie.new_group(object_id=obj)
        origin.pes = obj
        pestrie.group_of_object[obj] = origin.id

        # Bucket the row's pointers by their current group; pointers seen
        # for the first time land in the origin group directly.
        buckets: dict = {}
        for pointer in rows[obj]:
            group_id = group_of_pointer[pointer]
            if group_id is None:
                origin.pointers.append(pointer)
                group_of_pointer[pointer] = origin.id
            else:
                buckets.setdefault(group_id, []).append(pointer)

        # Split or annex each touched group.  Iterating in ascending group
        # id keeps construction deterministic.
        for group_id in sorted(buckets):
            group = groups[group_id]
            moved = buckets[group_id]
            if not group.is_origin and len(moved) == len(group.pointers):
                # Moving everything would leave an empty group; keep the
                # members in place and remember the hidden split via the
                # ξ-value on the cross edge.
                pestrie.add_cross_edge(origin, group)
                continue
            child = pestrie.new_group()
            moved_set = set(moved)
            child.pointers = [p for p in group.pointers if p in moved_set]
            group.pointers = [p for p in group.pointers if p not in moved_set]
            for pointer in child.pointers:
                group_of_pointer[pointer] = child.id
            pestrie.add_tree_edge(group, child)
            pestrie.add_cross_edge(origin, child)

    return pestrie
