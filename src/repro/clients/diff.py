"""Snapshot differencing: compare two persisted pointer-information files.

Regression-analysis pipelines (the paper's Section 1 scenario) want to know
what *changed* between two releases' pointer information: which points-to
facts appeared or disappeared, and which alias pairs are new.  Both indexes
answer from their persisted files — no analysis is re-run — provided the
two runs were archived with correlated variable ids (Section 6.2).

With the MVCC delta chain, both "snapshots" can also be two *versions* of
the same file: :func:`diff_versions` opens it once and compares any two
epochs, touching only the pointers the intervening delta records dirtied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from ..core.flat import FlatIndex


@dataclass
class PointsToDiff:
    """Fact-level difference between two snapshots."""

    added: List[Tuple[int, int]] = field(default_factory=list)
    removed: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def unchanged(self) -> bool:
        return not self.added and not self.removed


def _pointer_candidates(index) -> Optional[Set[int]]:
    """Pointers that *can* have a non-empty points-to row, or ``None``.

    A pointer outside the trie (``column_of`` is ``None``) has an empty
    base row; for overlays, the delta's dirty pointers are added on top.
    Returns ``None`` when the index exposes no ``column_of`` — the caller
    must fall back to the full id range.
    """
    column_of = getattr(index, "column_of", None)
    if column_of is None:
        return None
    candidates = {
        pointer for pointer in range(index.n_pointers)
        if column_of(pointer) is not None
    }
    dirty = getattr(index, "dirty_pointers", None)
    if dirty is not None:
        candidates.update(dirty())
    return candidates


def diff_points_to(old: FlatIndex, new: FlatIndex,
                   candidates: Optional[Iterable[int]] = None) -> PointsToDiff:
    """All ``(pointer, object)`` facts gained or lost between snapshots.

    Pointers/objects present in only one snapshot contribute their whole
    rows to the corresponding side.  Rows are materialised only for
    pointers that can be non-empty in *either* snapshot (pointers outside
    both tries provably contribute nothing), so the cost is proportional
    to the populated rows, not the id space.  ``candidates`` narrows the
    comparison further — e.g. to the dirty set between two versions of
    one file; pointers outside it are assumed (not checked) identical.
    """
    diff = PointsToDiff()
    if candidates is None:
        old_candidates = _pointer_candidates(old)
        new_candidates = _pointer_candidates(new)
        if old_candidates is None or new_candidates is None:
            candidates = range(max(old.n_pointers, new.n_pointers))
        else:
            candidates = sorted(old_candidates | new_candidates)
    else:
        candidates = sorted(set(candidates))
    for pointer in candidates:
        old_row = set(old.list_points_to(pointer)) if pointer < old.n_pointers else set()
        new_row = set(new.list_points_to(pointer)) if pointer < new.n_pointers else set()
        for obj in sorted(new_row - old_row):
            diff.added.append((pointer, obj))
        for obj in sorted(old_row - new_row):
            diff.removed.append((pointer, obj))
    return diff


def diff_versions(path: str, v1: int, v2: int) -> PointsToDiff:
    """Fact-level difference between two versions of *one* persisted file.

    Opens the file once through the versioned loader, pins both epochs,
    and compares only the pointers dirtied by the delta records between
    them — never a full id-space scan and never a second file open.
    Raises :class:`~repro.delta.VersionUnavailableError` when either
    version is outside the file's ``[floor, head]`` range.
    """
    from ..delta import load_versions

    versioned = load_versions(path)
    try:
        old = versioned.as_of(v1)
        new = versioned.as_of(v2)
        pointers, _ = versioned.dirty_between(v1, v2)
        return diff_points_to(old, new, candidates=pointers)
    finally:
        versioned.close()


def new_alias_pairs(
    old: FlatIndex, new: FlatIndex, limit: int = 1_000_000
) -> Set[Tuple[int, int]]:
    """Alias pairs present in the new snapshot but not the old one.

    These are exactly the pairs a race/escape re-analysis must look at; the
    bulk rectangle enumeration keeps this output-linear.  ``limit`` bounds
    the answer as a safety valve for degenerate inputs.
    """
    fresh: Set[Tuple[int, int]] = set()
    for p, q in new.iter_alias_pairs():
        if p < old.n_pointers and q < old.n_pointers and old.is_alias(p, q):
            continue
        fresh.add((p, q))
        if len(fresh) >= limit:
            break
    return fresh


def impacted_pointers(old: FlatIndex, new: FlatIndex) -> Set[int]:
    """Pointers whose points-to set changed in any direction."""
    diff = diff_points_to(old, new)
    return {pointer for pointer, _ in diff.added} | {
        pointer for pointer, _ in diff.removed
    }
