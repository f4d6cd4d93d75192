"""Aliasing-pairs client — the race-detector workload of Section 7.1.1.

A static race detector (Naik et al.) needs all pairs of conflicting load
and store statements whose *base pointers* may alias.  The paper evaluates
two ways of producing them:

* **IsAlias enumeration**: enumerate candidate base-pointer pairs and ask
  ``IsAlias`` for each — quadratic in the base-pointer count;
* **ListAliases**: for each base pointer, retrieve its alias set in one
  query and intersect with the base-pointer universe — output-linear, and
  the source of the paper's 123.6× headline speed-up.

Both are implemented against any backend exposing the Table 1 interface
(FlatIndex, BitmapIndex, DemandDriven, PointsToBdd), so the benchmark
can run the same client over every encoding.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, Sequence, Set, Tuple


class AliasBackend(Protocol):
    """The query surface the client needs (Table 1 subset)."""

    def is_alias(self, p: int, q: int) -> bool: ...

    def list_aliases(self, p: int) -> List[int]: ...


def aliasing_pairs_by_is_alias(
    backend: AliasBackend, base_pointers: Sequence[int]
) -> Set[Tuple[int, int]]:
    """Method 1: enumerate all base-pointer pairs through ``IsAlias``."""
    pairs: Set[Tuple[int, int]] = set()
    pointers = list(base_pointers)
    for i, p in enumerate(pointers):
        for q in pointers[i + 1 :]:
            if backend.is_alias(p, q):
                pairs.add((p, q) if p < q else (q, p))
    return pairs


def aliasing_pairs_by_list_aliases(
    backend: AliasBackend, base_pointers: Sequence[int]
) -> Set[Tuple[int, int]]:
    """Method 2: one ``ListAliases`` per base pointer, filtered to bases."""
    universe = set(base_pointers)
    pairs: Set[Tuple[int, int]] = set()
    for p in base_pointers:
        for q in backend.list_aliases(p):
            if q in universe and q != p:
                pairs.add((p, q) if p < q else (q, p))
    return pairs


def aliasing_pairs_bulk(index, base_pointers: Sequence[int]) -> Set[Tuple[int, int]]:
    """Method 3 (ours): one pass over the rectangle encoding.

    Uses :meth:`FlatIndex.iter_alias_pairs` to stream every alias pair
    in the program once and keeps those between base pointers — no
    per-pointer query loop at all.  Fastest when the base-pointer set is a
    large fraction of all pointers.
    """
    universe = set(base_pointers)
    return {
        (p, q)
        for p, q in index.iter_alias_pairs()
        if p in universe and q in universe
    }


def conflict_report(
    pairs: Iterable[Tuple[int, int]], pointer_names: Sequence[str]
) -> List[str]:
    """Human-readable conflict lines, sorted for stable output."""
    normalized = {(p, q) if p < q else (q, p) for p, q in pairs}
    lines = []
    for p, q in sorted(normalized):
        lines.append("may-race: %s  <->  %s" % (pointer_names[p], pointer_names[q]))
    return lines
