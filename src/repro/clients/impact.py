"""Change-impact client — a ``ListPointedBy`` consumer (Section 1, use 1).

Given a set of *changed* allocation sites (e.g. a struct whose layout was
modified in a new release), the client computes the blast radius: every
pointer that may reference a changed object, then — transitively through
aliasing — every pointer whose value may be affected.  This is the kind of
regression-analysis pipeline the paper motivates persisting pointer
information for: it runs repeatedly against the *same* release snapshot,
so reloading a Pestrie file beats re-running the points-to analysis by
orders of magnitude.
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, Set


class ImpactBackend(Protocol):
    def list_pointed_by(self, obj: int) -> List[int]: ...

    def list_aliases(self, p: int) -> List[int]: ...


def direct_impact(backend: ImpactBackend, changed_objects: Iterable[int]) -> Set[int]:
    """Pointers that may directly reference a changed object."""
    impacted: Set[int] = set()
    for obj in changed_objects:
        impacted.update(backend.list_pointed_by(obj))
    return impacted


def transitive_impact(
    backend: ImpactBackend, changed_objects: Iterable[int], rounds: int = 1
) -> Set[int]:
    """Widen the direct impact through aliasing for ``rounds`` steps.

    One round is the usual engineering choice: a pointer aliased with an
    impacted pointer may observe the changed object through it.
    """
    impacted = direct_impact(backend, changed_objects)
    frontier = set(impacted)
    for _ in range(rounds):
        next_frontier: Set[int] = set()
        for pointer in frontier:
            for alias in backend.list_aliases(pointer):
                if alias not in impacted:
                    impacted.add(alias)
                    next_frontier.add(alias)
        if not next_frontier:
            break
        frontier = next_frontier
    return impacted


def version_impact(path: str, v1: int, v2: int, rounds: int = 1) -> Set[int]:
    """Blast radius of the edits between two versions of one file.

    The changed-object set is read straight off the delta records between
    the two epochs (no diffing required), then widened through aliasing
    against the newer snapshot.  One file open, two pinned versions.
    """
    from ..delta import load_versions

    versioned = load_versions(path)
    try:
        newer = versioned.as_of(max(v1, v2))
        _, objects = versioned.dirty_between(v1, v2)
        return transitive_impact(newer, objects, rounds=rounds)
    finally:
        versioned.close()
