"""Name-level query veneer over a Pestrie index.

The Section 6 transforms produce matrices whose rows are *derived* pointers
(``p_l``, ``p_c``, ``p|predicate``).  ``NamedIndex`` binds those name
tables to a :class:`FlatIndex` so clients can ask questions in source
terms, including the constrained forms the paper mentions —
``ListPointsTo(c, p)`` is just ``list_points_to("f[c]::p")`` here — and
stem-level questions that aggregate over all versions of a variable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from .flat import FlatIndex

if TYPE_CHECKING:  # avoid a core -> analysis import cycle at runtime
    from ..analysis.transform import NamedMatrix


class NamedIndex:
    """Query a persisted matrix by pointer/object names."""

    def __init__(
        self,
        index: FlatIndex,
        pointer_index: Dict[str, int],
        object_index: Dict[str, int],
    ):
        self.index = index
        self.pointer_index = dict(pointer_index)
        self.object_index = dict(object_index)
        self._pointer_names = _invert(self.pointer_index)
        self._object_names = _invert(self.object_index)
        self._stems: Dict[str, List[int]] = {}
        for name, row in self.pointer_index.items():
            self._stems.setdefault(stem_of(name), []).append(row)

    @classmethod
    def over(cls, named: "NamedMatrix", index: FlatIndex) -> "NamedIndex":
        return cls(index, named.pointer_index, named.object_index)

    # ------------------------------------------------------------------
    # Exact-name queries (the Table 1 interface, in source terms)
    # ------------------------------------------------------------------

    def is_alias(self, p: str, q: str) -> bool:
        return self.index.is_alias(self.pointer_index[p], self.pointer_index[q])

    def list_points_to(self, p: str) -> List[str]:
        return sorted(
            self._object_names[obj]
            for obj in self.index.list_points_to(self.pointer_index[p])
        )

    def list_pointed_by(self, o: str) -> List[str]:
        return sorted(
            self._pointer_names[p]
            for p in self.index.list_pointed_by(self.object_index[o])
        )

    def list_aliases(self, p: str) -> List[str]:
        return sorted(
            self._pointer_names[q]
            for q in self.index.list_aliases(self.pointer_index[p])
        )

    # ------------------------------------------------------------------
    # Stem-level queries: aggregate over all versions of one variable
    # ------------------------------------------------------------------

    def versions_of(self, stem: str) -> List[str]:
        """All derived rows of a base variable, e.g. every ``p@L*``."""
        return sorted(self._pointer_names[row] for row in self._stems.get(stem, ()))

    def stem_points_to(self, stem: str) -> List[str]:
        """Union of the points-to sets of every version — the
        flow-/context-insensitive projection of the precise result."""
        objects = set()
        for row in self._stems.get(stem, ()):
            objects.update(self.index.list_points_to(row))
        return sorted(self._object_names[obj] for obj in objects)

    def stem_may_alias(self, stem_a: str, stem_b: str) -> bool:
        """May *any* version of the two variables alias?"""
        rows_b = self._stems.get(stem_b, ())
        for row_a in self._stems.get(stem_a, ()):
            for row_b in rows_b:
                if self.index.is_alias(row_a, row_b):
                    return True
        return False


def stem_of(row_name: str) -> str:
    """Reduce a transformed row name to its ``function::variable`` stem.

    Strips flow-sensitive ``@L7``/``@entry(f)`` suffixes, context brackets
    ``f[12]::v``, and path-predicate suffixes ``p|l1``.
    """
    base = row_name.split("@", 1)[0]
    base = base.split("|", 1)[0]
    if "[" in base:
        head, _, tail = base.partition("[")
        closing = tail.find("]::")
        if closing != -1:
            base = head + "::" + tail[closing + 3 :]
    return base


def _invert(index: Dict[str, int]) -> Dict[int, str]:
    return {value: key for key, value in index.items()}
