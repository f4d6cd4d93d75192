"""The standard Trie of Appendix A and the Lemma 3 correspondence.

The paper names its structure *Pestrie* because its cross-edge sharing
mirrors node sharing in a standard trie built over the pointed-by matrix:
insert each ``PMT`` row (object first... actually pointers then the object,
Appendix A step 2) as a record whose attributes are the objects in the
construction order, extending each pointer's tail path.

Lemma 3: after processing the j-th row, ``|cross edges of the Pestrie| =
|trie nodes excluding the root| − j``.  Minimising cross edges is therefore
the NP-hard optimal-trie problem (Theorem 4) — which is why Pestrie settles
for the hub-degree heuristic.  This module exists to make that
correspondence executable; the tests check Lemma 3 for every prefix.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..matrix.points_to import PointsToMatrix


class TrieNode:
    """One node of the standard trie; edges are labelled by object ids."""

    __slots__ = ("children",)

    def __init__(self):
        self.children: Dict[int, "TrieNode"] = {}

    def child(self, label: int) -> "TrieNode":
        node = self.children.get(label)
        if node is None:
            node = TrieNode()
            self.children[label] = node
        return node


class StandardTrie:
    """Appendix A's trie over the pointed-by matrix.

    Every pointer (and, after its row is processed, every object) keeps a
    *tail* pointer to the deepest trie node on its path; processing row
    ``o_i`` extends the tails of all pointers in the row (and of ``o_i``
    itself) by an ``o_i``-labelled edge.
    """

    def __init__(self, matrix: PointsToMatrix, object_order: Optional[Sequence[int]] = None):
        self.root = TrieNode()
        self._node_count = 1
        self._tail_pointer: List[TrieNode] = [self.root] * matrix.n_pointers
        self._tail_object: List[TrieNode] = [self.root] * matrix.n_objects
        self._matrix = matrix
        self._transposed = matrix.transpose()
        self._order = list(object_order) if object_order is not None else list(
            range(matrix.n_objects)
        )
        self._processed = 0
        #: Node count (root excluded) after each processed row — Lemma 3's
        #: left-hand side trace.
        self.size_trace: List[int] = []

    def process_next_row(self) -> None:
        """Insert the next object row into the trie (Appendix A step 2)."""
        obj = self._order[self._processed]
        for pointer in self._transposed.rows[obj]:
            self._tail_pointer[pointer] = self._extend(self._tail_pointer[pointer], obj)
        self._tail_object[obj] = self._extend(self._tail_object[obj], obj)
        self._processed += 1
        self.size_trace.append(self._node_count - 1)

    def _extend(self, tail: TrieNode, label: int) -> TrieNode:
        before = label in tail.children
        node = tail.child(label)
        if not before:
            self._node_count += 1
        return node

    def process_all(self) -> "StandardTrie":
        while self._processed < len(self._order):
            self.process_next_row()
        return self

    def node_count(self) -> int:
        """Nodes excluding the root (the quantity of Lemma 3)."""
        return self._node_count - 1


def lemma_3_holds(matrix: PointsToMatrix, object_order: Optional[Sequence[int]] = None) -> bool:
    """Check ``|cross edges| == |trie| − j`` after every prefix of rows.

    Builds the Pestrie (the encode pipeline's ``trie`` stage, via
    ``build_pestrie``) and the standard trie side by side under the same
    object order and compares the two traces.
    """
    from .builder import build_pestrie

    order = list(object_order) if object_order is not None else list(range(matrix.n_objects))
    trie = StandardTrie(matrix, order)
    trie.process_all()
    pointed_by = matrix.transpose().rows

    # Re-run the Pestrie construction prefix by prefix.  O(m) full builds —
    # fine for test-sized matrices.
    for j in range(1, matrix.n_objects + 1):
        prefix = order[:j]
        # Restrict the matrix to the first j objects of the order.
        restricted = PointsToMatrix(matrix.n_pointers, matrix.n_objects)
        for obj in prefix:
            for pointer in pointed_by[obj]:
                restricted.add(pointer, obj)
        pestrie = build_pestrie(restricted, explicit_order=prefix + order[j:])
        # Only cross edges created while processing the prefix count; the
        # remaining objects have empty rows and create none.
        if len(pestrie.cross_edges) != trie.size_trace[j - 1] - j:
            return False
    return True
