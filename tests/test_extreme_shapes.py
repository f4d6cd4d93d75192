"""Structured extreme matrix shapes: worst and best cases for the encoder."""

import pytest

from conftest import stage_rectangles
from repro.core.builder import build_pestrie
from repro.core.pipeline import encode, index_from_bytes
from repro.matrix.points_to import PointsToMatrix


def _round_trip(matrix, order="hub"):
    index = index_from_bytes(encode(matrix, order=order))
    assert index.materialize() == matrix
    return index


class TestChainMatrix:
    """p_i points to o_0..o_i: maximal nesting, a long extraction chain."""

    @pytest.fixture(scope="class")
    def matrix(self):
        n = 24
        return PointsToMatrix.from_pairs(
            n, n, [(p, o) for p in range(n) for o in range(p + 1)]
        )

    def test_round_trip(self, matrix):
        for order in ("hub", "identity", "random"):
            _round_trip(matrix, order)

    def test_every_pair_aliases(self, matrix):
        index = _round_trip(matrix)
        for p in range(matrix.n_pointers):
            for q in range(matrix.n_pointers):
                assert index.is_alias(p, q)  # all share o_0

    def test_deep_pes_structure(self, matrix):
        pestrie = build_pestrie(matrix, order="identity")
        # With identity order, each row extracts the suffix: a chain of
        # singleton groups inside PES o_0.
        depths = {}
        for group in pestrie.groups:
            depth = 0
            current = group
            while current.parent is not None:
                depth += 1
                current = pestrie.groups[current.parent]
            depths[group.id] = depth
        assert max(depths.values()) >= matrix.n_pointers - 2


class TestStarMatrix:
    """Everything points to one hub object only: a single giant ES."""

    @pytest.fixture(scope="class")
    def matrix(self):
        return PointsToMatrix.from_pairs(40, 5, [(p, 2) for p in range(40)])

    def test_one_group_holds_everything(self, matrix):
        pestrie = build_pestrie(matrix, order="hub")
        sizes = sorted(len(group.pointers) for group in pestrie.groups)
        assert sizes[-1] == 40
        assert len(pestrie.cross_edges) == 0

    def test_no_rectangles_needed(self, matrix):
        _, kept, pruned = stage_rectangles(matrix, order="hub")
        assert kept == [] and pruned == []

    def test_all_alias_via_pes(self, matrix):
        index = _round_trip(matrix)
        assert index.is_alias(0, 39)
        assert sorted(index.list_aliases(0)) == list(range(1, 40))


class TestBlockDiagonal:
    """k disjoint cliques: alias islands with no cross-island pairs."""

    @pytest.fixture(scope="class")
    def matrix(self):
        blocks, size = 6, 5
        matrix = PointsToMatrix(blocks * size, blocks)
        for block in range(blocks):
            for offset in range(size):
                matrix.add(block * size + offset, block)
        return matrix

    def test_islands_do_not_alias(self, matrix):
        index = _round_trip(matrix)
        assert index.is_alias(0, 4)
        assert not index.is_alias(0, 5)
        assert sorted(index.list_aliases(7)) == [5, 6, 8, 9]

    def test_no_cross_edges(self, matrix):
        pestrie = build_pestrie(matrix, order="hub")
        assert len(pestrie.cross_edges) == 0


class TestFullMatrix:
    """The dense worst case: every pointer points to every object."""

    def test_round_trip_and_single_es(self):
        matrix = PointsToMatrix.from_pairs(
            15, 8, [(p, o) for p in range(15) for o in range(8)]
        )
        pestrie = build_pestrie(matrix, order="hub")
        # All pointers stay one equivalent set, dragged through every row.
        non_empty = [g for g in pestrie.groups if g.pointers]
        assert len(non_empty) == 1
        _round_trip(matrix)


class TestAntiChain:
    """Permutation matrix: no aliasing at all, everything is singleton."""

    def test_no_pairs(self):
        n = 30
        matrix = PointsToMatrix.from_pairs(n, n, [(i, i) for i in range(n)])
        index = _round_trip(matrix)
        for p in range(0, n, 7):
            assert index.list_aliases(p) == []
        assert list(index.iter_alias_pairs()) == []


class TestBipartiteCrossing:
    """Two pointer families overlapping on a shared middle object."""

    def test_cross_pairs_via_shared_hub(self):
        # family A -> {o0, o1}; family B -> {o1, o2}
        matrix = PointsToMatrix(12, 3)
        for p in range(6):
            matrix.add(p, 0)
            matrix.add(p, 1)
        for p in range(6, 12):
            matrix.add(p, 1)
            matrix.add(p, 2)
        index = _round_trip(matrix)
        assert index.is_alias(0, 11)  # via the shared o1
        assert sorted(index.list_pointed_by(1)) == list(range(12))


class TestSingletons:
    def test_single_pointer_single_object(self):
        matrix = PointsToMatrix.from_pairs(1, 1, [(0, 0)])
        index = _round_trip(matrix)
        assert index.list_points_to(0) == [0]
        assert index.list_aliases(0) == []
        assert index.is_alias(0, 0)

    def test_single_pointer_no_facts(self):
        matrix = PointsToMatrix(1, 1)
        index = _round_trip(matrix)
        assert index.list_points_to(0) == []
        assert not index.is_alias(0, 0)
