"""The PestrieIndex query structure vs the matrix oracle (Section 4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decoder import PestriePayload
from repro.core.pipeline import encode, index_from_bytes
from repro.core.query import PestrieIndex
from repro.core.segment_tree import Rect
from repro.matrix.points_to import PointsToMatrix

from conftest import make_random_matrix, matrices


def _index(matrix, order="hub", seed=0):
    return index_from_bytes(encode(matrix, order=order, seed=seed))


class TestIsAlias:
    def test_paper_example(self, paper_matrix):
        index = _index(paper_matrix, order="identity")
        for p in range(7):
            for q in range(7):
                assert index.is_alias(p, q) == paper_matrix.is_alias(p, q), (p, q)

    def test_self_alias(self, paper_matrix):
        index = _index(paper_matrix)
        assert index.is_alias(0, 0)

    def test_empty_pointer_never_aliases(self):
        matrix = PointsToMatrix(3, 2)
        matrix.add(0, 0)
        index = _index(matrix)
        assert not index.is_alias(0, 1)
        assert not index.is_alias(1, 1)
        assert not index.is_alias(1, 2)

    def test_symmetry(self, paper_matrix):
        index = _index(paper_matrix)
        for p in range(7):
            for q in range(7):
                assert index.is_alias(p, q) == index.is_alias(q, p)

    @settings(max_examples=80)
    @given(matrices(), st.sampled_from(["hub", "identity", "simple", "random"]))
    def test_matches_oracle(self, matrix, order):
        index = _index(matrix, order=order, seed=21)
        for p in range(matrix.n_pointers):
            for q in range(matrix.n_pointers):
                assert index.is_alias(p, q) == matrix.is_alias(p, q), (p, q)


class TestListQueries:
    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_list_points_to(self, matrix, order):
        index = _index(matrix, order=order, seed=4)
        for p in range(matrix.n_pointers):
            assert sorted(index.list_points_to(p)) == matrix.list_points_to(p)

    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_list_pointed_by(self, matrix, order):
        index = _index(matrix, order=order, seed=4)
        for obj in range(matrix.n_objects):
            assert sorted(index.list_pointed_by(obj)) == matrix.list_pointed_by(obj)

    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_list_aliases(self, matrix, order):
        index = _index(matrix, order=order, seed=4)
        for p in range(matrix.n_pointers):
            answer = index.list_aliases(p)
            assert sorted(answer) == matrix.list_aliases(p)
            assert len(answer) == len(set(answer)), "duplicate aliases emitted"

    def test_list_aliases_no_duplicates_paper(self, paper_matrix):
        index = _index(paper_matrix, order="identity")
        for p in range(7):
            answer = index.list_aliases(p)
            assert len(answer) == len(set(answer))

    def test_queries_on_empty_pointer(self):
        matrix = PointsToMatrix(2, 2)
        matrix.add(1, 1)
        index = _index(matrix)
        assert index.list_points_to(0) == []
        assert index.list_aliases(0) == []

    def test_unpointed_object(self):
        matrix = PointsToMatrix(2, 3)
        matrix.add(0, 0)
        index = _index(matrix)
        assert index.list_pointed_by(2) == []


class TestPesRecovery:
    def test_pes_identifiers_recovered(self, paper_matrix):
        """Section 4 step 1: binary search reassigns construction PES ids."""
        from repro.core.builder import build_pestrie

        pestrie = build_pestrie(paper_matrix, order="identity")
        index = _index(paper_matrix, order="identity")
        for pointer in range(7):
            assert index.pes_of(pointer) == pestrie.pes_of_pointer(pointer)

    @settings(max_examples=40)
    @given(matrices())
    def test_pes_identifiers_any_matrix(self, matrix):
        from repro.core.builder import build_pestrie

        pestrie = build_pestrie(matrix, order="hub")
        index = _index(matrix, order="hub")
        for pointer in range(matrix.n_pointers):
            assert index.pes_of(pointer) == pestrie.pes_of_pointer(pointer)


class TestEventSweepBuild:
    """The ptList build must never expand rectangles column by column."""

    WIDTH = 10_000_000

    def _wide_payload(self):
        """Two PESs and one rectangle spanning millions of columns."""
        half = self.WIDTH // 2
        return PestriePayload(
            n_pointers=4,
            n_objects=2,
            n_groups=self.WIDTH,
            pointer_ts=[0, half - 1, half, None],
            object_ts=[0, half],
            rects=[(Rect(x1=0, x2=half - 1, y1=half, y2=self.WIDTH - 1), True)],
        )

    def test_wide_rectangle_loads_without_blowup(self):
        """O(R log R) construction: a 10M-column rectangle must build a
        handful of shared slabs, not one list per covered column."""
        index = PestrieIndex(self._wide_payload())
        # One rectangle -> forward + mirror spans -> at most 5 slabs; the
        # old per-column expansion would have made 10M entries here.
        assert index._sweep.slab_count() <= 5
        # Footprint stays in the kilobytes, nowhere near per-column scale.
        assert index.memory_footprint() < 100_000

    def test_wide_rectangle_answers(self):
        index = PestrieIndex(self._wide_payload())
        # Pointers 0/1 share PES 0; pointer 2 is PES 1; the rectangle
        # aliases the two PESs and records that PES-0 pointers point to
        # object 1 (Case 1).
        assert index.is_alias(0, 1)
        assert index.is_alias(0, 2)
        assert index.is_alias(1, 2)
        assert not index.is_alias(0, 3)
        assert sorted(index.list_points_to(0)) == [0, 1]
        assert sorted(index.list_points_to(2)) == [1]
        assert sorted(index.list_aliases(2)) == [0, 1]
        assert sorted(index.list_pointed_by(1)) == [0, 1, 2]

    def test_wide_rectangle_batch(self):
        index = PestrieIndex(self._wide_payload())
        pairs = [(0, 1), (0, 2), (0, 3), (3, 3), (2, 1)]
        assert index.is_alias_batch(pairs) == [
            index.is_alias(p, q) for p, q in pairs
        ]

    @settings(max_examples=40)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_batch_matches_single(self, matrix, order):
        index = _index(matrix, order=order, seed=13)
        pairs = [(p, q) for p in range(matrix.n_pointers)
                 for q in range(matrix.n_pointers)]
        assert index.is_alias_batch(pairs) == [
            matrix.is_alias(p, q) for p, q in pairs
        ]


class TestMaterialize:
    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(["hub", "identity", "simple", "random"]))
    def test_round_trip(self, matrix, order):
        index = _index(matrix, order=order, seed=77)
        assert index.materialize() == matrix

    def test_larger_random_matrices(self):
        for seed in range(6):
            matrix = make_random_matrix(80, 25, density=0.12, seed=seed)
            assert _index(matrix).materialize() == matrix

    def test_memory_footprint_positive(self, paper_matrix):
        index = _index(paper_matrix)
        assert index.memory_footprint() > 0
