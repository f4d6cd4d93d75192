"""Rectangle generation and Theorem 2 pruning (Section 3.4.1, Figure 4),
read from the encoder's rectangles and dedup stages."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matrices, stage_rectangles


class TestFigure4:
    def test_exact_rectangles(self, paper_matrix):
        _, kept, _ = stage_rectangles(paper_matrix, order="identity")
        assert sorted(rect.as_tuple() for rect, _ in kept) == [
            (1, 1, 8, 8),
            (1, 2, 4, 4),
            (1, 2, 5, 6),
            (2, 2, 7, 7),
            (3, 3, 6, 6),
            (3, 3, 8, 8),
            (6, 6, 8, 8),
        ]

    def test_pruned_rectangle(self, paper_matrix):
        """<1,1,6,6> ({p3} × {p7} via o5) is inside <1,2,5,6> and dropped."""
        _, _, pruned = stage_rectangles(paper_matrix, order="identity")
        assert [rect.as_tuple() for rect, _ in pruned] == [(1, 1, 6, 6)]

    def test_case1_classification(self, paper_matrix):
        _, kept, _ = stage_rectangles(paper_matrix, order="identity")
        case1 = sorted(rect.as_tuple() for rect, is_case1 in kept if is_case1)
        # Every origin's cross subtrees pair with its PES block: o2, o3,
        # o4, and o5's three.
        assert case1 == [
            (1, 1, 8, 8),
            (1, 2, 4, 4),
            (1, 2, 5, 6),
            (2, 2, 7, 7),
            (3, 3, 8, 8),
            (6, 6, 8, 8),
        ]
        case2 = sorted(rect.as_tuple() for rect, is_case1 in kept if not is_case1)
        assert case2 == [(3, 3, 6, 6)]

    def test_same_pes_pair_not_encoded(self, paper_matrix):
        """{p3} × {p1} of origin o5 is an internal pair: no rectangle."""
        _, kept, pruned = stage_rectangles(paper_matrix, order="identity")
        assert (1, 1, 3, 3) not in {rect.as_tuple() for rect, _ in kept}
        assert (1, 1, 3, 3) not in {rect.as_tuple() for rect, _ in pruned}


class TestTheorem2:
    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_kept_rectangles_pairwise_disjoint(self, matrix, order):
        _, kept, _ = stage_rectangles(matrix, order=order, seed=3)
        rects = [rect for rect, _ in kept]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                a, b = rects[i], rects[j]
                x_overlap = not (a.x2 < b.x1 or b.x2 < a.x1)
                y_overlap = not (a.y2 < b.y1 or b.y2 < a.y1)
                assert not (x_overlap and y_overlap), (a, b)

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_pruned_rectangles_fully_enclosed(self, matrix, order):
        _, kept, pruned = stage_rectangles(matrix, order=order, seed=3)
        for candidate, _ in pruned:
            assert any(rect.encloses(candidate) for rect, _ in kept), candidate

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_case1_never_pruned(self, matrix, order):
        """ListPointsTo completeness rests on this (see the dedup stage)."""
        pestrie, kept, _ = stage_rectangles(matrix, order=order, seed=3)
        # Count expected Case-1 rectangles: one per cross edge.
        assert sum(1 for _, case1 in kept if case1) == len(pestrie.cross_edges)

    @settings(max_examples=40, deadline=None)
    @given(matrices())
    def test_pruning_only_removes_redundancy(self, matrix):
        """Pruned and unpruned rectangle sets cover the same point set."""
        _, kept, pruned = stage_rectangles(matrix, order="identity")
        with_pruning = [rect for rect, _ in kept]
        without = with_pruning + [rect for rect, _ in pruned]

        def covered(rects):
            points = set()
            for rect in rects:
                for x in range(rect.x1, rect.x2 + 1):
                    for y in range(rect.y1, rect.y2 + 1):
                        points.add((x, y))
            return points

        assert covered(with_pruning) == covered(without)


class TestRectangleSemantics:
    @settings(max_examples=50, deadline=None)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_rectangles_encode_exactly_the_cross_pairs(self, matrix, order):
        """(ts_p, ts_q) is covered ⟺ p, q alias across different PESs."""
        pestrie, kept, _ = stage_rectangles(matrix, order=order, seed=9)
        rects = [rect for rect, _ in kept]

        def covered(x, y):
            if x > y:
                x, y = y, x
            return any(r.covers(x, y) for r in rects)

        for p in range(matrix.n_pointers):
            gp = pestrie.group_of_pointer[p]
            if gp is None:
                continue
            for q in range(matrix.n_pointers):
                gq = pestrie.group_of_pointer[q]
                if gq is None or q <= p:
                    continue
                same_pes = pestrie.groups[gp].pes == pestrie.groups[gq].pes
                is_alias = matrix.is_alias(p, q)
                ts_p = pestrie.pre_order[gp]
                ts_q = pestrie.pre_order[gq]
                if same_pes:
                    continue  # internal pairs are not rectangle-encoded
                assert covered(ts_p, ts_q) == is_alias, (p, q)
