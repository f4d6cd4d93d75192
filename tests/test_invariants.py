"""Property tests for the paper's two structural theorems.

* **Theorem 1** — ξ-reachability in the Pestrie reproduces the source
  points-to matrix exactly: ``pointed_by`` over the trie equals the
  matrix's column, for every object, under every object-order heuristic.
* **Theorem 2** — any two generated rectangles either nest or are
  disjoint.  Operatively: over the unpruned candidate set every pair is
  disjoint-or-enclosing, and with pruning on, every discarded candidate
  is fully enclosed by a rectangle that was stored — so dropping it loses
  no alias pair.

Both are exercised across all ``ORDER_CHOICES`` because the theorems must
hold for *any* construction order, not just the hub default.  The trie
and the candidate/kept rectangle sets are read from the encoder's own
stages, so these oracles check the code that writes every file.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_matrix, matrices, stage_rectangles
from repro.core import ORDER_CHOICES
from repro.core.builder import build_pestrie
from repro.core.reachability import verify_theorem_1
from repro.core.segment_tree import Rect


def _encloses(outer: Rect, inner: Rect) -> bool:
    return (outer.x1 <= inner.x1 and inner.x2 <= outer.x2
            and outer.y1 <= inner.y1 and inner.y2 <= outer.y2)


def _disjoint(a: Rect, b: Rect) -> bool:
    return a.x2 < b.x1 or b.x2 < a.x1 or a.y2 < b.y1 or b.y2 < a.y1


class TestTheorem1:
    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(ORDER_CHOICES))
    def test_xi_reachability_reproduces_matrix(self, matrix, order):
        pestrie = build_pestrie(matrix, order=order, seed=0)
        assert verify_theorem_1(pestrie, matrix)

    def test_across_random_seeds(self):
        """The random order must satisfy Theorem 1 for any permutation."""
        matrix = make_random_matrix(20, 8, density=0.25, seed=0)
        for seed in range(10):
            pestrie = build_pestrie(matrix, order="random", seed=seed)
            assert verify_theorem_1(pestrie, matrix)


class TestTheorem2:
    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(ORDER_CHOICES))
    def test_candidates_nest_or_are_disjoint(self, matrix, order):
        _, kept, pruned = stage_rectangles(matrix, order=order, seed=1)
        candidates = [rect for rect, _ in kept + pruned]
        for i, a in enumerate(candidates):
            for b in candidates[i + 1:]:
                assert (_disjoint(a, b) or _encloses(a, b) or _encloses(b, a)), (
                    "rectangles %r and %r partially overlap" % (a.as_tuple(), b.as_tuple())
                )

    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(ORDER_CHOICES))
    def test_pruned_candidates_are_enclosed(self, matrix, order):
        """A corner hit implies full enclosure — pruning never loses a pair."""
        _, kept, pruned = stage_rectangles(matrix, order=order, seed=2)
        stored = [rect for rect, _ in kept]
        for candidate, _ in pruned:
            assert any(_encloses(rect, candidate) for rect in stored), (
                "pruned %r is not enclosed by any stored rectangle"
                % (candidate.as_tuple(),)
            )

    @settings(max_examples=40)
    @given(matrices(), st.sampled_from(ORDER_CHOICES))
    def test_pruning_is_lossless(self, matrix, order):
        """Pruned and unpruned sets cover exactly the same timestamp pairs."""
        _, kept, pruned = stage_rectangles(matrix, order=order, seed=3)

        def covered_points(rects):
            points = set()
            for rect in rects:
                for x in range(rect.x1, rect.x2 + 1):
                    for y in range(rect.y1, rect.y2 + 1):
                        points.add((x, y))
            return points

        assert covered_points(rect for rect, _ in kept) == \
            covered_points(rect for rect, _ in kept + pruned)

    def test_case1_never_pruned(self):
        """Case-1 rectangles survive pruning (ListPointsTo completeness)."""
        matrix = make_random_matrix(16, 7, density=0.3, seed=4)
        for order in ORDER_CHOICES:
            pestrie, kept, pruned = stage_rectangles(matrix, order=order, seed=5)
            assert not any(case1 for _, case1 in pruned)
            assert sum(1 for _, case1 in kept if case1) == len(pestrie.cross_edges)
