"""Hub degrees and object orders (Sections 2.2, 5.1, 5.2)."""

import math

import pytest
from hypothesis import given, settings

from repro.core import hub
from repro.core.builder import resolve_order
from repro.matrix.points_to import PointsToMatrix

from conftest import matrices


class TestHubDegree:
    def test_definition_1_by_hand(self):
        # Pointers: 0 -> {0}, 1 -> {0, 1}.  |PM[0]| = 1, |PM[1]| = 2.
        matrix = PointsToMatrix.from_rows([[0], [0, 1]], 2)
        degrees = hub.hub_degrees(matrix)
        # H_o0 = sqrt(1² + 2²) = sqrt(5); H_o1 = sqrt(2²) = 2.
        assert degrees[0] == pytest.approx(math.sqrt(5))
        assert degrees[1] == pytest.approx(2.0)

    def test_unpointed_object_has_zero_degree(self):
        matrix = PointsToMatrix.from_rows([[0]], 2)
        assert hub.hub_degrees(matrix)[1] == 0.0

    def test_paper_matrix_order(self, paper_matrix):
        # H = sqrt over pointed-by pointers of |PM[p]|²:
        # o1=√37, o2=√33, o3=√36, o4=√17, o5=√24.  (The paper narrates the
        # example in id order o1..o5 for exposition; Definition 1 actually
        # ranks o3 above o2.)  The encoder's order stage must agree.
        degrees = hub.hub_degrees(paper_matrix)
        assert degrees == pytest.approx(
            [math.sqrt(37), math.sqrt(33), math.sqrt(36), math.sqrt(17), math.sqrt(24)]
        )
        assert resolve_order(paper_matrix, "hub") == [0, 2, 1, 4, 3]
        assert degrees[0] == max(degrees)

    def test_distinguishes_same_pointed_by_count(self):
        # Both objects pointed by exactly one pointer, but pointer 1 has a
        # bigger points-to set: Definition 1 ranks o1 above o0 where the
        # naive |PMT[o]| metric cannot separate them.
        matrix = PointsToMatrix.from_rows([[0], [1, 2, 3]], 4)
        degrees = hub.hub_degrees(matrix)
        simple = hub.simple_degrees(matrix)
        assert simple[0] == simple[1] == 1
        assert degrees[1] > degrees[0]

    def test_simple_degrees(self, paper_matrix):
        assert hub.simple_degrees(paper_matrix) == [4, 3, 3, 2, 3]


class TestOrders:
    def test_random_order_is_permutation_and_seeded(self, paper_matrix):
        first = hub.random_order(paper_matrix, seed=11)
        second = hub.random_order(paper_matrix, seed=11)
        assert first == second
        assert sorted(first) == [0, 1, 2, 3, 4]
        assert hub.random_order(paper_matrix, seed=12) != first or True  # may collide

    def test_identity_order(self, paper_matrix):
        assert hub.identity_order(paper_matrix) == [0, 1, 2, 3, 4]

    def test_simple_degree_order_ties_by_id(self, paper_matrix):
        assert resolve_order(paper_matrix, "simple") == [0, 1, 2, 4, 3]

    def test_validate_order_accepts_permutation(self):
        assert hub.validate_order((2, 0, 1), 3) == [2, 0, 1]

    def test_validate_order_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            hub.validate_order([0, 0, 1], 3)
        with pytest.raises(ValueError):
            hub.validate_order([0, 1], 3)


class TestPartitionObjective:
    def test_by_hand(self):
        # Two objects; pointers 0,1 -> o0; pointer 2 -> both.
        matrix = PointsToMatrix.from_rows([[0], [0], [0, 1]], 2)
        # Order (o0, o1): groups {0,1,2} and {} -> 9.
        assert hub.partition_objective(matrix, [0, 1]) == 9
        # Order (o1, o0): groups {2} and {0,1} -> 1 + 4 = 5.
        assert hub.partition_objective(matrix, [1, 0]) == 5

    @settings(max_examples=50)
    @given(matrices(max_pointers=10, max_objects=5))
    def test_theorem_3_identity(self, matrix):
        """O_π = mσ² + n²/m for any π (over pointers that point somewhere)."""
        order = list(range(matrix.n_objects))
        objective = hub.partition_objective(matrix, order)

        position = {obj: rank for rank, obj in enumerate(order)}
        sizes = [0] * matrix.n_objects
        tracked = 0
        for row in matrix.rows:
            firsts = [position[o] for o in row]
            if firsts:
                sizes[min(firsts)] += 1
                tracked += 1
        m = matrix.n_objects
        mean = tracked / m
        variance = sum((size - mean) ** 2 for size in sizes) / m
        assert objective == pytest.approx(m * variance + tracked**2 / m)

    @settings(max_examples=30)
    @given(matrices(max_pointers=10, max_objects=5))
    def test_objective_counts_each_pointer_once(self, matrix):
        order = resolve_order(matrix, "hub")
        objective = hub.partition_objective(matrix, order)
        nonempty = sum(1 for row in matrix.rows if row)
        # Σ I_i = n implies O_π ≤ n² and ≥ n²/m (Cauchy-Schwarz bounds).
        if nonempty:
            assert nonempty**2 / matrix.n_objects <= objective + 1e-9
            assert objective <= nonempty**2
