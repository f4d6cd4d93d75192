"""End-to-end reproduction of the paper's worked example (Tables 3-6,
Figures 2 and 4): one test per published artefact, full pipeline."""

from conftest import stage_rectangles
from repro.core.builder import build_pestrie
from repro.core.pipeline import encode, index_from_bytes

P1, P2, P3, P4, P5, P6, P7 = range(7)
O1, O2, O3, O4, O5 = range(5)


def test_table_3_matrix_shape(paper_matrix):
    assert paper_matrix.n_pointers == 7
    assert paper_matrix.n_objects == 5
    assert paper_matrix.fact_count() == 15
    transposed = paper_matrix.transpose()
    assert transposed.list_points_to(O1) == [P1, P2, P3, P4]
    assert transposed.list_points_to(O2) == [P3, P4, P6]
    assert transposed.list_points_to(O3) == [P3, P4, P7]
    assert transposed.list_points_to(O4) == [P4, P5]
    assert transposed.list_points_to(O5) == [P1, P3, P7]


def test_figure_2_structure(paper_matrix):
    pestrie = build_pestrie(paper_matrix, order="identity")
    # Nine ES nodes, five PESs, six cross edges.
    assert len(pestrie.groups) == 9
    assert len({group.pes for group in pestrie.groups}) == 5
    assert len(pestrie.cross_edges) == 6
    # (p3, p4) is an internal pair (Example 1).
    assert pestrie.pes_of_pointer(P3) == pestrie.pes_of_pointer(P4) == O1


def test_table_5_interval_labels(paper_matrix):
    pestrie, _, _ = stage_rectangles(paper_matrix, order="identity")
    labels = {}
    for group in pestrie.groups:
        labels[pestrie.pre_order[group.id]] = pestrie.max_pre_order[group.id]
    assert labels == {0: 3, 1: 2, 2: 2, 3: 3, 4: 4, 5: 6, 6: 6, 7: 7, 8: 8}


def test_table_6_and_figure_4_rectangles(paper_matrix):
    _, kept, pruned = stage_rectangles(paper_matrix, order="identity")
    assert sorted(rect.as_tuple() for rect, _ in kept) == [
        (1, 1, 8, 8),
        (1, 2, 4, 4),
        (1, 2, 5, 6),
        (2, 2, 7, 7),
        (3, 3, 6, 6),
        (3, 3, 8, 8),
        (6, 6, 8, 8),
    ]
    assert [rect.as_tuple() for rect, _ in pruned] == [(1, 1, 6, 6)]


def test_figure_5_file_size(paper_matrix):
    """'Five of the seven rectangles are points and one of them is a line,
    which requires only thirteen integers to be stored' — 5×2 + 1×3 = 13
    integers for the degenerate shapes (the one full rectangle adds 4)."""
    _, kept, _ = stage_rectangles(paper_matrix, order="identity")
    points = lines = full = 0
    for rect, _ in kept:
        if rect.x1 == rect.x2 and rect.y1 == rect.y2:
            points += 1
        elif rect.x1 == rect.x2 or rect.y1 == rect.y2:
            lines += 1
        else:
            full += 1
    assert (points, lines, full) == (5, 1, 1)
    assert 2 * points + 3 * lines == 13


def test_full_query_round_trip(paper_matrix):
    index = index_from_bytes(encode(paper_matrix, order="identity"))

    # Example 2: p4 does not point to o5 despite the graph path.
    assert O5 not in index.list_points_to(P4)
    assert sorted(index.list_points_to(P4)) == [O1, O2, O3, O4]

    # Case-1 pair (p4, p7) via o3; Case-2 pair (p1, p7) via o5.
    assert index.is_alias(P4, P7)
    assert index.is_alias(P1, P7)
    # Internal pair (p3, p4).
    assert index.is_alias(P3, P4)
    # Non-aliases.
    assert not index.is_alias(P5, P6)
    assert not index.is_alias(P2, P5)

    assert sorted(index.list_pointed_by(O5)) == [P1, P3, P7]
    assert sorted(index.list_aliases(P2)) == [P1, P3, P4]
    assert index.materialize() == paper_matrix
