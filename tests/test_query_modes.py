"""Table 7's query-memory trade: the ptList columns vs one segment tree.

:class:`~repro.core.segment_tree.SegmentIndex` is not a serving engine; it
exists so the ablation bench can measure what the paper's per-column lists
cost against a structure that stores every rectangle once.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.synthetic import SyntheticSpec, synthesize
from repro.core.decoder import decode_bytes
from repro.core.pipeline import encode, index_from_bytes
from repro.core.segment_tree import SegmentIndex

from conftest import matrices


class TestSegmentIndex:
    @settings(max_examples=60)
    @given(matrices(), st.sampled_from(["hub", "identity", "random"]))
    def test_is_alias_matches_oracle(self, matrix, order):
        segment = SegmentIndex(decode_bytes(encode(matrix, order=order, seed=3)))
        for p in range(matrix.n_pointers):
            for q in range(matrix.n_pointers):
                assert segment.is_alias(p, q) == matrix.is_alias(p, q), (p, q)

    def test_memory_trade_on_synthetic(self):
        """On a hub-structured matrix (wide rectangles) the segment tree
        stores no more rectangle entries than the ptList slabs do."""
        matrix = synthesize(SyntheticSpec(n_pointers=600, n_objects=150, seed=21))
        data = encode(matrix)
        flat = index_from_bytes(data)
        segment = SegmentIndex(decode_bytes(data))
        assert segment.stored_entries() == len(decode_bytes(data).rects)
        assert segment.stored_entries() <= flat.stored_entries()
        for p in range(0, 600, 37):
            for q in range(0, 600, 41):
                assert segment.is_alias(p, q) == flat.is_alias(p, q)

    def test_segment_index_guards(self, paper_matrix):
        segment = SegmentIndex(decode_bytes(encode(paper_matrix)))
        assert segment.memory_footprint() > 0
        with pytest.raises(IndexError):
            segment.is_alias(0, 99)
