"""Integration on real suite subjects: every backend, sampled queries.

The benchmark fixtures exercise this too, but the benches time things; this
is the pure correctness cut, on the two smallest subjects (one per analysis
family) so the whole module stays fast.
"""

import pytest

from repro.baselines.bitmap_persist import BitmapPersistence
from repro.baselines.demand import DemandDriven
from repro.bench.suite import get_subject
from repro.core.pipeline import encode, index_from_bytes

import io


@pytest.fixture(scope="module", params=["luindex", "postgreSQL"])
def loaded(request):
    subject = get_subject(request.param)
    matrix = subject.matrix
    pestrie = index_from_bytes(encode(matrix))
    mapped = index_from_bytes(encode(matrix, version=4))
    buffer = io.BytesIO()
    BitmapPersistence.encode(matrix, buffer)
    buffer.seek(0)
    bitp = BitmapPersistence.decode(buffer)
    demand = DemandDriven(matrix)
    return subject, matrix, pestrie, mapped, bitp, demand


def _sample(n, count=40):
    stride = max(1, n // count)
    return range(0, n, stride)


class TestSuiteBackendsAgree:
    def test_is_alias(self, loaded):
        _, matrix, pestrie, mapped, bitp, demand = loaded
        for p in _sample(matrix.n_pointers):
            for q in _sample(matrix.n_pointers):
                expected = matrix.is_alias(p, q)
                assert pestrie.is_alias(p, q) == expected, (p, q)
                assert mapped.is_alias(p, q) == expected, (p, q)
                assert bitp.is_alias(p, q) == expected, (p, q)
                assert demand.is_alias(p, q) == expected, (p, q)

    def test_list_queries(self, loaded):
        _, matrix, pestrie, mapped, bitp, _ = loaded
        for p in _sample(matrix.n_pointers):
            expected_pts = matrix.list_points_to(p)
            assert sorted(pestrie.list_points_to(p)) == expected_pts
            assert sorted(mapped.list_points_to(p)) == expected_pts
            assert bitp.list_points_to(p) == expected_pts
            expected_aliases = matrix.list_aliases(p)
            assert sorted(pestrie.list_aliases(p)) == expected_aliases
            assert sorted(mapped.list_aliases(p)) == expected_aliases
            assert bitp.list_aliases(p) == expected_aliases
        for obj in _sample(matrix.n_objects):
            expected = matrix.list_pointed_by(obj)
            assert sorted(pestrie.list_pointed_by(obj)) == expected
            assert sorted(mapped.list_pointed_by(obj)) == expected
            assert bitp.list_pointed_by(obj) == expected

    def test_round_trip(self, loaded):
        _, matrix, pestrie, _, _, _ = loaded
        assert pestrie.materialize() == matrix

    def test_base_pointers_are_queryable(self, loaded):
        subject, matrix, pestrie, _, _, _ = loaded
        for p in subject.base_pointers[:50]:
            pestrie.list_aliases(p)  # must not raise

    def test_compact_format_agrees(self, loaded):
        _, matrix, pestrie, _, _, _ = loaded
        compact = index_from_bytes(encode(matrix, compact=True))
        for p in _sample(matrix.n_pointers, count=20):
            assert compact.list_points_to(p) == pestrie.list_points_to(p)

    def test_bulk_pairs_match_pairwise(self, loaded):
        subject, matrix, pestrie, _, _, _ = loaded
        base = set(subject.base_pointers[:120])
        bulk = {
            pair for pair in pestrie.iter_alias_pairs()
            if pair[0] in base and pair[1] in base
        }
        pairwise = {
            (p, q)
            for p in base
            for q in base
            if p < q and matrix.is_alias(p, q)
        }
        assert bulk == pairwise
