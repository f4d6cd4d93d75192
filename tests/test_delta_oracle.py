"""Differential oracle for the delta overlay: overlay ≡ full rebuild.

The single invariant under test: for any base matrix and any edit script,
an :class:`OverlayIndex` over the *base* encoding answers all four Table 1
queries identically to a :class:`FlatIndex` built from a *full
re-encode* of the edited matrix.  Hypothesis explores (matrix, script)
space adversarially; a deterministic seeded sweep adds volume (the two
together exceed 500 generated cases per run); dedicated tests pin the
compaction boundary and the degenerate scripts Hypothesis tends to shrink
away from.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_random_matrix, matrices
from repro.core.pipeline import encode, index_from_bytes, load_index, persist
from repro.delta import (
    DEFAULT_COMPACTION_RATIO,
    DeltaLog,
    OverlayIndex,
    append_delta,
    compact_file,
    load_overlay,
    overlay_from_bytes,
    split_image,
)
from repro.matrix.points_to import PointsToMatrix

# ----------------------------------------------------------------------
# Script generation and the oracle itself
# ----------------------------------------------------------------------


@st.composite
def edit_scripts(draw, matrix: PointsToMatrix, max_ops: int = 24):
    """A random insert/delete script over ``matrix``'s id space."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from("+-"),
                st.integers(min_value=0, max_value=matrix.n_pointers - 1),
                st.integers(min_value=0, max_value=matrix.n_objects - 1),
            ),
            max_size=max_ops,
        )
    )
    return DeltaLog(ops)


@st.composite
def matrices_with_scripts(draw):
    matrix = draw(matrices())
    log = draw(edit_scripts(matrix))
    return matrix, log


def apply_script(matrix: PointsToMatrix, log: DeltaLog) -> PointsToMatrix:
    """The reference semantics: replay the script on a copy of the matrix."""
    edited = copy.deepcopy(matrix)
    for op, pointer, obj in log:
        if op == "+":
            edited.add(pointer, obj)
        else:
            edited.rows[pointer].discard(obj)
    return edited


def random_script(rng: random.Random, matrix: PointsToMatrix, n_ops: int) -> DeltaLog:
    log = DeltaLog()
    for _ in range(n_ops):
        pointer = rng.randrange(matrix.n_pointers)
        obj = rng.randrange(matrix.n_objects)
        if rng.random() < 0.5:
            log.insert(pointer, obj)
        else:
            log.delete(pointer, obj)
    return log


def assert_table1_equivalent(overlay, oracle, n_pointers: int, n_objects: int) -> None:
    """All four Table 1 queries agree between ``overlay`` and ``oracle``."""
    pairs = [(p, q) for p in range(n_pointers) for q in range(p, n_pointers)]
    for p, q in pairs:
        assert overlay.is_alias(p, q) == oracle.is_alias(p, q), (
            "is_alias(%d, %d)" % (p, q)
        )
    assert overlay.is_alias_batch(pairs) == [oracle.is_alias(p, q) for p, q in pairs]
    for p in range(n_pointers):
        assert set(overlay.list_points_to(p)) == set(oracle.list_points_to(p)), (
            "list_points_to(%d)" % p
        )
        assert set(overlay.list_aliases(p)) == set(oracle.list_aliases(p)), (
            "list_aliases(%d)" % p
        )
    for obj in range(n_objects):
        assert set(overlay.list_pointed_by(obj)) == set(oracle.list_pointed_by(obj)), (
            "list_pointed_by(%d)" % obj
        )


def check_case(matrix: PointsToMatrix, log: DeltaLog, order: str = "hub",
               compact: bool = False) -> None:
    base = index_from_bytes(encode(matrix, order=order, compact=compact))
    overlay = OverlayIndex(base, log)
    edited = apply_script(matrix, log)
    oracle = index_from_bytes(encode(edited, order=order))
    assert_table1_equivalent(overlay, oracle, matrix.n_pointers, matrix.n_objects)
    assert overlay.materialize() == edited


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------


class TestOverlayOracle:
    @settings(max_examples=150)
    @given(matrices_with_scripts(), st.sampled_from(["hub", "identity", "random"]))
    def test_overlay_equals_full_rebuild(self, case, order):
        matrix, log = case
        check_case(matrix, log, order=order, compact=len(log) % 2 == 0)

    @settings(max_examples=50)
    @given(matrices_with_scripts(), matrices_with_scripts())
    def test_extend_composes_like_concatenation(self, first, second):
        """extend(log2) over (base, log1) ≡ one overlay over log1 + log2."""
        matrix, log1 = first
        _, raw2 = second
        # Rebind the second script into the first matrix's id space.
        log2 = DeltaLog(
            (op, p % matrix.n_pointers, o % matrix.n_objects) for op, p, o in raw2
        )
        base = index_from_bytes(encode(matrix))
        stacked = OverlayIndex(base, log1).extend(log2)
        flat = OverlayIndex(base, DeltaLog(tuple(log1) + tuple(log2)))
        assert stacked.materialize() == flat.materialize()
        assert stacked.net_delta() == flat.net_delta()

    def test_seeded_sweep(self):
        """Volume: 420 deterministic (matrix, script) cases beyond Hypothesis."""
        checked = 0
        for seed in range(140):
            rng = random.Random("delta-oracle-%d" % seed)
            n_pointers = rng.randint(1, 18)
            n_objects = rng.randint(1, 9)
            matrix = make_random_matrix(
                n_pointers, n_objects,
                density=rng.choice((0.0, 0.1, 0.3, 0.6)), seed=seed,
            )
            for n_ops in (1, rng.randint(2, 10), rng.randint(11, 40)):
                log = random_script(rng, matrix, n_ops)
                check_case(matrix, log, compact=bool(seed % 2))
                checked += 1
        assert checked == 420


class TestDegenerateDeltas:
    def test_empty_log_is_transparent(self):
        matrix = make_random_matrix(12, 6, density=0.3, seed=1)
        base = index_from_bytes(encode(matrix))
        overlay = OverlayIndex(base, DeltaLog())
        assert overlay.delta_size() == 0
        assert not overlay.dirty_pointers()
        assert_table1_equivalent(overlay, base, 12, 6)

    def test_noop_edits_leave_no_delta(self):
        """Inserting present facts / deleting absent ones normalises away."""
        matrix = make_random_matrix(10, 5, density=0.4, seed=2)
        log = DeltaLog()
        present = [(p, o) for p in range(10) for o in matrix.rows[p]]
        for pointer, obj in present[:5]:
            log.insert(pointer, obj)
        absent = [(p, o) for p in range(10) for o in range(5) if o not in matrix.rows[p]]
        for pointer, obj in absent[:5]:
            log.delete(pointer, obj)
        overlay = OverlayIndex(index_from_bytes(encode(matrix)), log)
        assert overlay.delta_size() == 0
        assert overlay.materialize() == matrix

    def test_insert_then_delete_cancels(self):
        matrix = make_random_matrix(8, 4, density=0.2, seed=3)
        log = DeltaLog().insert(0, 0).delete(0, 0)
        overlay = OverlayIndex(index_from_bytes(encode(matrix)), log)
        assert overlay.materialize() == apply_script(matrix, log)

    def test_delete_everything(self):
        matrix = make_random_matrix(8, 4, density=0.5, seed=4)
        log = DeltaLog()
        for pointer in range(8):
            for obj in list(matrix.rows[pointer]):
                log.delete(pointer, obj)
        overlay = OverlayIndex(index_from_bytes(encode(matrix)), log)
        oracle = index_from_bytes(encode(apply_script(matrix, log)))
        assert_table1_equivalent(overlay, oracle, 8, 4)
        for p in range(8):
            for q in range(8):
                assert not overlay.is_alias(p, q)

    def test_out_of_range_edit_rejected(self):
        matrix = make_random_matrix(4, 3, density=0.3, seed=5)
        base = index_from_bytes(encode(matrix))
        with pytest.raises(IndexError):
            OverlayIndex(base, DeltaLog().insert(4, 0))
        with pytest.raises(IndexError):
            OverlayIndex(base, DeltaLog().delete(0, 3))


class TestFileRoundTrip:
    """The durable path: append to a real file, load, compare to the oracle."""

    @settings(max_examples=40)
    @given(matrices_with_scripts())
    def test_bytes_round_trip(self, case):
        matrix, log = case
        data = encode(matrix, compact=True)
        inserts, deletes = log.net()
        if not inserts and not deletes:
            base, tail = split_image(data)
            assert tail == b""
            return
        from repro.delta import encode_record

        image = data + encode_record(inserts, deletes, compact=True)
        overlay = overlay_from_bytes(image)
        oracle = index_from_bytes(encode(apply_script(matrix, log)))
        assert_table1_equivalent(overlay, oracle, matrix.n_pointers, matrix.n_objects)

    def test_append_load_query(self, tmp_path):
        matrix = make_random_matrix(20, 8, density=0.2, seed=6)
        path = str(tmp_path / "facts.pestrie")
        persist(matrix, path)
        rng = random.Random(6)
        edited = matrix
        for round_number in range(3):  # three appends stack three records
            log = random_script(rng, edited, 6)
            result = append_delta(path, log)
            assert result.record_count == round_number + 1
            assert result.bytes_appended > 0
            edited = apply_script(edited, log)
        overlay = load_overlay(path)
        oracle = index_from_bytes(encode(edited))
        assert_table1_equivalent(overlay, oracle, 20, 8)
        # decode_bytes must refuse the delta-bearing image rather than
        # silently serving pre-update answers.
        from repro.core.decoder import CorruptFileError, decode_bytes

        with open(path, "rb") as stream:
            image = stream.read()
        with pytest.raises(CorruptFileError):
            decode_bytes(image)
        # Compacting folds the chain into a fresh base, leaving only the
        # epoch watermark record behind (so as_of on folded versions fails
        # loudly instead of answering wrongly).
        compact_file(path)
        compacted = load_overlay(path)
        assert compacted.materialize() == edited
        assert compacted.delta_size() == 0
        from repro.delta import VersionUnavailableError, load_versions

        versioned = load_versions(path)
        assert versioned.floor == versioned.head == 3
        with pytest.raises(VersionUnavailableError):
            versioned.as_of(2)

    def test_net_empty_log_appends_nothing(self, tmp_path):
        matrix = make_random_matrix(6, 3, density=0.3, seed=7)
        path = str(tmp_path / "facts.pestrie")
        size = persist(matrix, path)
        result = append_delta(path, DeltaLog())
        assert result.bytes_appended == 0
        assert result.file_size == size
        # insert-then-delete is NOT net-empty: the last op wins, so it nets
        # to one delete record (which normalises away only at overlay time).
        result = append_delta(path, DeltaLog().insert(0, 0).delete(0, 0))
        assert result.record_count == 1
        overlay = load_overlay(path)
        assert overlay.materialize() == matrix


class TestCompactionBoundary:
    def test_needs_compaction_threshold_is_strict(self):
        """Exactly at the ratio: no compaction; one fact beyond: compaction."""
        matrix = PointsToMatrix.from_pairs(10, 2, [(p, 0) for p in range(10)])
        base = index_from_bytes(encode(matrix))  # 10 facts
        at_ratio = OverlayIndex(base, DeltaLog.inserting([(0, 1), (1, 1)]))
        assert at_ratio.delta_ratio() == pytest.approx(0.2)
        assert not at_ratio.needs_compaction(0.2)
        beyond = at_ratio.extend(DeltaLog.inserting([(2, 1)]))
        assert beyond.needs_compaction(0.2)
        assert at_ratio.needs_compaction(0.1)
        assert not at_ratio.needs_compaction(DEFAULT_COMPACTION_RATIO)

    def test_auto_compact_triggers_and_preserves_answers(self, tmp_path):
        matrix = make_random_matrix(15, 6, density=0.3, seed=8)
        path = str(tmp_path / "facts.pestrie")
        persist(matrix, path)
        edited = matrix
        rng = random.Random(8)
        compacted_rounds = []
        for round_number in range(6):
            log = random_script(rng, edited, 4)
            if log.is_no_op():
                continue
            result = append_delta(path, log, auto_compact_ratio=0.15)
            edited = apply_script(edited, log)
            if result.compacted:
                compacted_rounds.append(round_number)
                assert result.record_count == 0
            overlay = load_overlay(path)
            assert overlay.materialize() == edited
        assert compacted_rounds, "threshold 0.15 never tripped in 6 rounds"

    def test_queries_identical_across_the_boundary(self, tmp_path):
        """The same logical state answers identically pre- and post-compaction."""
        matrix = make_random_matrix(14, 7, density=0.25, seed=9)
        path = str(tmp_path / "facts.pestrie")
        persist(matrix, path)
        log = random_script(random.Random(9), matrix, 12)
        append_delta(path, log)
        before = load_overlay(path)
        compact_file(path)
        after = load_overlay(path)
        assert after.delta_size() == 0
        assert_table1_equivalent(before, after, 14, 7)
        assert before.materialize() == after.materialize()


class TestFlatBaseOracle:
    """The same differential oracle over a zero-copy ``PESTRIE4`` base.

    Pins the ``_pes_range`` boundary shapes both engines share: a
    single-PES file (one origin break, the block spans every timestamp),
    an empty trailing PES (the construction-order last object has no other
    members), and pointers landing exactly on the last origin break (the
    ``n_groups - 1`` upper-bound arm).  Scripts deliberately edit facts in
    the last PES so the overlay exercises the boundary too.
    """

    def _check_flat(self, matrix: PointsToMatrix, log: DeltaLog) -> None:
        base = index_from_bytes(encode(matrix, version=4), lazy=True)
        try:
            overlay = OverlayIndex(base, log)
            edited = apply_script(matrix, log)
            oracle = index_from_bytes(encode(edited))
            assert_table1_equivalent(
                overlay, oracle, matrix.n_pointers, matrix.n_objects)
            assert overlay.materialize() == edited
        finally:
            base.close()

    def test_single_pes_base(self):
        matrix = PointsToMatrix(5, 2)
        for p in range(5):
            matrix.add(p, 0)
            matrix.add(p, 1)
        self._check_flat(matrix, DeltaLog().delete(4, 1).insert(0, 0))

    def test_empty_trailing_pes(self):
        matrix = PointsToMatrix(6, 3)
        for p in range(5):
            matrix.add(p, 0)
        matrix.add(5, 2)
        self._check_flat(matrix, DeltaLog().insert(0, 2).delete(5, 2))

    def test_edits_on_last_origin_break(self):
        matrix = PointsToMatrix(7, 4)
        for p in range(4):
            matrix.add(p, p % 2)
        matrix.add(4, 3)
        matrix.add(5, 3)
        matrix.add(6, 2)
        self._check_flat(matrix, DeltaLog().insert(6, 3).delete(4, 3))

    def test_seeded_sweep_over_flat_bases(self):
        checked = 0
        for seed in range(30):
            rng = random.Random("flat-oracle-%d" % seed)
            matrix = make_random_matrix(
                rng.randint(1, 14), rng.randint(1, 7),
                density=rng.choice((0.0, 0.2, 0.5)), seed=seed)
            log = random_script(rng, matrix, rng.randint(1, 12))
            self._check_flat(matrix, log)
            checked += 1
        assert checked == 30


# ----------------------------------------------------------------------
# The clean-pointer fast path and structure sharing, over every base
# engine: eager v3, lazy v3, and the zero-copy flat v4 index.
# ----------------------------------------------------------------------

BASE_KINDS = {
    "eager": lambda matrix: index_from_bytes(encode(matrix)),
    "lazy-v3": lambda matrix: index_from_bytes(encode(matrix, version=3), lazy=True),
    "flat": lambda matrix: index_from_bytes(encode(matrix, version=4), lazy=True),
}


@pytest.fixture(params=sorted(BASE_KINDS))
def make_base(request):
    """A base-index factory for one engine; closes what it opened."""
    opened = []

    def build(matrix: PointsToMatrix):
        base = BASE_KINDS[request.param](matrix)
        opened.append(base)
        return base

    yield build
    for base in opened:
        close = getattr(base, "close", None)
        if close is not None:
            close()


def table1_answers(index, n_pointers: int, n_objects: int):
    """Every Table 1 answer of ``index``, list answers as sets."""
    return (
        [[index.is_alias(p, q) for q in range(n_pointers)] for p in range(n_pointers)],
        [set(index.list_points_to(p)) for p in range(n_pointers)],
        [set(index.list_aliases(p)) for p in range(n_pointers)],
        [set(index.list_pointed_by(o)) for o in range(n_objects)],
    )


class CountingBase:
    """Delegates to a real base, counting ``list_aliases`` calls."""

    def __init__(self, base):
        self._base = base
        self.list_aliases_calls = 0

    def list_aliases(self, p):
        self.list_aliases_calls += 1
        return self._base.list_aliases(p)

    def __getattr__(self, name):
        return getattr(self._base, name)


class TestCleanPointerPath:
    def test_dirty_pointers_gain_and_lose_a_clean_alias(self, make_base):
        # Pointer 0 stays clean.  1 loses its shared object, 2 gains one,
        # 3 stays an alias through a second object, 4 stays unrelated, and
        # 5 is a clean alias throughout.
        matrix = PointsToMatrix.from_rows(
            [[0], [0], [1], [0, 2], [3], [0]], 4)
        log = DeltaLog().delete(1, 0).insert(2, 0).delete(3, 2).insert(4, 1)
        overlay = OverlayIndex(make_base(matrix), log)
        assert 0 not in overlay.dirty_pointers()
        assert set(overlay.list_aliases(0)) == {2, 3, 5}
        assert [overlay.is_alias(0, q) for q in range(6)] == [
            True, False, True, True, False, True]
        oracle = index_from_bytes(encode(apply_script(matrix, log)))
        assert_table1_equivalent(overlay, oracle, 6, 4)

    def test_extend_leaves_the_older_generation_intact(self, make_base):
        matrix = make_random_matrix(12, 6, density=0.35, seed=31)
        rng = random.Random(31)
        log1 = random_script(rng, matrix, 14)
        g1 = OverlayIndex(make_base(matrix), log1)
        before = table1_answers(g1, 12, 6)
        net_before = g1.net_delta()
        size_before = g1.delta_size()
        # log2 revisits exactly the facts log1 touched, flipping each op,
        # plus one fresh fact on every touched pointer.
        log2 = DeltaLog()
        for op, pointer, obj in log1:
            if op == "+":
                log2.delete(pointer, obj)
            else:
                log2.insert(pointer, obj)
            log2.insert(pointer, (obj + 1) % 6)
        g2 = g1.extend(log2)
        assert table1_answers(g1, 12, 6) == before
        assert g1.net_delta() == net_before
        assert g1.delta_size() == size_before
        edited = apply_script(apply_script(matrix, log1), log2)
        oracle = index_from_bytes(encode(edited))
        assert_table1_equivalent(g2, oracle, 12, 6)
        inserts, deletes = g2.net_delta()
        assert g2.delta_size() == len(inserts) + len(deletes)
        # Rows a later log does not touch are shared, not copied.
        dirty = sorted(g1.dirty_pointers())
        assert len(dirty) >= 2
        g3 = g1.extend(DeltaLog().delete(dirty[0], 0))
        for pointer in dirty[1:]:
            for table in ("inserted", "deleted"):
                row = getattr(g1._state, table).get(pointer)
                if row is not None:
                    assert getattr(g3._state, table)[pointer] is row

    @pytest.mark.parametrize("edited", [False, True])
    def test_out_of_range_ids_raise(self, make_base, edited):
        matrix = make_random_matrix(7, 4, density=0.4, seed=32)
        log = DeltaLog().insert(1, 2).delete(3, 0) if edited else DeltaLog()
        overlay = OverlayIndex(make_base(matrix), log)
        assert (overlay.delta_size() == 0) is not edited
        for p, q in ((7, 0), (0, 7), (-1, 1), (1, -1)):
            with pytest.raises(IndexError):
                overlay.is_alias(p, q)
            with pytest.raises(IndexError):
                overlay.is_alias_batch([(0, 0), (p, q)])
        for bad in (7, -1):
            with pytest.raises(IndexError):
                overlay.list_points_to(bad)
            with pytest.raises(IndexError):
                overlay.list_aliases(bad)
        for bad in (4, -1):
            with pytest.raises(IndexError):
                overlay.list_pointed_by(bad)

    def test_clean_pointer_confirms_only_dirty_pointers(self, make_base):
        matrix = make_random_matrix(30, 8, density=0.3, seed=33)
        base = CountingBase(make_base(matrix))
        for log in (DeltaLog(), random_script(random.Random(33), matrix, 9)):
            overlay = OverlayIndex(base, log)
            dirty = overlay.dirty_pointers()
            confirmations = []
            is_alias = overlay.is_alias

            def counting_is_alias(p, q):
                confirmations.append((p, q))
                return is_alias(p, q)

            overlay.is_alias = counting_is_alias
            for p in range(30):
                if p in dirty:
                    continue
                base.list_aliases_calls = 0
                del confirmations[:]
                overlay.list_aliases(p)
                assert base.list_aliases_calls == 1
                assert len(confirmations) <= len(dirty)
                assert {q for _, q in confirmations} <= dirty
