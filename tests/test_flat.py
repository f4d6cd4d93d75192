"""The flat query engine: selection, parity, hostile input.

Three contracts around :class:`repro.core.flat.FlatIndex`:

* **Selection** — every public entry point returns the flat engine for
  every format; a ``PESTRIE1``–``PESTRIE3`` image derives the same columns a
  ``PESTRIE4`` image persists, half at a time, on first touch.
* **Parity** — every Table 1 answer from the mapped bytes equals the
  derived-column index over the same matrix and the matrix oracle,
  including the ``_pes_range`` boundary cases (single-PES file, an
  unpointed trailing PES, a pointer sitting exactly on the last origin
  break).
* **Hostile input** — corrupt bytes can never become a wrong answer: a flip
  anywhere in a flat section dies on the CRC at open, and a *forged* image
  (mutation + recomputed CRC) that breaks a search invariant dies with
  ``CorruptFileError`` at the first query.
"""

import gc
import struct
import threading
import tracemalloc

import pytest

from repro.core.decoder import (
    FLAT_SECTION_NAMES,
    CorruptFileError,
    decode_bytes,
    detect_format,
)
from repro.core.encoder import ABSENT, MAGIC_V4
from repro.core.flat import FlatIndex
from repro.core.ioutil import crc32
from repro.core.pipeline import encode, index_from_bytes, load_index
from repro.delta import DeltaLog, append_delta, load_overlay
from repro.delta.persist import compact_file
from repro.matrix.points_to import PointsToMatrix
from repro.serve import AliasService
from repro.store import Container, ContainerClosedError, open_index

from conftest import make_random_matrix

_V3_HEADER_END = 8 + 1 + 11 * 4 + 10 * 4
_SECTION = {name: i for i, name in enumerate(FLAT_SECTION_NAMES)}


def _write(tmp_path, name, data):
    path = str(tmp_path / name)
    with open(path, "wb") as stream:
        stream.write(data)
    return path


@pytest.fixture
def matrix():
    return make_random_matrix(18, 7, 0.3, seed=99)


@pytest.fixture
def v4_bytes(matrix):
    return encode(matrix, order="hub", version=4)


def _layout(data):
    """Flat section offsets/sizes plus the header facts forgeries need."""
    with Container.from_bytes(bytes(data)) as container:
        return {
            "offsets": list(container._flat_offsets),
            "sizes": list(container._flat_sizes),
            "n_pointers": container.n_pointers,
            "n_objects": container.n_objects,
            "n_groups": container.n_groups,
            "counts": tuple(container.flat_counts),
            "flat_start": container.flat_range[0],
        }


def _reforged(data, mutate):
    """Apply ``mutate`` to a copy and recompute the CRC trailer."""
    blob = bytearray(data)
    mutate(blob)
    struct.pack_into("<I", blob, len(blob) - 4, crc32(bytes(blob[:-4])))
    return bytes(blob)


def _set_word(blob, layout, section, word, value):
    offset = layout["offsets"][_SECTION[section]] + 4 * word
    struct.pack_into("<I", blob, offset, value)


def _get_word(data, layout, section, word):
    offset = layout["offsets"][_SECTION[section]] + 4 * word
    return struct.unpack_from("<I", data, offset)[0]


def _assert_matches_oracle(flat, eager, matrix):
    """Every Table 1 query: mapped v4 == derived v3 == brute-force matrix."""
    n = matrix.n_pointers
    pairs = [(p, q) for p in range(n) for q in range(n)]
    assert flat.is_alias_batch(pairs) == [matrix.is_alias(p, q) for p, q in pairs]
    for p in range(n):
        for q in range(n):
            assert flat.is_alias(p, q) == matrix.is_alias(p, q), (p, q)
        assert sorted(flat.list_points_to(p)) == matrix.list_points_to(p)
        assert sorted(flat.list_aliases(p)) == matrix.list_aliases(p)
        assert flat.pes_of(p) == eager.pes_of(p)
        assert flat.column_of(p) == eager.column_of(p)
        for obj in range(matrix.n_objects):
            assert flat.points_to_contains(p, obj) == (obj in matrix.rows[p])
    for obj in range(matrix.n_objects):
        assert sorted(flat.list_pointed_by(obj)) == matrix.list_pointed_by(obj)
    assert set(flat.iter_alias_pairs()) == set(eager.iter_alias_pairs())
    assert flat.materialize() == matrix


class TestSelection:
    def test_every_entry_point_returns_the_flat_engine(self, matrix, v4_bytes,
                                                       tmp_path):
        for data in (encode(matrix, order="hub", version=3), v4_bytes):
            path = _write(tmp_path, "image.pst", data)
            for index in (open_index(path), load_index(path, lazy=True),
                          index_from_bytes(data, lazy=True), load_index(path),
                          index_from_bytes(data)):
                assert isinstance(index, FlatIndex)
                assert index.materialize() == matrix
                index.close()

    def test_lazy_v3_open_derives_nothing_until_queried(self, matrix, tmp_path):
        path = _write(tmp_path, "image.pst", encode(matrix, order="hub", version=3))
        index = open_index(path)
        try:
            assert index._container.sections_materialized == 0
            index.pes_of(0)  # timestamp columns only
            assert index._container.sections_materialized == 2
            index.list_points_to(0)  # now the rectangle columns too
            assert index._container.sections_materialized == 10
        finally:
            index.close()

    def test_derived_columns_equal_the_persisted_ones(self, matrix, v4_bytes):
        """A v3 image's derived columns are byte-for-byte the v4 sections."""
        derived = index_from_bytes(encode(matrix, order="hub", version=3))
        mapped = index_from_bytes(v4_bytes, lazy=True)
        try:
            for name in FLAT_SECTION_NAMES:
                column = "_" + name
                assert (getattr(derived, column).tobytes()
                        == getattr(mapped, column).tobytes()), name
        finally:
            mapped.close()

    def test_lazy_v3_keeps_only_its_columns(self, tmp_path):
        """After its first list answer a lazy v3 index holds its derived
        columns and run table, not the container's parsed sections."""
        matrix = make_random_matrix(600, 120, 0.04, seed=3)
        path = _write(tmp_path, "image.pst", encode(matrix, order="hub", version=3))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            index = open_index(path)
            answer = index.list_aliases(0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        try:
            assert sorted(answer) == matrix.list_aliases(0)
            columns = index.memory_footprint() + index._run_starts.itemsize * (
                index.n_groups + 1)
            assert held <= columns + 64 * 1024, (held, columns)
            # The rectangles are re-read on demand.
            assert set(index.iter_alias_pairs()) == {
                (p, q) for p in range(matrix.n_pointers)
                for q in matrix.list_aliases(p) if p < q}
        finally:
            index.close()

    def test_eager_close_is_a_noop(self, matrix, v4_bytes):
        index = index_from_bytes(v4_bytes)
        index.close()
        assert index.materialize() == matrix

    def test_flat_accessors_rejected_on_v3(self, matrix, v4_bytes):
        data = encode(matrix, order="hub", version=3)
        with Container.from_bytes(data) as container:
            with pytest.raises(ValueError, match="PESTRIE4"):
                container.flat_view(0)
            with pytest.raises(ValueError, match="PESTRIE4"):
                container.flat_range
        with Container.from_bytes(v4_bytes) as container:
            with pytest.raises(IndexError):
                container.flat_view(len(FLAT_SECTION_NAMES))

    def test_v4_encoding_is_deterministic(self, matrix):
        first = encode(matrix, order="hub", version=4)
        second = encode(matrix, order="hub", version=4)
        assert first == second
        assert first[:8] == MAGIC_V4
        assert detect_format(first) == (4, False)


class TestParity:
    def test_random_matrix_all_queries(self, matrix, v4_bytes):
        eager = index_from_bytes(encode(matrix, order="hub", version=3))
        flat = index_from_bytes(v4_bytes, lazy=True)
        try:
            assert isinstance(flat, FlatIndex)
            _assert_matches_oracle(flat, eager, matrix)
        finally:
            flat.close()

    def test_paper_matrix(self, paper_matrix):
        eager = index_from_bytes(encode(paper_matrix, order="identity", version=3))
        flat = index_from_bytes(
            encode(paper_matrix, order="identity", version=4), lazy=True)
        try:
            _assert_matches_oracle(flat, eager, paper_matrix)
        finally:
            flat.close()

    def test_empty_and_untracked_pointers(self):
        matrix = PointsToMatrix(4, 3)
        matrix.add(1, 1)
        flat = index_from_bytes(encode(matrix, version=4), lazy=True)
        try:
            assert flat.pes_of(0) is None
            assert flat.column_of(0) is None
            assert not flat.is_alias(0, 1)
            assert flat.list_points_to(0) == []
            assert flat.list_aliases(0) == []
            assert flat.list_pointed_by(0) == []
        finally:
            flat.close()

    def test_memory_footprint_is_mapped_bytes_only(self, matrix, v4_bytes):
        flat = index_from_bytes(v4_bytes, lazy=True)
        try:
            footprint = flat.memory_footprint()
            assert 0 < footprint < len(v4_bytes)
        finally:
            flat.close()


class TestPesRangeBoundaries:
    """Satellite audit of ``_pes_range``: the block of the *last* PES.

    Both column sources derive a PES block's upper bound from the next origin
    timestamp; the last PES has none and must extend to ``n_groups - 1``.
    These matrices pin the three boundary shapes against the brute-force
    oracle for derived (v3) AND mapped (v4) columns.
    """

    def _check(self, matrix):
        eager = index_from_bytes(encode(matrix, order="hub", version=3))
        flat = index_from_bytes(encode(matrix, order="hub", version=4), lazy=True)
        try:
            _assert_matches_oracle(flat, eager, matrix)
        finally:
            flat.close()

    def test_single_pes_file(self):
        # Every pointer shares one row set -> exactly one PES; its block is
        # the entire timestamp range and every pair aliases.
        matrix = PointsToMatrix(5, 2)
        for p in range(5):
            matrix.add(p, 0)
            matrix.add(p, 1)
        self._check(matrix)

    def test_empty_trailing_pes(self):
        # The construction-order last object is pointed to by nobody else:
        # its PES block is the trailing range with a single member.
        matrix = PointsToMatrix(6, 3)
        for p in range(5):
            matrix.add(p, 0)
        matrix.add(5, 2)
        self._check(matrix)

    def test_pointer_on_last_origin_break(self):
        # A pointer whose timestamp lands exactly on the last origin break
        # must resolve into the last PES, not past it.
        matrix = PointsToMatrix(7, 4)
        for p in range(4):
            matrix.add(p, p % 2)
        matrix.add(4, 3)
        matrix.add(5, 3)
        matrix.add(6, 2)
        self._check(matrix)
        flat = index_from_bytes(encode(matrix, order="hub", version=4), lazy=True)
        try:
            # At least one tracked pointer sits on the *last* origin break
            # (the last PES is never empty), exercising the n_groups-1 arm.
            last_origin = max(flat._origin_ts)
            assert any(flat.column_of(p) == last_origin for p in range(7))
        finally:
            flat.close()


class TestCorruptionAtOpen:
    @pytest.mark.parametrize("section", FLAT_SECTION_NAMES)
    def test_bit_flip_in_each_flat_section_dies_on_crc(self, v4_bytes, section):
        layout = _layout(v4_bytes)
        index = _SECTION[section]
        size = layout["sizes"][index]
        assert size > 0, "fixture matrix must populate every flat section"
        blob = bytearray(v4_bytes)
        blob[layout["offsets"][index] + size // 2] ^= 0xFF
        with pytest.raises(CorruptFileError, match="checksum"):
            Container.from_bytes(bytes(blob))

    def test_nonzero_flags_byte_rejected(self, v4_bytes):
        forged = _reforged(v4_bytes, lambda blob: blob.__setitem__(8, 0x01))
        with pytest.raises(CorruptFileError, match="flags"):
            Container.from_bytes(forged)

    def test_truncation_inside_flat_region(self, v4_bytes):
        layout = _layout(v4_bytes)
        with pytest.raises(CorruptFileError):
            Container.from_bytes(v4_bytes[: layout["flat_start"] + 3])

    def test_spliced_entry_count_rejected(self, v4_bytes):
        def grow_entries(blob):
            count = struct.unpack_from("<I", blob, _V3_HEADER_END + 8)[0]
            struct.pack_into("<I", blob, _V3_HEADER_END + 8, count + 7)

        with pytest.raises(CorruptFileError):
            Container.from_bytes(_reforged(v4_bytes, grow_entries))

    def test_tracked_count_above_pointer_count_rejected(self, v4_bytes):
        layout = _layout(v4_bytes)

        def grow_tracked(blob):
            struct.pack_into("<I", blob, _V3_HEADER_END,
                             layout["n_pointers"] + 1)

        with pytest.raises(CorruptFileError, match="tracked"):
            Container.from_bytes(_reforged(v4_bytes, grow_tracked))


class TestForgedStructuralViolations:
    """Valid CRC, hostile tables: the first query must refuse, never lie."""

    def _forge_word(self, data, section, word, value):
        layout = _layout(data)
        return _reforged(
            data, lambda blob: _set_word(blob, layout, section, word, value))

    @pytest.mark.parametrize("section,word,value,match", [
        ("origin_obj", 0, 7, "origin_obj"),
        ("obj_rank", 0, 7, "obj_rank"),
        ("pes_rank", 0, 7, "pes_rank"),
        ("sorted_ptr_ts", 0, 0xFFFF0000, "unsorted"),
        ("sorted_ptr_id", 0, 18, "pointer id"),
        ("slab_offsets", 0, 1, "does not span"),
        ("slab_offsets", 1, 0x0FFFFFFF, "not monotone"),
        ("c1_offsets", 0, 1, "does not span"),
    ])
    def test_forged_table_fails_at_first_query(self, v4_bytes, section, word,
                                               value, match):
        forged = self._forge_word(v4_bytes, section, word, value)
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match=match):
                flat.is_alias(0, 1)
        finally:
            flat.close()

    def test_forged_origin_ts_not_increasing(self, v4_bytes):
        layout = _layout(v4_bytes)
        first = _get_word(v4_bytes, layout, "origin_ts", 0)
        forged = self._forge_word(v4_bytes, "origin_ts", 1, first)
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="strictly increasing"):
                flat.pes_of(0)
        finally:
            flat.close()

    def test_forged_origin_ts_outside_group_range(self, v4_bytes):
        layout = _layout(v4_bytes)
        forged = self._forge_word(
            v4_bytes, "origin_ts", layout["n_objects"] - 1, layout["n_groups"])
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="group range"):
                flat.pes_of(0)
        finally:
            flat.close()

    def test_forged_absent_pes_rank_for_tracked_pointer(self, v4_bytes):
        # A tracked pointer whose rank reads ABSENT used to reach
        # ``origin_obj[ABSENT]`` in list_points_to: an IndexError, which
        # callers cannot tell from a bad pointer id.
        layout = _layout(v4_bytes)
        tracked = next(p for p in range(layout["n_pointers"])
                       if _get_word(v4_bytes, layout, "pes_rank", p) != ABSENT)
        forged = self._forge_word(v4_bytes, "pes_rank", tracked, ABSENT)
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="tracked"):
                flat.list_points_to(tracked)
        finally:
            flat.close()

    def test_forged_pes_rank_for_untracked_pointer(self):
        matrix = PointsToMatrix(4, 3)
        matrix.add(1, 1)
        matrix.add(2, 2)
        data = encode(matrix, version=4)
        forged = self._forge_word(data, "pes_rank", 0, 0)
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="tracked"):
                flat.list_pointed_by(0)
        finally:
            flat.close()

    @pytest.mark.parametrize("section", ["ent_y2", "c1_x2"])
    @pytest.mark.parametrize("query", ["list_aliases", "list_pointed_by"])
    def test_forged_span_past_group_range_fails_at_first_list_query(
            self, v4_bytes, section, query):
        # Span ends index the run-start table; one past n_groups must be a
        # CorruptFileError at the table's build, never an IndexError.
        layout = _layout(v4_bytes)
        assert layout["counts"][2] and layout["counts"][3]  # entries, spans
        forged = self._forge_word(v4_bytes, section, 0, layout["n_groups"])
        flat = index_from_bytes(forged, lazy=True)
        try:
            flat.is_alias_batch([(0, 1)])  # is_alias never builds the table
            with pytest.raises(CorruptFileError, match="%s entry outside group"
                               % section):
                getattr(flat, query)(0)
        finally:
            flat.close()

    def test_forged_pointer_missing_from_its_timestamp_group(self, v4_bytes):
        layout = _layout(v4_bytes)
        slot = 0
        pointer = _get_word(v4_bytes, layout, "sorted_ptr_id", slot)
        stand_in = (pointer + 1) % layout["n_pointers"]
        forged = self._forge_word(v4_bytes, "sorted_ptr_id", slot, stand_in)
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="timestamp group"):
                flat.list_aliases(pointer)
        finally:
            flat.close()

    def test_forged_pointer_timestamp_past_group_range(self, v4_bytes):
        # The classic pointer timestamps are not range-checked at open; a
        # list query must still refuse one outside p's PES block cleanly.
        layout = _layout(v4_bytes)
        with Container.from_bytes(v4_bytes) as container:
            offset = container._section_offsets[0]
        pointer = next(p for p in range(layout["n_pointers"])
                       if _get_word(v4_bytes, layout, "pes_rank", p) != ABSENT)
        forged = _reforged(v4_bytes, lambda blob: struct.pack_into(
            "<I", blob, offset + 4 * pointer, layout["n_groups"] + 3))
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="timestamp group"):
                flat.list_aliases(pointer)
        finally:
            flat.close()

    def test_forged_slab_breaks_not_increasing(self, v4_bytes):
        layout = _layout(v4_bytes)
        first = _get_word(v4_bytes, layout, "slab_breaks", 0)
        forged = self._forge_word(v4_bytes, "slab_breaks", 1, first)
        flat = index_from_bytes(forged, lazy=True)
        try:
            with pytest.raises(CorruptFileError, match="slab breaks"):
                flat.is_alias(0, 1)
        finally:
            flat.close()


class TestLifetime:
    def test_queries_after_close_raise(self, v4_bytes):
        flat = index_from_bytes(v4_bytes, lazy=True)
        flat.close()
        flat.close()  # idempotent
        for access in (lambda: flat.is_alias(0, 1),
                       lambda: flat.list_points_to(0),
                       lambda: flat.list_pointed_by(0),
                       lambda: flat.pes_of(0),
                       flat.materialize):
            with pytest.raises(ContainerClosedError):
                access()

    def test_concurrent_queries_during_close_never_misanswer(self, matrix,
                                                             v4_bytes):
        # Hammer queries from two threads while the main thread closes; every
        # completed answer must be correct, every failure must be the clean
        # closed-index error.
        expected = {(p, q): matrix.is_alias(p, q)
                    for p in range(matrix.n_pointers)
                    for q in range(matrix.n_pointers)}
        flat = index_from_bytes(v4_bytes, lazy=True)
        failures = []

        def worker():
            try:
                for (p, q), want in expected.items():
                    if flat.is_alias(p, q) != want:
                        failures.append((p, q))
            except (ContainerClosedError, ValueError):
                pass  # closed mid-stream: clean refusal, not a wrong answer

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        flat.close()
        for thread in threads:
            thread.join(10)
        assert not failures


class TestCloseRaceRegression:
    def test_close_waits_for_in_flight_derivation(self, matrix, tmp_path):
        """close() vs a lazy v3 first touch: the close must block.

        The query thread stalls inside the column derivation
        (container.timestamps is patched to wait); a close racing in must
        not release the container underneath it, or the query would die
        with ContainerClosedError instead of answering.  With close()
        honouring the index lock it waits for the derivation, and the
        answer matches the eager index.
        """
        data = encode(matrix, order="hub", version=3)
        path = _write(tmp_path, "image.pst", data)
        expected = index_from_bytes(data).list_aliases(0)

        index = load_index(path, lazy=True)
        container = index._container
        build_started = threading.Event()
        release_build = threading.Event()
        original_timestamps = container.timestamps

        def stalled_timestamps():
            build_started.set()
            release_build.wait(10)
            return original_timestamps()

        container.timestamps = stalled_timestamps
        outcome = {}

        def query():
            try:
                outcome["answer"] = index.list_aliases(0)
            except Exception as error:  # noqa: BLE001 - recorded for the assert
                outcome["error"] = error

        query_thread = threading.Thread(target=query)
        query_thread.start()
        assert build_started.wait(10)
        closer = threading.Thread(target=index.close)
        closer.start()
        # The close must now be parked on the index lock; let the build run.
        release_build.set()
        query_thread.join(10)
        closer.join(10)
        assert outcome.get("error") is None, outcome["error"]
        assert outcome["answer"] == expected
        assert container.closed


class TestFromBytesCopySemantics:
    def test_bytes_input_is_wrapped_zero_copy(self, v4_bytes):
        container = Container.from_bytes(v4_bytes, allow_tail=False)
        view = container.buffer
        assert view.obj is v4_bytes
        view.release()
        container.close()

    def test_readonly_memoryview_input_is_not_copied(self, v4_bytes):
        source = memoryview(v4_bytes)
        container = Container.from_bytes(source, allow_tail=False)
        view = container.buffer
        assert view.obj is v4_bytes
        view.release()
        container.close()
        source.release()

    def test_writable_input_is_snapshotted(self, v4_bytes):
        source = bytearray(v4_bytes)
        container = Container.from_bytes(source, allow_tail=False)
        view = container.buffer
        assert view.obj is not source
        view.release()
        # Corrupting the caller's buffer after open must not reach the
        # container: the snapshot still decodes to the original payload.
        source[len(source) // 2] ^= 0xFF
        assert container.payload() == decode_bytes(v4_bytes)
        container.close()

    def test_writable_memoryview_input_is_snapshotted(self, v4_bytes):
        source = bytearray(v4_bytes)
        with Container.from_bytes(memoryview(source), allow_tail=False) as c:
            source[9] ^= 0xFF
            assert c.payload() == decode_bytes(v4_bytes)


class TestDeltaOverFlatBase:
    def test_overlay_composes_over_flat_base(self, matrix, v4_bytes, tmp_path):
        path = _write(tmp_path, "tailed.pst", v4_bytes)
        log = DeltaLog()
        log.insert(0, matrix.n_objects - 1)
        log.delete(1, next(iter(matrix.rows[1]), 0))
        append_delta(path, log)
        overlay = load_overlay(path, lazy=True)
        try:
            assert isinstance(overlay.base, FlatIndex)
            edited = overlay.materialize()
            eager = load_overlay(path).materialize()
            assert edited == eager
        finally:
            overlay.base.close()

    def test_compact_file_preserves_v4(self, matrix, v4_bytes, tmp_path):
        path = _write(tmp_path, "tailed.pst", v4_bytes)
        log = DeltaLog()
        log.insert(2, 0)
        append_delta(path, log)
        compact_file(path)
        with open(path, "rb") as stream:
            assert stream.read(8) == MAGIC_V4
        index = open_index(path)
        assert isinstance(index, FlatIndex)
        assert index.points_to_contains(2, 0)
        index.close()

    def test_auto_compaction_preserves_v4(self, v4_bytes, tmp_path):
        path = _write(tmp_path, "auto.pst", v4_bytes)
        log = DeltaLog()
        log.insert(0, 0)
        result = append_delta(path, log, auto_compact_ratio=1e-9)
        assert result.compacted
        with open(path, "rb") as stream:
            assert stream.read(8) == MAGIC_V4


class TestFlatService:
    def test_lazy_v4_service_matches_eager(self, matrix, v4_bytes, tmp_path):
        # A delta-tailed PESTRIE4 file: the service fronts an overlay whose
        # base is the mapped flat index.
        path = _write(tmp_path, "tailed.pst", v4_bytes)
        log = DeltaLog()
        log.insert(0, matrix.n_objects - 1)
        append_delta(path, log)
        eager = AliasService.from_files([path])
        # No cache, so the query after close reaches the unmapped index.
        lazy = AliasService.from_files([path], lazy=True, cache_size=0)
        assert isinstance(lazy.backend.base, FlatIndex)
        try:
            for p in range(matrix.n_pointers):
                for q in range(matrix.n_pointers):
                    assert lazy.is_alias(p, q) == eager.is_alias(p, q)
        finally:
            lazy.close()
        with pytest.raises(ContainerClosedError):
            lazy.is_alias(0, 1)
