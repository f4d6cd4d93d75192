"""Persistent file format: byte layout, round trips, error handling."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zlib

from repro.core.builder import build_pestrie
from repro.core.decoder import CorruptFileError, decode_bytes, detect_format, load_payload
from repro.core.encoder import (
    ABSENT,
    FLAG_COMPACT,
    MAGIC_COMPACT,
    MAGIC_RAW,
    MAGIC_V3,
    _write_varint,
    object_timestamps,
    pointer_timestamps,
)
from repro.core.intervals import assign_intervals
from repro.core.pipeline import persist
from repro.core.stages import run_pipeline
from repro.matrix.points_to import PointsToMatrix

from conftest import matrices, stage_rectangles


def _encode(matrix, order="identity", compact=False, version=3):
    """The kept ``(Rect, case1)`` rectangles and the encoded bytes."""
    _, kept, _ = stage_rectangles(matrix, order=order)
    return kept, run_pipeline(matrix, order=order, compact=compact, version=version)


class TestTimestampTables:
    def test_paper_example_tables(self, paper_matrix):
        pestrie = build_pestrie(paper_matrix, order="identity")
        assign_intervals(pestrie)
        # Table 5, read back per pointer (p1..p7) and object (o1..o5).
        assert pointer_timestamps(pestrie) == [3, 0, 1, 2, 7, 4, 6]
        assert object_timestamps(pestrie) == [0, 4, 5, 7, 8]

    def test_absent_pointer_sentinel(self):
        matrix = PointsToMatrix(2, 1)
        matrix.add(0, 0)
        pestrie = build_pestrie(matrix)
        assign_intervals(pestrie)
        stamps = pointer_timestamps(pestrie)
        assert stamps[1] == ABSENT


class TestByteLayout:
    def test_magic(self, paper_matrix):
        _, raw = _encode(paper_matrix, version=1)
        assert raw.startswith(MAGIC_RAW)
        _, compact = _encode(paper_matrix, compact=True, version=2)
        assert compact.startswith(MAGIC_COMPACT)
        _, v3 = _encode(paper_matrix, version=3)
        assert v3.startswith(MAGIC_V3)

    def test_header_counts(self, paper_matrix):
        kept, raw = _encode(paper_matrix, version=1)
        header = struct.unpack_from("<11I", raw, 8)
        n_pointers, n_objects, n_groups = header[:3]
        assert (n_pointers, n_objects, n_groups) == (7, 5, 9)
        shape_counts = header[3:]
        # Figure 4: 5 of 7 rectangles are points, 1 is a line, 1 is a rect.
        assert sum(shape_counts) == 7
        # point counts: case1 + case2
        assert shape_counts[0] + shape_counts[1] == 5

    def test_deterministic_output(self, paper_matrix):
        for version in (1, 3):
            _, first = _encode(paper_matrix, version=version)
            _, second = _encode(paper_matrix, version=version)
            assert first == second

    def test_compact_smaller_than_raw(self):
        matrix = PointsToMatrix.from_pairs(
            60, 20, [(p, (p * 7 + o) % 20) for p in range(60) for o in range(4)]
        )
        for version in (None, 3):
            kwargs = {} if version is None else {"version": version}
            _, raw = _encode(matrix, **kwargs)
            _, compact = _encode(matrix, compact=True, **kwargs)
            assert len(compact) < len(raw)

    def test_raw_size_formula(self, paper_matrix):
        """magic + 11 header ints + (7+5) timestamps + shape payloads."""
        kept, raw = _encode(paper_matrix, version=1)
        points = sum(1 for rect, _ in kept
                     if rect.x1 == rect.x2 and rect.y1 == rect.y2)
        lines = sum(1 for rect, _ in kept
                    if (rect.x1 == rect.x2) != (rect.y1 == rect.y2))
        full = len(kept) - points - lines
        expected = 8 + 4 * (11 + 12 + 2 * points + 3 * lines + 4 * full)
        assert len(raw) == expected


class TestV3Layout:
    def test_structure(self, paper_matrix):
        """magic, flags, header, 10 section lengths, payload, CRC trailer."""
        _, data = _encode(paper_matrix, version=3)
        assert data[:8] == MAGIC_V3
        assert data[8] == 0  # raw coding, no flags
        header = struct.unpack_from("<11I", data, 9)
        assert header[:3] == (7, 5, 9)
        lengths = struct.unpack_from("<10I", data, 9 + 11 * 4)
        payload_start = 8 + 1 + 11 * 4 + 10 * 4
        assert payload_start + sum(lengths) + 4 == len(data)
        # Raw sections are exactly 4 bytes per stored integer.
        assert lengths[0] == 4 * header[0]
        assert lengths[1] == 4 * header[1]

    def test_compact_flag(self, paper_matrix):
        _, data = _encode(paper_matrix, compact=True, version=3)
        assert data[8] == FLAG_COMPACT
        assert detect_format(data) == (3, True)

    def test_crc_trailer(self, paper_matrix):
        _, data = _encode(paper_matrix, version=3)
        stored = struct.unpack_from("<I", data, len(data) - 4)[0]
        assert stored == (zlib.crc32(data[:-4]) & 0xFFFFFFFF)

    def test_same_payload_as_legacy(self, paper_matrix):
        """All three versions decode to the identical payload."""
        _, v1 = _encode(paper_matrix, version=1)
        _, v2 = _encode(paper_matrix, compact=True, version=2)
        _, v3 = _encode(paper_matrix, version=3)
        _, v3c = _encode(paper_matrix, compact=True, version=3)
        reference = decode_bytes(v1)
        assert decode_bytes(v2) == reference
        assert decode_bytes(v3) == reference
        assert decode_bytes(v3c) == reference

    def test_bad_version_arguments(self, paper_matrix):
        with pytest.raises(ValueError, match="version"):
            run_pipeline(paper_matrix, version=5)
        with pytest.raises(ValueError, match="compact"):
            run_pipeline(paper_matrix, compact=True, version=1)
        with pytest.raises(ValueError, match="zero-copy"):
            run_pipeline(paper_matrix, compact=True, version=4)


class TestVarintGuards:
    def test_negative_value_raises_instead_of_hanging(self):
        out = bytearray()
        with pytest.raises(ValueError, match="non-negative"):
            _write_varint(out, -1)

    def test_value_above_u32_rejected(self):
        out = bytearray()
        with pytest.raises(ValueError, match="uint32"):
            _write_varint(out, 0x1_0000_0000)

    def test_u32_boundary_round_trips(self):
        out = bytearray()
        _write_varint(out, 0xFFFFFFFF)
        assert bytes(out) == b"\xff\xff\xff\xff\x0f"


class TestDecoding:
    def test_round_trip_payload(self, paper_matrix):
        kept, raw = _encode(paper_matrix)
        payload = decode_bytes(raw)
        assert payload.n_pointers == 7
        assert payload.n_objects == 5
        assert payload.n_groups == 9
        assert payload.pointer_ts == [3, 0, 1, 2, 7, 4, 6]
        assert payload.object_ts == [0, 4, 5, 7, 8]
        decoded = sorted(rect.as_tuple() for rect, _ in payload.rects)
        original = sorted(rect.as_tuple() for rect, _ in kept)
        assert decoded == original

    def test_case_flags_survive(self, paper_matrix):
        kept, raw = _encode(paper_matrix)
        payload = decode_bytes(raw)
        decoded_case1 = sorted(r.as_tuple() for r, case1 in payload.rects if case1)
        original_case1 = sorted(rect.as_tuple() for rect, case1 in kept if case1)
        assert decoded_case1 == original_case1

    @settings(max_examples=50)
    @given(matrices(), st.booleans())
    def test_round_trip_any_matrix(self, matrix, compact):
        kept, data = _encode(matrix, order="hub", compact=compact)
        payload = decode_bytes(data)
        assert payload.n_pointers == matrix.n_pointers
        decoded = sorted(rect.as_tuple() for rect, _ in payload.rects)
        assert decoded == sorted(rect.as_tuple() for rect, _ in kept)

    def test_bad_magic_rejected(self):
        # CorruptFileError so callers can catch one exception type for any
        # hostile input; still a ValueError for older call sites.
        with pytest.raises(CorruptFileError, match="bad magic"):
            decode_bytes(b"NOTAPES1" + b"\x00" * 64)

    def test_short_input_is_truncation_not_bad_magic(self):
        for blob in (b"", b"PES", b"PESTRIE"):
            with pytest.raises(CorruptFileError, match="truncated"):
                decode_bytes(blob)

    def test_file_round_trip(self, paper_matrix, tmp_path):
        path = str(tmp_path / "example.pes")
        size = persist(paper_matrix, path, order="identity")
        assert size == (tmp_path / "example.pes").stat().st_size
        payload = load_payload(path)
        assert payload.n_groups == 9

    def test_save_is_atomic_and_leaves_no_staging_files(self, paper_matrix, tmp_path):
        target = tmp_path / "example.pes"
        # Replace an existing (corrupt) file in place: readers must only
        # ever observe the old content or the complete new file.
        target.write_bytes(b"garbage from a torn write")
        persist(paper_matrix, str(target), order="identity")
        assert decode_bytes(target.read_bytes()).n_groups == 9
        assert sorted(p.name for p in tmp_path.iterdir()) == ["example.pes"]

    def test_save_legacy_versions(self, paper_matrix, tmp_path):
        for version, magic in ((1, MAGIC_RAW), (2, MAGIC_COMPACT), (3, MAGIC_V3)):
            path = tmp_path / ("v%d.pes" % version)
            persist(paper_matrix, str(path), order="identity", version=version)
            assert path.read_bytes()[:8] == magic
            assert load_payload(str(path)).n_groups == 9

    def test_varint_multibyte_values(self):
        """Timestamps above 127 exercise multi-byte varints: distinct rows
        keep every pointer in its own group."""
        matrix = PointsToMatrix.from_pairs(200, 200, [(p, p) for p in range(200)])
        _, data = _encode(matrix, compact=True)
        payload = decode_bytes(data)
        assert payload.n_pointers == 200
        assert max(ts for ts in payload.pointer_ts if ts is not None) >= 128
        # And the raw format agrees on the decoded content.
        _, raw = _encode(matrix, compact=False)
        assert decode_bytes(raw).pointer_ts == payload.pointer_ts
