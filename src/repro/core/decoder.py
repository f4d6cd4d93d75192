"""Pestrie persistent-file reader (Section 4, step 1).

Decoding restores the pointer/object timestamps and the rectangle list; the
PES identifiers — deliberately dropped by the encoder to keep the file small
— are recovered by sorting the objects by timestamp (which *is* the
construction object order) and binary-searching each pointer's timestamp
into the origin-timestamp array.

The reader accepts all three format versions (see ``docs/FORMAT.md``) and
treats every input as hostile: each count is validated against the bytes
actually present *before* anything is allocated, every varint is capped to
the uint32 domain, trailing bytes after the last section are rejected, and
``PESTRIE3`` files additionally carry a CRC32 that is verified before the
header is even parsed.  Malformed input always raises
:class:`CorruptFileError`; it never hangs, crashes with an uncontrolled
exception, or yields a payload that violates the format invariants.
"""

from __future__ import annotations

import os
import struct
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs import get_registry, trace
from .encoder import FLAG_COMPACT, MAGIC_COMPACT, MAGIC_RAW, MAGIC_V3, MAGIC_V4
from .segment_tree import Rect

_U32 = struct.Struct("<I")

_SHAPES = ("point", "vline", "hline", "rect")
_SHAPE_ARITY = {"point": 2, "vline": 3, "hline": 3, "rect": 4}

#: Fixed-size ``PESTRIE3`` prefix: magic, flags byte, 11-int header and ten
#: per-section byte lengths; the file ends with a 4-byte CRC32 trailer.
_V3_HEADER_END = 8 + 1 + 11 * 4 + 10 * 4
_V3_MIN_SIZE = _V3_HEADER_END + 4

#: Fixed-size ``PESTRIE4`` prefix: the ``PESTRIE3`` fields plus four flat
#: counts (tracked pointers, slabs, slab entries, case-1 spans) from which
#: every flat-section size is computable (see :func:`flat_section_sizes`).
_V4_HEADER_END = _V3_HEADER_END + 4 * 4
_V4_MIN_SIZE = _V4_HEADER_END + 4

#: Names of the ``PESTRIE4`` flat sections, in on-disk order.
FLAT_SECTION_NAMES = (
    "origin_ts",
    "origin_obj",
    "obj_rank",
    "pes_rank",
    "sorted_ptr_ts",
    "sorted_ptr_id",
    "slab_breaks",
    "slab_offsets",
    "ent_y1",
    "ent_y2",
    "ent_flags",
    "c1_offsets",
    "c1_x1",
    "c1_x2",
)


def flat_section_sizes(n_pointers: int, n_objects: int,
                       counts: Tuple[int, int, int, int]) -> List[int]:
    """Byte size of every ``PESTRIE4`` flat section, in on-disk order.

    All flat sections are fixed-width little-endian arrays — ``uint32``
    everywhere except ``ent_flags`` (one byte per slab entry) — so the whole
    flat table of contents follows from the header dimensions plus the four
    flat counts ``(n_tracked, n_slabs, n_entries, n_c1_spans)``.
    """
    n_tracked, n_slabs, n_entries, n_c1 = counts
    return [
        4 * n_objects,        # origin_ts: origin timestamps, sorted ascending
        4 * n_objects,        # origin_obj: object id at each origin rank
        4 * n_objects,        # obj_rank: origin rank of each object id
        4 * n_pointers,       # pes_rank: origin rank per pointer (ABSENT if untracked)
        4 * n_tracked,        # sorted_ptr_ts: tracked pointer timestamps, ascending
        4 * n_tracked,        # sorted_ptr_id: pointer ids in timestamp order
        4 * n_slabs,          # slab_breaks: first column of each sweep slab
        4 * (n_slabs + 1),    # slab_offsets: entry-range offsets per slab
        4 * n_entries,        # ent_y1: slab entry y-interval starts
        4 * n_entries,        # ent_y2: slab entry y-interval ends
        n_entries,            # ent_flags: case-1 / mirrored bits per entry
        4 * (n_objects + 1),  # c1_offsets: case-1 span-range offsets per object
        4 * n_c1,             # c1_x1: case-1 span starts
        4 * n_c1,             # c1_x2: case-1 span ends
    ]


@dataclass
class PestriePayload:
    """Everything stored in a persistent file, decoded."""

    n_pointers: int
    n_objects: int
    n_groups: int
    #: Pre-order timestamp per pointer; ``None`` for untracked pointers.
    pointer_ts: List[Optional[int]]
    #: Pre-order timestamp per object (its origin group's timestamp).
    object_ts: List[int]
    #: ``(rect, case1)`` pairs.
    rects: List[Tuple[Rect, bool]]


class CorruptFileError(ValueError):
    """The byte stream is not a well-formed Pestrie persistent file."""


class _Reader:
    """Bounded integer reader over ``data[offset:end)``."""

    def __init__(self, data: bytes, compact: bool, offset: int = 8, end: Optional[int] = None):
        self.data = data
        self.offset = offset
        self.end = len(data) if end is None else end
        self.compact = compact

    def read_u32(self) -> int:
        if self.offset + 4 > self.end:
            raise CorruptFileError("truncated file at offset %d" % self.offset)
        value = _U32.unpack_from(self.data, self.offset)[0]
        self.offset += 4
        return value

    def read_int(self) -> int:
        if not self.compact:
            return self.read_u32()
        shift = 0
        value = 0
        while True:
            if self.offset >= self.end:
                raise CorruptFileError("truncated varint at offset %d" % self.offset)
            # uint32 needs at most five varint bytes (shifts 0..28); a sixth
            # continuation byte can only encode values the raw format cannot.
            if shift > 28:
                raise CorruptFileError("overlong varint at offset %d" % self.offset)
            byte = self.data[self.offset]
            self.offset += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                if value > 0xFFFFFFFF:
                    raise CorruptFileError(
                        "varint exceeds uint32 range at offset %d" % self.offset
                    )
                return value
            shift += 7

    def require(self, count: int) -> None:
        """Fail fast unless ``count`` integers can still fit in the input.

        Called before any bulk read: a corrupted 4-byte count would
        otherwise drive a list allocation of up to 2^32 entries before the
        first truncated-read error fires.
        """
        min_bytes = count if self.compact else 4 * count
        if self.offset + min_bytes > self.end:
            raise CorruptFileError(
                "count %d needs %d bytes but only %d remain at offset %d"
                % (count, min_bytes, self.end - self.offset, self.offset)
            )

    def read_ints(self, count: int) -> List[int]:
        self.require(count)
        return [self.read_int() for _ in range(count)]


def _inflate(shape: str, values: List[int]) -> Rect:
    if shape == "point":
        x, y = values
        return Rect(x1=x, x2=x, y1=y, y2=y)
    if shape == "vline":
        x, y1, y2 = values
        return Rect(x1=x, x2=x, y1=y1, y2=y2)
    if shape == "hline":
        x1, x2, y = values
        return Rect(x1=x1, x2=x2, y1=y, y2=y)
    x1, x2, y1, y2 = values
    return Rect(x1=x1, x2=x2, y1=y1, y2=y2)


def _decode_rect_section(shape: str, case1: bool, values: List[int], compact: bool,
                         rects: List[Tuple[Rect, bool]]) -> None:
    """Turn one flat integer section into inflated ``(rect, case1)`` pairs."""
    arity = _SHAPE_ARITY[shape]
    previous_lead = 0
    for start in range(0, len(values), arity):
        entry = values[start : start + arity]
        if compact:
            lead = previous_lead + entry[0]
            entry = [lead] + [lead + v for v in entry[1:]]
            previous_lead = lead
        rects.append((_inflate(shape, entry), case1))


def _validate_timestamps(n_groups: int, pointer_ts: List[Optional[int]],
                         object_ts: List[int]) -> set:
    """Range/uniqueness checks for the two timestamp sections.

    Returns the set of object origin timestamps — the Case-1 rectangle
    validation (:func:`_validate_rects`) needs it, and the container caches
    it so lazy rectangle materialisation never re-derives it.
    """
    seen_origin = set()
    for ts in object_ts:
        if not 0 <= ts < n_groups:
            raise CorruptFileError("object timestamp %d outside group range" % ts)
        if ts in seen_origin:
            raise CorruptFileError("duplicate object origin timestamp %d" % ts)
        seen_origin.add(ts)
    min_origin = min(object_ts) if object_ts else None
    for ts in pointer_ts:
        if ts is None:
            continue
        if not 0 <= ts < n_groups:
            raise CorruptFileError("pointer timestamp %d outside group range" % ts)
        if min_origin is None or ts < min_origin:
            raise CorruptFileError(
                "pointer timestamp %d precedes every object origin" % ts
            )
    return seen_origin


def _validate_rects(n_groups: int, rects: List[Tuple[Rect, bool]],
                    seen_origin: set) -> None:
    """Shape/range checks for the rectangle list (Case 1 needs the origins)."""
    for rect, case1 in rects:
        if not (0 <= rect.x1 <= rect.x2 < rect.y1 <= rect.y2 < n_groups):
            raise CorruptFileError("malformed rectangle %r" % (rect.as_tuple(),))
        if case1 and rect.y1 not in seen_origin:
            raise CorruptFileError(
                "case-1 rectangle y1=%d is not an object origin timestamp" % rect.y1
            )


def _validate(payload: PestriePayload) -> PestriePayload:
    """Enforce the structural invariants of a well-formed payload.

    Beyond the range checks, cross-consistency matters: the query structure
    recovers PES identifiers by binary search into the origin timestamps and
    maps every Case-1 rectangle's ``Y1`` back to an object, so a payload
    violating those assumptions would crash (or silently mis-answer) at
    query-build time instead of failing cleanly here.
    """
    seen_origin = _validate_timestamps(
        payload.n_groups, payload.pointer_ts, payload.object_ts
    )
    _validate_rects(payload.n_groups, payload.rects, seen_origin)
    return payload


def _section_value_counts(header: List[int]) -> List[int]:
    """Integers stored per section, in on-disk section order."""
    n_pointers, n_objects = header[0], header[1]
    counts = header[3:]
    per_section = [n_pointers, n_objects]
    for case_index in (0, 1):
        for shape_index, shape in enumerate(_SHAPES):
            entries = counts[2 * shape_index + case_index]
            per_section.append(entries * _SHAPE_ARITY[shape])
    return per_section


def base_image_size(data: bytes) -> int:
    """Byte length of the leading persistent image inside ``data``.

    ``PESTRIE3`` headers carry per-section byte lengths, so the size of a
    complete image is computable from its fixed-width prefix without
    trusting anything behind it — which is what lets DELTA records (see
    ``repro.delta``) be appended after the CRC trailer.  Legacy formats are
    never followed by appended records, so their base is the whole input.
    The size is bounds-checked against the bytes actually present; the
    image content is *not* otherwise verified.
    """
    version, _compact = detect_format(data)
    if version < 3:
        return len(data)
    min_size = _V4_MIN_SIZE if version == 4 else _V3_MIN_SIZE
    if len(data) < min_size:
        raise CorruptFileError(
            "truncated file (%d bytes, PESTRIE%d minimum is %d)"
            % (len(data), version, min_size)
        )
    lengths = struct.unpack_from("<10I", data, 9 + 11 * 4)
    size = _V3_HEADER_END + sum(lengths) + 4
    if version == 4:
        n_pointers, n_objects = struct.unpack_from("<2I", data, 9)
        counts = struct.unpack_from("<4I", data, _V3_HEADER_END)
        size += 4 * 4 + sum(flat_section_sizes(n_pointers, n_objects, counts))
    if size > len(data):
        raise CorruptFileError(
            "section lengths add up to %d bytes but the file has %d" % (size, len(data))
        )
    return size


def detect_format(data: bytes) -> Tuple[int, bool]:
    """The ``(version, compact)`` pair a file image claims to be.

    Raises :class:`CorruptFileError` on a short file or unknown magic; the
    claim is *not* otherwise verified — use :func:`decode_bytes` for that.
    """
    if len(data) < 8:
        raise CorruptFileError("truncated file (%d bytes, magic needs 8)" % len(data))
    magic = bytes(data[:8])
    if magic == MAGIC_RAW:
        return 1, False
    if magic == MAGIC_COMPACT:
        return 2, True
    if magic == MAGIC_V3:
        if len(data) < 9:
            raise CorruptFileError("truncated file (PESTRIE3 flags byte missing)")
        return 3, bool(data[8] & FLAG_COMPACT)
    if magic == MAGIC_V4:
        # The flat layout stores raw little-endian arrays only; the flags
        # byte must be zero, which the container enforces at open.
        return 4, False
    raise CorruptFileError("not a Pestrie persistent file (bad magic %r)" % magic)


def _instrumented_decode(supplier, nbytes: int):
    """Run one eager decode under the ``repro_decode_*`` instrumentation.

    ``supplier`` returns ``(result, rectangle_count)`` for a fully
    validated result — a payload, or an index whose columns are built —
    and is expected to fail only with :class:`CorruptFileError`.  Every
    eager path funnels through here so the telemetry contract is identical
    regardless of how the bytes arrived.
    """
    start = time.perf_counter()
    registry = get_registry()
    try:
        with trace.span("decode", bytes=nbytes):
            result, rectangles = supplier()
    except CorruptFileError:
        registry.counter("repro_decode_total", result="corrupt").inc()
        registry.gauge("repro_decode_intact").set(0)
        raise
    registry.counter("repro_decode_total", result="ok").inc()
    registry.gauge("repro_decode_intact").set(1)
    registry.gauge("repro_decode_bytes").set(nbytes)
    registry.gauge("repro_decode_rectangles").set(rectangles)
    registry.histogram("repro_decode_seconds").observe(time.perf_counter() - start)
    return result


def decode_bytes(data: bytes) -> PestriePayload:
    """Parse a persistent file image into a :class:`PestriePayload`.

    A thin eager wrapper over :class:`repro.store.Container`: the container
    validates the skeleton (magic, flags, header, table of contents, CRC)
    and every section is materialised and cross-validated before returning,
    so the result — and every hostile-input outcome — matches the classic
    all-at-once decode.

    The image must be exactly one persistent file: a ``PESTRIE3`` image
    followed by appended DELTA records is rejected here with a pointer at
    the delta-aware loader (``repro.delta.load_overlay``), because silently
    ignoring the records would serve pre-update answers.
    """
    from ..store import Container  # deferred: store builds on this module

    def supplier():
        payload = Container.from_bytes(data, allow_tail=False).payload()
        return payload, len(payload.rects)

    return _instrumented_decode(supplier, len(data))


def load_payload(path: str) -> PestriePayload:
    """Read and decode a persistent file from disk (mmap-backed)."""
    from ..store import Container  # deferred: store builds on this module

    nbytes = os.path.getsize(path)

    def supplier():
        with Container.open(path, allow_tail=False) as container:
            payload = container.payload()
            return payload, len(payload.rects)

    return _instrumented_decode(supplier, nbytes)
