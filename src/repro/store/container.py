"""The mmap-backed container: single owner of persisted Pestrie bytes.

A :class:`Container` wraps one persistent file image — a ``PESTRIE1``/
``PESTRIE2``/``PESTRIE3``/``PESTRIE4`` base, plus any ``PESDELT1`` tail —
and is the *only* layer that touches raw persisted bytes.  Opening is
cheap and validates exactly once:

* the magic, flags, and fixed-width header are parsed;
* for ``PESTRIE3`` the ten per-section byte lengths become a table of
  contents (absolute section offsets, no byte-format change), the CRC32
  trailer is verified over the base image, and the per-section length
  declarations are bounds-checked against the value counts;
* for ``PESTRIE4`` the same checks run with the flat struct-of-arrays
  sections included: the four flat counts become a second table of
  contents (:meth:`Container.flat_view`) and the CRC32 trailer covers the
  flat bytes too, so the zero-copy query engine never reads unverified
  memory;
* for ``PESTRIE1`` the offsets are computed from the header counts (raw
  sections are exactly 4 bytes per value); ``PESTRIE2`` boundaries are
  varint sums, discovered lazily section by section.

Nothing else is parsed at open.  Individual sections materialise into
Python integer lists on first touch (:meth:`section_values`), with the
same hostile-input checks — and the same :class:`CorruptFileError`
outcomes — as the eager decoder; parsed sections are cached so a section
is decoded at most once per container.  :meth:`payload` materialises
everything and is what :func:`repro.core.decoder.decode_bytes` is a thin
wrapper over.

Files opened by path are ``mmap``-ped read-only, so cold-start cost is the
page cache's problem, not a full read + copy; :meth:`section_view` exposes
zero-copy ``memoryview`` windows.  Because an exported buffer pins the
mapping, :meth:`close` refuses (``BufferError``) while caller-held views
are alive; lazy readers that already materialised keep working after a
close, while unmaterialised ones fail cleanly with
:class:`ContainerClosedError` instead of touching unmapped memory.
"""

from __future__ import annotations

import mmap
import os
import struct
import threading
from typing import List, Optional, Sequence, Tuple, Union

from ..core.decoder import (
    FLAT_SECTION_NAMES,
    CorruptFileError,
    PestriePayload,
    _Reader,
    _decode_rect_section,
    _section_value_counts,
    _validate_rects,
    _validate_timestamps,
    detect_format,
    flat_section_sizes,
)
from ..core.encoder import (
    ABSENT,
    FLAG_COMPACT,
    MAGIC_DELTA,
    MAGIC_DELTA2,
)
from ..core.ioutil import crc32
from ..core.segment_tree import Rect
from ..obs import get_registry, trace
from ..obs.cost import add_parsed_bytes, add_section

_U32 = struct.Struct("<I")

#: Fixed-size ``PESTRIE3`` prefix (mirrors ``repro.core.decoder``).
_V3_HEADER_END = 8 + 1 + 11 * 4 + 10 * 4
_V3_MIN_SIZE = _V3_HEADER_END + 4
#: ``PESTRIE4`` adds four uint32 flat counts after the section lengths.
_V4_HEADER_END = _V3_HEADER_END + 4 * 4
_V4_MIN_SIZE = _V4_HEADER_END + 4
_LEGACY_HEADER_END = 8 + 11 * 4

#: Human-readable section names, in on-disk order (label values for the
#: ``repro_store_sections_materialized_total`` counter).
SECTION_NAMES = (
    "pointer_ts",
    "object_ts",
    "case1_point",
    "case1_vline",
    "case1_hline",
    "case1_rect",
    "case2_point",
    "case2_vline",
    "case2_hline",
    "case2_rect",
)

_SECTION_SHAPES = ("point", "vline", "hline", "rect")

_REGISTRY = get_registry()
_OPEN_CONTAINERS = _REGISTRY.gauge("repro_store_open_containers")
_BYTES_MAPPED = _REGISTRY.gauge("repro_store_bytes_mapped")
_BYTES_PARSED = _REGISTRY.counter("repro_store_bytes_parsed_total")


class ContainerClosedError(ValueError):
    """A lazy read reached a :class:`Container` after :meth:`Container.close`."""


class Container:
    """One persistent file image behind a table-of-contents access layer.

    Build one with :meth:`open` (mmap-backed) or :meth:`from_bytes`
    (in-memory image).  Thread-safe: materialisation is serialised by an
    internal lock, and parsed sections are immutable once cached.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("use Container.open(path) or Container.from_bytes(data)")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path: str, allow_tail: bool = True) -> "Container":
        """Map a persistent file read-only and validate its skeleton once."""
        file = open(path, "rb")
        try:
            size = os.fstat(file.fileno()).st_size
            if size == 0:
                detect_format(b"")  # raises the canonical truncation error
            mapped = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            file.close()
            raise
        try:
            container = cls._build(memoryview(mapped), allow_tail,
                                   path=path, mapped=mapped, file=file)
        except BaseException:
            mapped.close()
            file.close()
            raise
        return container

    @classmethod
    def from_bytes(cls, data: Union[bytes, bytearray, memoryview],
                   allow_tail: bool = True) -> "Container":
        """Wrap an in-memory image (no mmap; same validation and laziness).

        ``bytes`` and read-only contiguous ``memoryview`` input is wrapped
        zero-copy: the container reads through the caller's buffer, which
        must stay alive for the container's lifetime.  Writable input
        (``bytearray``, writable views) is snapshotted with one copy so
        later mutation of the source cannot corrupt parsed state.
        """
        if isinstance(data, memoryview):
            if data.readonly and data.contiguous:
                # Our own flat-byte view over the caller's buffer: no copy,
                # and releasing it on an open error never touches theirs.
                view = data.cast("B") if (data.format, data.ndim) != ("B", 1) else data[:]
            else:
                view = memoryview(bytes(data))
        elif isinstance(data, bytes):
            view = memoryview(data)
        else:
            view = memoryview(bytes(data))
        return cls._build(view, allow_tail, path=None, mapped=None, file=None)

    @classmethod
    def _build(cls, buffer: memoryview, allow_tail: bool, path: Optional[str],
               mapped: Optional[mmap.mmap], file) -> "Container":
        self = object.__new__(cls)
        self._buffer: Optional[memoryview] = buffer
        self._mmap = mapped
        self._file = file
        self.path = path
        self._closed = False
        self._lock = threading.RLock()
        self._appended = 0
        self._sections: List[Optional[List[int]]] = [None] * 10
        self._parsed: set = set()  # sections parsed at least once
        self._timestamps: Optional[Tuple[List[Optional[int]], List[int]]] = None
        self._rects: Optional[List[Tuple[Rect, bool]]] = None
        self._origin_set: Optional[set] = None
        self._size = size = len(buffer)

        try:
            self.version, self.compact = detect_format(buffer)
            if self.version == 3:
                self._open_v3(buffer, size)
            elif self.version == 4:
                self._open_v4(buffer, size)
            else:
                self._open_legacy(buffer, size)

            if not allow_tail and self.base_size != size:
                if bytes(buffer[self.base_size : self.base_size + 8]) in (
                        MAGIC_DELTA, MAGIC_DELTA2):
                    # A tail of watermark-only records (what compaction
                    # leaves behind to preserve the epoch floor) carries no
                    # facts: the base alone IS the current state, so plain
                    # readers may use it.  Any fact-bearing record still
                    # forces the delta-aware loader.
                    if not self._tail_is_watermark_only():
                        raise CorruptFileError(
                            "file carries appended DELTA records; decode it "
                            "with repro.delta.load_overlay / overlay_from_bytes"
                        )
                else:
                    raise CorruptFileError(
                        "%d trailing bytes after the base image"
                        % (size - self.base_size)
                    )
        except BaseException:
            # Unpin the mapping so the caller's cleanup close() cannot be
            # masked by a BufferError from this half-built view.  Mark the
            # half-built container closed: it never counted as open, so a
            # later __del__-driven close() must not decrement the open /
            # mapped gauges for it (the caller owns the mmap/file cleanup).
            buffer.release()
            self._buffer = None
            self._closed = True
            raise

        _OPEN_CONTAINERS.inc()
        if mapped is not None:
            _BYTES_MAPPED.inc(size)
        return self

    def _open_v3(self, buffer: memoryview, size: int) -> None:
        if size < _V3_MIN_SIZE:
            raise CorruptFileError(
                "truncated file (%d bytes, PESTRIE3 minimum is %d)" % (size, _V3_MIN_SIZE)
            )
        flags = buffer[8]
        if flags & ~FLAG_COMPACT:
            raise CorruptFileError("unsupported format flags 0x%02x" % flags)
        self.header: Tuple[int, ...] = struct.unpack_from("<11I", buffer, 9)
        lengths = struct.unpack_from("<10I", buffer, 9 + 11 * 4)
        self.base_size = _V3_HEADER_END + sum(lengths) + 4
        if self.base_size > size:
            raise CorruptFileError(
                "section lengths add up to %d bytes but the file has %d"
                % (self.base_size, size)
            )
        stored = _U32.unpack_from(buffer, self.base_size - 4)[0]
        actual = crc32(buffer[: self.base_size - 4])
        if stored != actual:
            raise CorruptFileError(
                "checksum mismatch (stored %08x, computed %08x)" % (stored, actual)
            )
        # Bounds-check every length declaration against its value count now
        # (10 comparisons), so a structural lie never survives to a lazy read.
        self._section_counts = _section_value_counts(list(self.header))
        self._section_lengths: List[Optional[int]] = list(lengths)
        offsets: List[Optional[int]] = []
        offset = _V3_HEADER_END
        for n_values, length in zip(self._section_counts, lengths):
            if not self.compact and length != 4 * n_values:
                raise CorruptFileError(
                    "section declares %d bytes for %d uint32 values" % (length, n_values)
                )
            if self.compact and not n_values <= length <= 5 * n_values:
                raise CorruptFileError(
                    "section declares %d bytes for %d varint values" % (length, n_values)
                )
            offsets.append(offset)
            offset += length
        self._section_offsets = offsets

    def _open_v4(self, buffer: memoryview, size: int) -> None:
        if size < _V4_MIN_SIZE:
            raise CorruptFileError(
                "truncated file (%d bytes, PESTRIE4 minimum is %d)" % (size, _V4_MIN_SIZE)
            )
        flags = buffer[8]
        if flags:
            # The flat layout is raw-coded by construction; any flag bit
            # would change section widths under the zero-copy reader.
            raise CorruptFileError("unsupported PESTRIE4 flags 0x%02x" % flags)
        self.header = struct.unpack_from("<11I", buffer, 9)
        lengths = struct.unpack_from("<10I", buffer, 9 + 11 * 4)
        self.flat_counts = struct.unpack_from("<4I", buffer, _V3_HEADER_END)
        if self.flat_counts[0] > self.n_pointers:
            raise CorruptFileError(
                "flat layout declares %d tracked pointers but the header has %d"
                % (self.flat_counts[0], self.n_pointers)
            )
        flat_sizes = flat_section_sizes(self.n_pointers, self.n_objects,
                                        self.flat_counts)
        self.base_size = _V4_HEADER_END + sum(lengths) + sum(flat_sizes) + 4
        if self.base_size > size:
            raise CorruptFileError(
                "section lengths add up to %d bytes but the file has %d"
                % (self.base_size, size)
            )
        stored = _U32.unpack_from(buffer, self.base_size - 4)[0]
        actual = crc32(buffer[: self.base_size - 4])
        if stored != actual:
            raise CorruptFileError(
                "checksum mismatch (stored %08x, computed %08x)" % (stored, actual)
            )
        self._section_counts = _section_value_counts(list(self.header))
        self._section_lengths = list(lengths)
        offsets: List[Optional[int]] = []
        offset = _V4_HEADER_END
        for n_values, length in zip(self._section_counts, lengths):
            if length != 4 * n_values:
                raise CorruptFileError(
                    "section declares %d bytes for %d uint32 values" % (length, n_values)
                )
            offsets.append(offset)
            offset += length
        self._section_offsets = offsets
        self._flat_sizes = flat_sizes
        flat_offsets: List[int] = []
        for length in flat_sizes:
            flat_offsets.append(offset)
            offset += length
        self._flat_offsets = flat_offsets

    def _open_legacy(self, buffer: memoryview, size: int) -> None:
        reader = _Reader(buffer, False, offset=8, end=size)
        self.header = tuple(reader.read_u32() for _ in range(11))
        self.base_size = size  # legacy formats are never followed by a tail
        self._section_counts = _section_value_counts(list(self.header))
        if not self.compact:
            # Raw sections are exactly 4 bytes per value: the whole table of
            # contents — and the trailing-byte check — falls out of the header.
            self._section_lengths = [4 * count for count in self._section_counts]
            offsets: List[Optional[int]] = []
            offset = _LEGACY_HEADER_END
            for length in self._section_lengths:
                offsets.append(offset)
                offset += length
            self._section_offsets = offsets
            if offset < size:
                raise CorruptFileError(
                    "%d trailing bytes after the last section" % (size - offset)
                )
        else:
            # PESTRIE2 boundaries are varint sums: discovered lazily, in
            # on-disk order, as sections materialise.
            self._section_lengths = [None] * 10
            self._section_offsets = [_LEGACY_HEADER_END] + [None] * 9

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_pointers(self) -> int:
        return self.header[0]

    @property
    def n_objects(self) -> int:
        return self.header[1]

    @property
    def n_groups(self) -> int:
        return self.header[2]

    @property
    def shape_counts(self) -> Tuple[int, ...]:
        """The eight header shape counts: per shape, ``(case1, case2)``."""
        return self.header[3:]

    @property
    def size(self) -> int:
        """Byte length of the image at open time (appended bytes excluded)."""
        return self._size

    @property
    def has_tail(self) -> bool:
        return self.base_size < self.size

    @property
    def buffer(self) -> memoryview:
        """The raw image as a zero-copy view (pins the mapping until released)."""
        # Every accessor that touches ``_buffer`` holds the lock so it can
        # never race a concurrent close() into slicing a released view: it
        # either runs first (and close() fails with BufferError until the
        # returned view is dropped) or sees ContainerClosedError.
        with self._lock:
            self._check_open()
            return self._buffer[:]

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def sections_materialized(self) -> int:
        """How many of the ten sections have been parsed so far."""
        with self._lock:
            return len(self._parsed)

    def _check_open(self) -> None:
        if self._closed:
            raise ContainerClosedError(
                "container%s is closed" % (" for %r" % self.path if self.path else "")
            )

    # ------------------------------------------------------------------
    # Section access
    # ------------------------------------------------------------------

    def section_view(self, index: int) -> memoryview:
        """Zero-copy window over section ``index``'s bytes (v1/v3/v4 only).

        The caller must release the view (or drop every reference) before
        :meth:`close`, or the close will fail with ``BufferError``.
        """
        with self._lock:
            self._check_open()
            offset, length = self._section_offsets[index], self._section_lengths[index]
            if offset is None or length is None:
                raise ValueError(
                    "PESTRIE2 section boundaries are varint sums; materialise "
                    "section_values(%d) instead" % index
                )
            return self._buffer[offset : offset + length]

    def flat_view(self, index: int) -> memoryview:
        """Zero-copy window over flat section ``index`` (``PESTRIE4`` only).

        Flat section order and sizes are fixed by the header counts (see
        ``repro.core.decoder.FLAT_SECTION_NAMES``); as with
        :meth:`section_view`, the caller must release the view before
        :meth:`close`.
        """
        with self._lock:
            self._check_open()
            if self.version != 4:
                raise ValueError(
                    "flat sections exist only in PESTRIE4 files (this is format v%d)"
                    % self.version
                )
            if not 0 <= index < len(FLAT_SECTION_NAMES):
                raise IndexError(
                    "flat section index %d out of range [0, %d)"
                    % (index, len(FLAT_SECTION_NAMES))
                )
            offset, length = self._flat_offsets[index], self._flat_sizes[index]
            return self._buffer[offset : offset + length]

    @property
    def has_flat(self) -> bool:
        """Whether this image carries the directly queryable flat sections."""
        return self.version == 4

    @property
    def flat_range(self) -> Tuple[int, int]:
        """``(start, end)`` byte span of the flat sections within the image."""
        if self.version != 4:
            raise ValueError("flat sections exist only in PESTRIE4 files")
        return self._flat_offsets[0], self.base_size - 4

    def section_values(self, index: int) -> List[int]:
        """Section ``index`` parsed to integers, decoding it on first touch."""
        if not 0 <= index < 10:
            raise IndexError("section index %d out of range [0, 10)" % index)
        section = self._sections[index]
        if section is not None:
            return section
        with self._lock:
            return self._materialize_section(index)

    def _materialize_section(self, index: int) -> List[int]:
        # Caller holds the lock.  PESTRIE2 boundaries are sequential, so
        # materialising section i first materialises 0..i-1.
        section = self._sections[index]
        if section is not None:
            return section
        self._check_open()
        if self._section_offsets[index] is None:
            self._materialize_section(index - 1)
        offset = self._section_offsets[index]
        count = self._section_counts[index]
        if self.version >= 3:
            end = offset + self._section_lengths[index]
        else:
            end = len(self._buffer)
        reader = _Reader(self._buffer, self.compact, offset=offset, end=end)
        with trace.span("store.materialize", section=SECTION_NAMES[index]):
            values = reader.read_ints(count)
        if self.version >= 3 and reader.offset != end:
            raise CorruptFileError(
                "section has %d unread trailing bytes" % (end - reader.offset)
            )
        if self.version == 2:
            self._section_lengths[index] = reader.offset - offset
            if index + 1 < 10:
                self._section_offsets[index + 1] = reader.offset
            elif reader.offset != len(self._buffer):
                raise CorruptFileError(
                    "%d trailing bytes after the last section"
                    % (len(self._buffer) - reader.offset)
                )
        self._sections[index] = values
        self._parsed.add(index)
        _BYTES_PARSED.inc(reader.offset - offset)
        _REGISTRY.counter("repro_store_sections_materialized_total",
                          section=SECTION_NAMES[index]).inc()
        # Attribute the parse to the query that forced it (no-op when no
        # cost context is active on this thread).
        add_parsed_bytes(reader.offset - offset)
        add_section()
        return values

    # ------------------------------------------------------------------
    # Payload-level lazy accessors
    # ------------------------------------------------------------------

    def timestamps(self) -> Tuple[List[Optional[int]], List[int]]:
        """``(pointer_ts, object_ts)``, parsed and validated on first touch."""
        with self._lock:
            if self._timestamps is None:
                raw = self._materialize_section(0)
                pointer_ts: List[Optional[int]] = [
                    None if ts == ABSENT else ts for ts in raw
                ]
                object_ts = self._materialize_section(1)
                self._origin_set = _validate_timestamps(
                    self.n_groups, pointer_ts, object_ts
                )
                self._timestamps = (pointer_ts, object_ts)
            return self._timestamps

    def rects(self) -> List[Tuple[Rect, bool]]:
        """The rectangle list, parsed and validated on first touch."""
        with self._lock:
            if self._rects is None:
                self.timestamps()  # origin set needed for Case-1 validation
                rects: List[Tuple[Rect, bool]] = []
                for case_index, case1 in ((0, True), (1, False)):
                    for shape_index, shape in enumerate(_SECTION_SHAPES):
                        values = self._materialize_section(2 + case_index * 4 + shape_index)
                        _decode_rect_section(shape, case1, values, self.compact, rects)
                _validate_rects(self.n_groups, rects, self._origin_set)
                self._rects = rects
            return self._rects

    def release_parsed(self) -> None:
        """Drop the parsed sections, timestamps and rectangles.

        They only cache what the image bytes hold: a later accessor parses
        and validates again.  An index calls this once it has derived its
        own columns, so the parse does not stay resident beside them.
        """
        with self._lock:
            self._sections = [None] * 10
            self._timestamps = None
            self._rects = None
            self._origin_set = None

    def payload(self) -> PestriePayload:
        """Materialise everything into an eager, fully validated payload.

        This is the container-backed equivalent of the classic decode: on a
        fresh container it parses the sections in on-disk order (so hostile
        input fails exactly where the eager decoder failed); on a warm one
        it reuses every cached section.
        """
        # Force on-disk materialisation order before the composite accessors
        # (which parse timestamps first) so error precedence is preserved.
        for index in range(10):
            self.section_values(index)
        pointer_ts, object_ts = self.timestamps()
        return PestriePayload(
            n_pointers=self.n_pointers,
            n_objects=self.n_objects,
            n_groups=self.n_groups,
            pointer_ts=list(pointer_ts),
            object_ts=list(object_ts),
            rects=list(self.rects()),
        )

    # ------------------------------------------------------------------
    # Delta tail
    # ------------------------------------------------------------------

    def tail_records(self):
        """Decode the ``PESDELT1`` chain trailing the base image."""
        from ..delta.format import decode_records

        with self._lock:
            self._check_open()
            return decode_records(self._buffer, self.base_size,
                                  self.n_pointers, self.n_objects)

    def _tail_is_watermark_only(self) -> bool:
        """True when every trailing record is a fact-free epoch watermark.

        Called during :meth:`_build` (strict, ``allow_tail=False`` mode), so
        it reads the buffer directly rather than going through the public
        accessors.  A corrupt tail propagates its own
        :class:`CorruptFileError` — strict mode never ignores bad bytes.
        """
        from ..delta.format import decode_records

        if self.version < 3:
            return False
        records = decode_records(self._buffer, self.base_size,
                                 self.n_pointers, self.n_objects)
        return all(record.watermark for record in records)

    def append_tail(self, record: bytes) -> int:
        """Durably append one encoded DELTA record after the current image.

        This is the O(record) alternative to rewriting the whole file: the
        bytes are appended and fsynced in place.  The mapped view keeps its
        open-time length — reopen the container to read the record back.
        Returns the file size after the append.
        """
        with self._lock:
            self._check_open()
            if self.path is None:
                raise ValueError("append_tail needs a path-backed container")
            if self.version < 3:
                raise CorruptFileError(
                    "delta records require a PESTRIE3/PESTRIE4 base (file is format "
                    "v%d); re-encode it first" % self.version
                )
            with open(self.path, "ab") as stream:
                stream.write(record)
                stream.flush()
                os.fsync(stream.fileno())
                size = stream.tell()
            self._appended += len(record)
            return size

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the mapping.  Idempotent.

        Raises ``BufferError`` if a caller still holds an exported view
        (``buffer`` / ``section_view``) — release those first.  Sections
        already parsed stay usable (they are plain Python lists); anything
        unmaterialised raises :class:`ContainerClosedError` afterwards.
        """
        with self._lock:
            if self._closed:
                return
            if self._mmap is not None:
                # Fails with BufferError while exported views are alive;
                # our own base view must go first.
                self._buffer.release()
                try:
                    self._mmap.close()
                except BufferError:
                    # Re-arm our base view so the container stays usable and
                    # a later close (after the caller releases) can succeed.
                    self._buffer = memoryview(self._mmap)
                    raise
                self._file.close()
                _BYTES_MAPPED.inc(-self._size)
            else:
                self._buffer.release()
            self._buffer = None
            self._closed = True
            _OPEN_CONTAINERS.inc(-1)

    def __enter__(self) -> "Container":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort fd cleanup
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except Exception:
            pass


class MappedBlob:
    """A raw mmap-backed byte blob for non-Pestrie persisted formats.

    The BitP/bzip baselines carry their own magic and checksums; what they
    share with the Pestrie path is the storage discipline — map the file,
    verify over a zero-copy view, account the bytes.  ``buffer`` pins the
    mapping; release it (or use the context manager) before ``close``.
    """

    def __init__(self, path: str):
        self.path = path
        self._file = open(path, "rb")
        try:
            size = os.fstat(self._file.fileno()).st_size
            if size == 0:
                self._mmap = None
                self._buffer = memoryview(b"")
            else:
                self._mmap = mmap.mmap(self._file.fileno(), 0, access=mmap.ACCESS_READ)
                self._buffer = memoryview(self._mmap)
        except BaseException:
            self._file.close()
            raise
        self.size = size
        self._closed = False
        _OPEN_CONTAINERS.inc()
        _BYTES_MAPPED.inc(size)

    @property
    def buffer(self) -> memoryview:
        if self._closed:
            raise ContainerClosedError("blob for %r is closed" % self.path)
        return self._buffer[:]

    def close(self) -> None:
        if self._closed:
            return
        self._buffer.release()
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                self._buffer = memoryview(self._mmap)
                raise
        self._file.close()
        self._closed = True
        _OPEN_CONTAINERS.inc(-1)
        _BYTES_MAPPED.inc(-self.size)

    def __enter__(self) -> "MappedBlob":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort fd cleanup
        try:
            if not getattr(self, "_closed", True):
                self.close()
        except Exception:
            pass
