"""The query engine: Table 1 answers from flat struct-of-arrays columns.

Section 4's query structure is stored as fixed-width little-endian arrays
whose on-disk form **is** the query form — the persistent/volatile split of
the exemplar ``PPtr`` design, applied to a whole query structure:

* the origin table (``origin_ts`` sorted ascending, ``origin_obj`` /
  ``obj_rank`` as mutually inverse permutations) answers PES membership and
  PES block ranges with one array lookup or ``bisect``;
* ``pes_rank`` collapses ``is_alias``'s internal-pair test to two loads and
  a comparison;
* ``sorted_ptr_ts`` / ``sorted_ptr_id`` serve the range-reporting half of
  every list query;
* the ptList is stored as slab columns: ``slab_breaks`` (first column per
  slab), ``slab_offsets`` (entry ranges), and the entry columns ``ent_y1``
  / ``ent_y2`` / ``ent_flags`` sorted by ``y1`` within a slab.  A slab is
  a maximal column range over which the set of stabbing rectangles (each
  inserted once as stored and once mirrored) is constant, so a wide
  rectangle costs a few shared slabs, never one list per column;
* the per-object Case-1 span table (``c1_offsets`` → ``c1_x1``/``c1_x2``)
  serves ``points_to_contains`` and ``list_pointed_by``.

**List answers are runs.**  The pointers with timestamps in ``[lo, hi]``
are one contiguous run of ``sorted_ptr_id``, so ``list_aliases`` (the PES
run with ``p`` cut out, then one run per slab entry) and
``list_pointed_by`` (the PES run, then one run per Case-1 span) are joins
of ``memoryview`` slices: the ``*_packed`` methods return them as
little-endian ``uint32`` bytes with no Python work per id, and the list
methods unpack those bytes.  A run-start table, ``pos[t]`` for every
timestamp, turns each run's bounds into two array loads; it is derived at
the first list query, never at open.  The run order is stable but not
sorted, and the service cache and the daemon's wire bytes keep it.

:class:`FlatIndex` is the one engine behind every loader, for every format:

* ``PESTRIE4`` images persist these columns, so the index reads them
  through ``memoryview`` casts over the mapped sections and never rebuilds
  anything;
* ``PESTRIE1``–``PESTRIE3`` images and in-memory payloads derive the same
  columns with :func:`build_flat_sections`'s two halves, each at the first
  query that needs it: the timestamp columns (enough for ``pes_of``,
  ``column_of`` and same-PES ``is_alias``) and the rectangle columns.  A
  lazy open stays O(header); the parse is charged to the first query.

**What is checked.**  Derived columns come from timestamps and rectangles
the decoder already validated (ranges, unique origins, no pointer before
the first origin, every Case-1 ``y1`` an origin), so they are consistent
by construction.  Mapped ``PESTRIE4`` columns are covered by the CRC32
trailer at open, and :meth:`FlatIndex._validate` re-checks once, before the
first answer, the invariants the searches index with: strictly increasing
origin and slab-break tables, in-range ranks and pointer ids, ``pes_rank``
absent exactly where the pointer is untracked, sorted pointer timestamps,
and offset tables that are monotone and span their entry columns.  The
first list query also checks that every slab entry and Case-1 span ends
inside the group range (they index the run-start table), and each
``list_aliases`` that ``p`` sits in its timestamp group.  That turns a
forged-but-checksummed image whose tables would index out of bounds into
:class:`CorruptFileError`.  It does *not* prove the columns
agree with the classic sections or with each other: a resealed image can
still pass these checks and answer as no single matrix would.  A resealed
fuzz arm that closes that gap is an open ROADMAP item.
"""

from __future__ import annotations

import struct
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right, insort
from functools import partial
from itertools import islice
from operator import le, lt
from typing import List, Optional, Sequence, Tuple

from ..matrix.points_to import PointsToMatrix
from .decoder import FLAT_SECTION_NAMES, CorruptFileError, PestriePayload, _validate
from .encoder import ABSENT

#: ``ent_flags`` bits.
FLAT_CASE1 = 0x01
FLAT_MIRRORED = 0x02

#: Flat sections per ``PESTRIE4`` image (see ``FLAT_SECTION_NAMES``).
N_FLAT_SECTIONS = len(FLAT_SECTION_NAMES)


# ----------------------------------------------------------------------
# Column construction (encode time for PESTRIE4, first touch otherwise)
# ----------------------------------------------------------------------

def _pack_u32(values: Sequence[int]) -> bytes:
    return struct.pack("<%dI" % len(values), *values)


def _timestamp_columns(pointer_ts: Sequence[int], object_ts: Sequence[int]):
    """``origin_ts`` … ``sorted_ptr_id``: the first six flat sections."""
    order = sorted(range(len(object_ts)), key=object_ts.__getitem__)
    origin_ts = [object_ts[obj] for obj in order]
    obj_rank = [0] * len(object_ts)
    for rank, obj in enumerate(order):
        obj_rank[obj] = rank

    pes_rank = [
        ABSENT if ts == ABSENT else bisect_right(origin_ts, ts) - 1
        for ts in pointer_ts
    ]

    tracked = sorted(
        (ts, pointer) for pointer, ts in enumerate(pointer_ts) if ts != ABSENT
    )
    sorted_ptr_ts = [ts for ts, _ in tracked]
    sorted_ptr_id = [pointer for _, pointer in tracked]
    return [origin_ts, order, obj_rank, pes_rank, sorted_ptr_ts, sorted_ptr_id]


def _rect_columns(object_ts: Sequence[int], rects: Sequence[Tuple[object, bool]]):
    """``slab_breaks`` … ``c1_x2``: the last eight flat sections."""
    # The event sweep: one forward and one mirrored span per rectangle,
    # slabs between consecutive event coordinates, entries kept sorted by
    # the unique (y1, serial) key.
    events: List[Tuple[int, int, int, int, int, int]] = []
    serial = 0
    for rect, case1 in rects:
        flags = FLAT_CASE1 if case1 else 0
        for x1, x2, y1, y2, entry_flags in (
            (rect.x1, rect.x2, rect.y1, rect.y2, flags),
            (rect.y1, rect.y2, rect.x1, rect.x2, flags | FLAT_MIRRORED),
        ):
            events.append((x1, 0, serial, y1, y2, entry_flags))
            events.append((x2 + 1, 1, serial, y1, y2, entry_flags))
            serial += 1
    events.sort(key=lambda event: event[0])

    slab_breaks: List[int] = []
    slab_offsets: List[int] = [0]
    ent_y1: List[int] = []
    ent_y2: List[int] = []
    ent_flags: List[int] = []
    active: List[Tuple[int, int, int, int]] = []  # (y1, serial, y2, flags)
    index, count = 0, len(events)
    while index < count:
        coordinate = events[index][0]
        while index < count and events[index][0] == coordinate:
            _, is_end, serial, y1, y2, entry_flags = events[index]
            key = (y1, serial, y2, entry_flags)
            if is_end:
                del active[bisect_left(active, key)]
            else:
                insort(active, key)
            index += 1
        slab_breaks.append(coordinate)
        for y1, _serial, y2, entry_flags in active:
            ent_y1.append(y1)
            ent_y2.append(y2)
            ent_flags.append(entry_flags)
        slab_offsets.append(len(ent_y1))

    # Case-1 spans grouped by pointed-to object, sorted within each group.
    obj_at_ts = {ts: obj for obj, ts in enumerate(object_ts)}
    spans_by_obj: List[List[Tuple[int, int]]] = [[] for _ in object_ts]
    for rect, case1 in rects:
        if case1:
            spans_by_obj[obj_at_ts[rect.y1]].append((rect.x1, rect.x2))
    c1_offsets: List[int] = [0]
    c1_x1: List[int] = []
    c1_x2: List[int] = []
    for spans in spans_by_obj:
        spans.sort()
        for x1, x2 in spans:
            c1_x1.append(x1)
            c1_x2.append(x2)
        c1_offsets.append(len(c1_x1))
    return [slab_breaks, slab_offsets, ent_y1, ent_y2, ent_flags,
            c1_offsets, c1_x1, c1_x2]


def build_flat_sections(pointer_ts: List[int], object_ts: List[int],
                        rects: Sequence[Tuple[object, bool]]):
    """The flat counts and section payloads for one Pestrie.

    ``pointer_ts`` uses the raw :data:`~repro.core.encoder.ABSENT` sentinel;
    ``rects`` are ``(rect, case1)`` pairs in on-disk decode order.  Returns
    ``((n_tracked, n_slabs, n_entries, n_c1), [section_bytes...])`` with the
    sections in :data:`~repro.core.decoder.FLAT_SECTION_NAMES` order.
    """
    columns = _timestamp_columns(pointer_ts, object_ts)
    columns += _rect_columns(object_ts, rects)
    counts = (len(columns[4]), len(columns[6]), len(columns[8]), len(columns[12]))
    sections = [bytes(values) if name == "ent_flags" else _pack_u32(values)
                for name, values in zip(FLAT_SECTION_NAMES, columns)]
    return counts, sections


# ----------------------------------------------------------------------
# Query-time engine
# ----------------------------------------------------------------------

def _u32_view(values: Sequence[int]) -> memoryview:
    return memoryview(array("I", values))


def _ascending(values: List[int], strict: bool) -> bool:
    return all(map(lt if strict else le, values, islice(values, 1, None)))


def _below(values, limit: int) -> bool:
    return not values or max(values) < limit


#: Maps byte 0xFF to 1 and every other byte to 0.
_FF_FLAGS = bytes(int(byte == 0xFF) for byte in range(256))


def _absent_mask(view: memoryview) -> int:
    """A bit set with one byte-aligned bit per ``ABSENT`` word of ``view``.

    A ``uint32`` word is ``ABSENT`` exactly when all four of its bytes are
    0xFF, so the mask ANDs the four byte lanes; it never builds a Python
    int per word.
    """
    flags = view.tobytes().translate(_FF_FLAGS)
    mask = -1
    for lane in range(4):
        mask &= int.from_bytes(flags[lane::4], "little")
    return mask


def pack_ids(values: Sequence[int]) -> bytes:
    """``values`` as little-endian ``uint32`` bytes: the packed answer form."""
    words = array("I")
    # fromlist converts a list about twice as fast as array("I", values).
    words.fromlist(values if isinstance(values, list) else list(values))
    if sys.byteorder != "little":
        words.byteswap()
    return words.tobytes()


def unpack_ids(data) -> List[int]:
    """The ids of a packed answer (any bytes-like of little-endian ``uint32``)."""
    words = array("I")
    words.frombytes(data)
    if sys.byteorder != "little":
        words.byteswap()
    return words.tolist()


#: The packed form of each list query, by query name.
PACKED_QUERIES = {
    "list_aliases": "list_aliases_packed",
    "list_points_to": "list_points_to_packed",
    "list_pointed_by": "list_pointed_by_packed",
}


def packed_answer(backend, kind: str, operand: int) -> bytes:
    """``backend``'s ``kind`` answer for ``operand`` as packed bytes."""
    return getattr(backend, PACKED_QUERIES[kind])(operand)


def _join_runs(runs: List[memoryview]) -> bytes:
    """Concatenate native ``uint32`` runs into one owned little-endian answer."""
    data = b"".join(runs)
    if sys.byteorder == "little":
        return data
    words = array("I", data)
    words.byteswap()
    return words.tobytes()


class _BisectRuns:
    """A run-start table for sparse timestamps: ``pos[t]`` by bisection."""

    __slots__ = ("_timestamps",)

    def __init__(self, timestamps: List[int]):
        self._timestamps = timestamps

    def __getitem__(self, ts: int) -> int:
        return bisect_left(self._timestamps, ts)


class FlatIndex:
    """Table 1 queries over the flat columns of one Pestrie.

    ``FlatIndex(container)`` is lazy for every format: construction reads
    the container's header (and, for ``PESTRIE4``, takes zero-copy casts
    over the flat sections); the first query pays a one-time structural
    check of the mapped tables or the derivation of the columns.
    :meth:`load` forces that work up front — the eager loaders call it on
    bytes the index owns — and :meth:`from_payload` builds an index from an
    in-memory payload.

    A lazy index needs its container open for its whole lifetime.
    :meth:`close` releases the views and closes the container; queries
    afterwards raise :class:`~repro.store.ContainerClosedError`.
    """

    def __init__(self, container):
        self._setup(container.n_pointers, container.n_objects, container.n_groups)
        self._container = container
        self._rect_list = container.rects
        self._mapped = container.version == 4
        if self._mapped:
            (self._n_tracked, self._n_slabs,
             self._n_entries, self._n_c1) = container.flat_counts
            self._ptr_ts = self._cast(container.section_view(0))
            self._obj_ts = self._cast(container.section_view(1))
            flat = [container.flat_view(i) for i in range(N_FLAT_SECTIONS)]
            (self._origin_ts, self._origin_obj, self._obj_rank, self._pes_rank,
             self._sorted_ptr_ts, self._sorted_ptr_id, self._slab_breaks,
             self._slab_offsets, self._ent_y1, self._ent_y2) = (
                self._cast(view) for view in flat[:10]
            )
            self._ent_flags = self._track(flat[10])
            self._c1_offsets, self._c1_x1, self._c1_x2 = (
                self._cast(view) for view in flat[11:]
            )
        else:
            self._timestamps = self._container_timestamps

    @classmethod
    def from_payload(cls, payload: PestriePayload) -> "FlatIndex":
        """A fully built index over a decoded or hand-built payload.

        The payload is validated first, so malformed input raises
        :class:`CorruptFileError`, never an error from the column build.
        """
        if not 0 <= payload.n_groups <= ABSENT:
            raise CorruptFileError("group count %d outside the uint32 range"
                                   % payload.n_groups)
        if (len(payload.pointer_ts) != payload.n_pointers
                or len(payload.object_ts) != payload.n_objects):
            raise CorruptFileError("payload timestamp arrays disagree with its counts")
        _validate(payload)
        self = object.__new__(cls)
        self._setup(payload.n_pointers, payload.n_objects, payload.n_groups)
        self._container = None
        self._mapped = False
        self._rect_list = lambda: payload.rects
        self._timestamps = lambda: (
            [ABSENT if ts is None else ts for ts in payload.pointer_ts],
            payload.object_ts,
        )
        return self.load()

    def _setup(self, n_pointers: int, n_objects: int, n_groups: int) -> None:
        self._lock = threading.RLock()
        self._closed = False
        self._ts_ready = False
        self._rects_ready = False
        self._run_starts = None
        self._owned = False
        self._views: List[memoryview] = []
        self.n_pointers = n_pointers
        self.n_objects = n_objects
        self.n_groups = n_groups

    def _container_timestamps(self):
        self._container.timestamps()  # parses and validates both sections
        return self._container.section_values(0), self._container.section_values(1)

    def _track(self, view: memoryview) -> memoryview:
        self._views.append(view)
        return view

    def _cast(self, view: memoryview) -> memoryview:
        """A ``uint32`` window over little-endian section bytes."""
        self._track(view)
        if sys.byteorder == "little":
            return self._track(view.cast("I"))
        words = array("I")
        words.frombytes(view)
        words.byteswap()
        return self._track(memoryview(words))

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------

    def load(self) -> "FlatIndex":
        """Check or derive every column now, and keep them for good.

        This is what the eager loaders return: an index over bytes it owns,
        answering from then on without first-touch work.  Its :meth:`close`
        is a no-op — there is nothing to release — so only call this on an
        index whose container is not a file mapping you need to unmap.
        """
        self._ready()
        self._owned = True
        return self

    def close(self) -> None:
        """Release every view and close the backing container, if any.

        Idempotent, and — unlike a naive ``closed`` flag — retryable: if
        the container refuses to unmap (``BufferError``, some caller still
        holds a view exported by the container itself), this index is
        already closed for queries (``ContainerClosedError``) but a later
        ``close()`` finishes the job once the last view is released.
        Taking the lock makes a close wait for an in-flight first-touch
        derivation instead of closing the container underneath it.  An
        index returned by :meth:`load` owns its bytes; closing it is a no-op.
        """
        if self._owned:
            return
        with self._lock:
            container = self._container
            if self._closed and (container is None or container.closed):
                return
            # Casts were appended after the byte views they wrap; release
            # them first so no view ever outlives its exporter.
            for view in reversed(self._views):
                view.release()
            self._views = []
            # Mark closed before the container close: even if it raises,
            # our views are gone, so queries must fail cleanly from here on.
            self._closed = True
            if container is not None:
                container.close()

    def _ready(self, rects: bool = True, runs: bool = False) -> None:
        """Make the timestamp columns (and, by default, the rectangle
        columns) answerable: validated when mapped, derived otherwise.
        ``runs`` also builds the run-start table the list queries slice
        with (see :meth:`_run_table`)."""
        if not self._closed and (
                self._run_starts is not None if runs
                else self._rects_ready if rects else self._ts_ready):
            return
        with self._lock:
            if self._closed:
                from ..store import ContainerClosedError

                raise ContainerClosedError("flat index is closed")
            if self._mapped:
                if not self._rects_ready:
                    self._validate()
                    self._ts_ready = self._rects_ready = True
            else:
                self._derive(rects)
            if runs and self._run_starts is None:
                self._run_starts = self._run_table()

    def _derive(self, rects: bool) -> None:
        """Derive the timestamp (and rectangle) columns of an unmapped image."""
        if not self._ts_ready:
            pointer_ts, object_ts = self._timestamps()
            columns = _timestamp_columns(pointer_ts, object_ts)
            self._ptr_ts = self._track(_u32_view(pointer_ts))
            self._obj_ts = self._track(_u32_view(object_ts))
            (self._origin_ts, self._origin_obj, self._obj_rank, self._pes_rank,
             self._sorted_ptr_ts, self._sorted_ptr_id) = (
                self._track(_u32_view(values)) for values in columns
            )
            self._ts_ready = True
        if rects and not self._rects_ready:
            columns = _rect_columns(self._obj_ts, self._rect_list())
            (self._slab_breaks, self._slab_offsets, self._ent_y1,
             self._ent_y2) = (self._track(_u32_view(values))
                              for values in columns[:4])
            self._ent_flags = self._track(memoryview(bytes(columns[4])))
            self._c1_offsets, self._c1_x1, self._c1_x2 = (
                self._track(_u32_view(values)) for values in columns[5:]
            )
            self._rects_ready = True
            if self._container is not None:
                # Every column is derived: the parsed sections are now dead
                # weight (iter_alias_pairs re-reads the rectangles).
                self._container.release_parsed()

    def _validate(self) -> None:
        """One-time structural check of the mapped search invariants.

        The container already verified the CRC over the whole image, so
        this only has to reject *forged* images whose checksum is valid but
        whose tables would send a binary search or an index out of bounds.
        The checks run at C speed (``max``, ``map``) because they are most
        of a cold ``PESTRIE4`` first answer.
        """
        origin_ts = self._origin_ts.tolist()
        if not _ascending(origin_ts, strict=True):
            raise CorruptFileError("flat origin timestamps are not strictly increasing")
        if origin_ts and not origin_ts[-1] < self.n_groups:
            raise CorruptFileError("flat origin timestamp outside group range")
        for name, view in (("origin_obj", self._origin_obj),
                           ("obj_rank", self._obj_rank)):
            if not _below(view.tolist(), self.n_objects):
                raise CorruptFileError("flat %s entry outside object range" % name)
        ranks = set(self._pes_rank.tolist())
        ranks.discard(ABSENT)
        if not _below(ranks, self.n_objects):
            raise CorruptFileError("flat pes_rank entry outside object range")
        if _absent_mask(self._pes_rank) != _absent_mask(self._ptr_ts):
            raise CorruptFileError(
                "flat pes_rank disagrees with the pointer timestamps on "
                "which pointers are tracked")
        if not _ascending(self._sorted_ptr_ts.tolist(), strict=False):
            raise CorruptFileError("flat sorted pointer timestamps are unsorted")
        if not _below(self._sorted_ptr_id.tolist(), self.n_pointers):
            raise CorruptFileError("flat sorted pointer id outside pointer range")
        if not _ascending(self._slab_breaks.tolist(), strict=True):
            raise CorruptFileError("flat slab breaks are not strictly increasing")
        for name, offsets, limit in (
            ("slab_offsets", self._slab_offsets.tolist(), self._n_entries),
            ("c1_offsets", self._c1_offsets.tolist(), self._n_c1),
        ):
            if offsets[0] != 0 or offsets[-1] != limit:
                raise CorruptFileError("flat %s table does not span its entries" % name)
            if not _ascending(offsets, strict=False):
                raise CorruptFileError("flat %s table is not monotone" % name)

    def _run_table(self):
        """The run-start table: ``pos[t] = bisect_left(sorted_ptr_ts, t)``.

        The tracked pointers with timestamps in ``[lo, hi]`` are the run
        ``sorted_ptr_id[pos[lo]:pos[hi + 1]]``, so a list answer is a join of
        such runs with no search per run.  Built once, at the first list
        query (never at open or in :meth:`_validate`: an ``is_alias``-only
        client never pays for it).  A mapped image's span columns index the
        table, so they are range-checked here first.

        An encoded image has at most one group per pointer plus one per
        object, so the dense table costs no more than a timestamp column.
        A payload with sparser timestamps (hand-built, or a forged group
        count) gets a table that bisects per lookup instead.
        """
        if self._mapped:
            for name, view in (("ent_y1", self._ent_y1), ("ent_y2", self._ent_y2),
                               ("c1_x1", self._c1_x1), ("c1_x2", self._c1_x2)):
                if not _below(view, self.n_groups):
                    raise CorruptFileError("flat %s entry outside group range" % name)
        timestamps = self._sorted_ptr_ts.tolist()
        if self.n_groups > self.n_pointers + self.n_objects:
            return _BisectRuns(timestamps)
        return array("I", map(partial(bisect_left, timestamps),
                              range(self.n_groups + 1)))

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _check_pointer(self, pointer: int) -> None:
        if not 0 <= pointer < self.n_pointers:
            raise IndexError(
                "pointer id %d out of range [0, %d)" % (pointer, self.n_pointers)
            )

    def _check_object(self, obj: int) -> None:
        if not 0 <= obj < self.n_objects:
            raise IndexError("object id %d out of range [0, %d)" % (obj, self.n_objects))

    def _pointers_in_range(self, lo: int, hi: int) -> List[int]:
        pos = self._run_starts
        return self._sorted_ptr_id[pos[lo]:pos[hi + 1]].tolist()

    def _pes_range_of_rank(self, rank: int) -> Tuple[int, int]:
        """The timestamp block ``[I, next_I)`` of the PES at origin ``rank``."""
        lo = self._origin_ts[rank]
        if rank + 1 < self.n_objects:
            return lo, self._origin_ts[rank + 1] - 1
        return lo, self.n_groups - 1

    def _slab_range(self, column: int) -> Tuple[int, int]:
        """The ``[lo, hi)`` entry range of the slab containing ``column``."""
        slab = bisect_right(self._slab_breaks, column) - 1
        if slab < 0:
            return 0, 0
        return self._slab_offsets[slab], self._slab_offsets[slab + 1]

    def _covers(self, x: int, y: int) -> bool:
        """Whether a slab entry at column ``x`` spans timestamp ``y``."""
        lo, hi = self._slab_range(x)
        index = bisect_right(self._ent_y1, y, lo, hi) - 1
        return index >= lo and self._ent_y2[index] >= y

    def _object_at_origin_ts(self, ts: int) -> int:
        rank = bisect_left(self._origin_ts, ts)
        if rank == self.n_objects or self._origin_ts[rank] != ts:
            raise CorruptFileError(
                "case-1 entry y1=%d is not an object origin timestamp" % ts
            )
        return self._origin_obj[rank]

    def pes_of(self, pointer: int) -> Optional[int]:
        """The PES identifier (object id) of ``pointer``, if tracked."""
        self._ready(rects=False)
        self._check_pointer(pointer)
        rank = self._pes_rank[pointer]
        return None if rank == ABSENT else self._origin_obj[rank]

    # ------------------------------------------------------------------
    # Table 1 queries
    # ------------------------------------------------------------------

    def is_alias(self, p: int, q: int) -> bool:
        """Decide whether pointers ``p`` and ``q`` may alias — O(log n)."""
        self._ready(rects=False)
        self._check_pointer(p)
        self._check_pointer(q)
        ts_p = self._ptr_ts[p]
        ts_q = self._ptr_ts[q]
        if ts_p == ABSENT or ts_q == ABSENT:
            return False
        if p == q:
            return True
        if self._pes_rank[p] == self._pes_rank[q]:
            return True  # internal pair
        self._ready()
        return self._covers(*((ts_p, ts_q) if ts_p < ts_q else (ts_q, ts_p)))

    def is_alias_batch(self, pairs: Sequence[Tuple[int, int]]) -> List[bool]:
        """Answer many IsAlias queries, amortising the slab lookups."""
        self._ready(rects=False)
        results = [False] * len(pairs)
        jobs: List[Tuple[int, int, int]] = []
        for position, (p, q) in enumerate(pairs):
            self._check_pointer(p)
            self._check_pointer(q)
            ts_p = self._ptr_ts[p]
            ts_q = self._ptr_ts[q]
            if ts_p == ABSENT or ts_q == ABSENT:
                continue
            if p == q or self._pes_rank[p] == self._pes_rank[q]:
                results[position] = True
                continue
            x, y = (ts_p, ts_q) if ts_p < ts_q else (ts_q, ts_p)
            jobs.append((x, y, position))
        if not jobs:
            return results
        self._ready()
        jobs.sort()
        ent_y1, ent_y2 = self._ent_y1, self._ent_y2
        column, lo, hi = -1, 0, 0
        for x, y, position in jobs:
            if x != column:
                lo, hi = self._slab_range(x)
                column = x
            index = bisect_right(ent_y1, y, lo, hi) - 1
            results[position] = index >= lo and ent_y2[index] >= y
        return results

    def column_of(self, pointer: int) -> Optional[int]:
        """The ptList column (pre-order timestamp) of ``pointer``."""
        self._ready(rects=False)
        self._check_pointer(pointer)
        ts = self._ptr_ts[pointer]
        return None if ts == ABSENT else ts

    def list_aliases(self, p: int) -> List[int]:
        """All pointers aliased to ``p`` — O(answer size)."""
        return unpack_ids(self.list_aliases_packed(p))

    def list_aliases_packed(self, p: int) -> bytes:
        """:meth:`list_aliases` as little-endian ``uint32`` bytes.

        The answer is a join of runs of ``sorted_ptr_id``: ``p``'s PES run
        with ``p`` cut out, then one run per slab entry at ``p``'s column,
        in stored order.  No Python work is done per id.
        """
        self._ready(runs=True)
        self._check_pointer(p)
        ts_p = self._ptr_ts[p]
        if ts_p == ABSENT:
            return b""
        pos = self._run_starts
        ids = self._sorted_ptr_id
        lo, hi = self._pes_range_of_rank(self._pes_rank[p])
        cut = stop = -1
        if lo <= ts_p <= hi:
            # p sits in its equal-timestamp group, which is sorted by id.
            stop = pos[ts_p + 1]
            cut = bisect_left(ids, p, pos[ts_p], stop)
        if cut == stop or ids[cut] != p:
            raise CorruptFileError(
                "pointer %d is missing from its timestamp group" % p)
        runs = [ids[pos[lo]:cut], ids[cut + 1:pos[hi + 1]]]
        lo, hi = self._slab_range(ts_p)
        runs += [ids[pos[y1]:pos[y2 + 1]]
                 for y1, y2 in zip(self._ent_y1[lo:hi], self._ent_y2[lo:hi])]
        return _join_runs(runs)

    def points_to_contains(self, p: int, obj: int) -> bool:
        """Membership test ``obj ∈ points-to(p)`` in O(log n).

        ``p`` points to ``obj`` iff ``obj`` is ``p``'s own PES object or a
        Case-1 span of ``obj`` covers ``p``'s column; the per-object spans
        are sorted and disjoint, so one predecessor search decides the
        latter.  This is the primitive the delta overlay uses to normalise
        edits against the immutable base.
        """
        self._ready()
        self._check_pointer(p)
        self._check_object(obj)
        ts_p = self._ptr_ts[p]
        if ts_p == ABSENT:
            return False
        if self._pes_rank[p] == self._obj_rank[obj]:
            return True
        lo, hi = self._c1_offsets[obj], self._c1_offsets[obj + 1]
        index = bisect_right(self._c1_x1, ts_p, lo, hi) - 1
        return index >= lo and self._c1_x2[index] >= ts_p

    def list_points_to(self, p: int) -> List[int]:
        """The points-to set of ``p``."""
        return unpack_ids(self.list_points_to_packed(p))

    def list_points_to_packed(self, p: int) -> bytes:
        """:meth:`list_points_to` as little-endian ``uint32`` bytes."""
        self._ready()
        self._check_pointer(p)
        ts_p = self._ptr_ts[p]
        if ts_p == ABSENT:
            return b""
        result = [self._origin_obj[self._pes_rank[p]]]
        ent_y1, ent_flags = self._ent_y1, self._ent_flags
        lo, hi = self._slab_range(ts_p)
        for index in range(lo, hi):
            if ent_flags[index] == FLAT_CASE1:  # case-1 and not mirrored
                result.append(self._object_at_origin_ts(ent_y1[index]))
        return pack_ids(result)

    def list_pointed_by(self, obj: int) -> List[int]:
        """All pointers that may point to ``obj``."""
        return unpack_ids(self.list_pointed_by_packed(obj))

    def list_pointed_by_packed(self, obj: int) -> bytes:
        """:meth:`list_pointed_by` as little-endian ``uint32`` bytes: the
        run of ``obj``'s PES, then one run per Case-1 span of ``obj``."""
        self._ready(runs=True)
        self._check_object(obj)
        pos = self._run_starts
        ids = self._sorted_ptr_id
        lo, hi = self._pes_range_of_rank(self._obj_rank[obj])
        runs = [ids[pos[lo]:pos[hi + 1]]]
        lo, hi = self._c1_offsets[obj], self._c1_offsets[obj + 1]
        runs += [ids[pos[x1]:pos[x2 + 1]]
                 for x1, x2 in zip(self._c1_x1[lo:hi], self._c1_x2[lo:hi])]
        return _join_runs(runs)

    def iter_alias_pairs(self):
        """Yield every unordered alias pair ``(p, q)`` with ``p < q`` once.

        Internal pairs stream from the PES blocks; cross pairs come straight
        from the stored rectangles (pairwise disjoint, so no pair repeats),
        which a container parses on first use.  This is the bulk route for
        whole-program clients — no per-pointer query loop.
        """
        self._ready(runs=True)
        for rank in range(self.n_objects):
            lo, hi = self._pes_range_of_rank(rank)
            members = self._pointers_in_range(lo, hi)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    p, q = members[i], members[j]
                    yield (p, q) if p < q else (q, p)
        for rect, _case1 in self._rect_list():
            x_members = self._pointers_in_range(rect.x1, rect.x2)
            y_members = self._pointers_in_range(rect.y1, rect.y2)
            for p in x_members:
                for q in y_members:
                    yield (p, q) if p < q else (q, p)

    # ------------------------------------------------------------------
    # Bulk reconstruction / accounting
    # ------------------------------------------------------------------

    def materialize(self) -> PointsToMatrix:
        """Recover the full points-to matrix ``PM`` from the columns."""
        self._ready()  # a corrupt header count fails here, before the allocation
        matrix = PointsToMatrix(self.n_pointers, self.n_objects)
        for pointer in range(self.n_pointers):
            for obj in self.list_points_to(pointer):
                matrix.add(pointer, obj)
        return matrix

    def stored_entries(self) -> int:
        """Rectangle entries the ptList stores: one per slab it stabs.

        Table 7's memory trade against a segment tree, which stores each
        rectangle once, is compared in this unit.
        """
        self._ready()
        return len(self._ent_y1)

    def memory_footprint(self) -> int:
        """Bytes of column data the queries read (Table 7's memory column).

        Mapped ``PESTRIE4`` columns are file pages shared read-only across
        processes; derived columns are packed arrays the index owns.
        """
        self._ready()
        total = self._ptr_ts.nbytes + self._obj_ts.nbytes + self._ent_flags.nbytes
        for view in (self._origin_ts, self._origin_obj, self._obj_rank,
                     self._pes_rank, self._sorted_ptr_ts, self._sorted_ptr_id,
                     self._slab_breaks, self._slab_offsets, self._ent_y1,
                     self._ent_y2, self._c1_offsets, self._c1_x1, self._c1_x2):
            total += view.nbytes
        return total


__all__ = [
    "FLAT_CASE1",
    "FLAT_MIRRORED",
    "FlatIndex",
    "N_FLAT_SECTIONS",
    "PACKED_QUERIES",
    "build_flat_sections",
    "pack_ids",
    "packed_answer",
    "unpack_ids",
]
