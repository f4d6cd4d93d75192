"""MVCC over the delta chain: materialise overlay state *as of* any epoch.

A persisted file is an immutable base image plus a chain of epoch-stamped
DELTA records (:mod:`repro.delta.format`).  Because the base never mutates
and records are append-only, every historical version of the points-to
relation is still in the file — state at epoch ``v`` is exactly the base
plus the prefix of records with ``epoch <= v``.  :class:`VersionedOverlay`
makes that first-class:

* :meth:`~VersionedOverlay.as_of` replays a record prefix into an
  immutable :class:`~repro.delta.overlay.OverlayIndex` snapshot — readers
  pin a snapshot by holding it, writers append behind their backs, and no
  locking beyond the construction lock is ever needed because snapshots
  share the base and never change;
* prefix overlays are built incrementally and cached, so ``as_of(k)``
  after ``as_of(k-1)`` costs one :meth:`OverlayIndex.extend`, not a
  replay from scratch;
* :meth:`~VersionedOverlay.diff` compares two versions touching only the
  pointers the intervening records dirtied — never a full id-space scan;
* the compaction watermark is honoured loudly: a version folded into the
  base by compaction raises :class:`VersionUnavailableError`, it never
  silently answers with the wrong state.

The timestamped ``version_link`` chains of flock's ``persistent_ptr`` are
the exemplar: versions form a monotone chain, and a reader's view is
fixed by the link it entered through.
"""

from __future__ import annotations

import threading
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.flat import FlatIndex
from .format import DeltaRecord, chain_floor
from .log import DeltaLog
from .overlay import OverlayIndex

Fact = Tuple[int, int]


class VersionUnavailableError(ValueError):
    """The requested version cannot be materialised from this file.

    Raised for versions strictly below the compaction watermark (their
    records were folded into the base image and destroyed) and for
    versions ahead of the chain head (the file has never seen them).
    Failing loudly here is the MVCC contract: a version query never
    answers from the wrong state.
    """


class VersionedOverlay:
    """Time-travel view over one base index and its resolved record chain.

    ``records`` must come from :func:`repro.delta.format.decode_records`
    (epochs resolved, watermark validated).  The overlay never mutates the
    base or the records; snapshots returned by :meth:`as_of` are immutable
    and stay valid for as long as the caller holds them — including after
    further appends to the underlying file, which this object will not
    see (reload to observe them).
    """

    def __init__(self, base: FlatIndex, records: Sequence[DeltaRecord]):
        self._base = base
        self._floor = chain_floor(records)
        self._records: Tuple[DeltaRecord, ...] = tuple(
            record for record in records if not record.watermark
        )
        self._epochs: Tuple[int, ...] = tuple(r.epoch for r in self._records)
        self.n_pointers = base.n_pointers
        self.n_objects = base.n_objects
        # Prefix overlays, index k = base + first k records; built lazily
        # and shared (overlays are immutable), guarded by one lock.
        self._prefixes: List[OverlayIndex] = [OverlayIndex(base)]
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def base(self) -> FlatIndex:
        return self._base

    @property
    def floor(self) -> int:
        """The compaction watermark: the oldest version still answerable."""
        return self._floor

    @property
    def head(self) -> int:
        """The newest version in the chain (the floor when it is empty)."""
        return self._epochs[-1] if self._epochs else self._floor

    @property
    def record_count(self) -> int:
        return len(self._records)

    def versions(self) -> List[int]:
        """Every epoch at which this file's state changed, oldest first.

        The floor leads the list: it is the base image's own version (0
        for a never-compacted file).
        """
        return [self._floor] + list(self._epochs)

    def records(self) -> Tuple[DeltaRecord, ...]:
        return self._records

    def close(self) -> None:
        """Release the base index's backing container, if it has one."""
        close = getattr(self._base, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------------
    # Time travel
    # ------------------------------------------------------------------

    def _check_version(self, version: int) -> None:
        if not isinstance(version, int) or isinstance(version, bool):
            raise TypeError("version must be an integer, got %r" % (version,))
        if version < self._floor:
            raise VersionUnavailableError(
                "version %d predates the compaction watermark %d: its delta "
                "records were folded into the base image and cannot be "
                "replayed" % (version, self._floor)
            )
        if version > self.head:
            raise VersionUnavailableError(
                "version %d is ahead of this file's head %d" % (version, self.head)
            )

    def _prefix_length(self, version: int) -> int:
        """How many chain records are visible at ``version``."""
        count = 0
        for epoch in self._epochs:
            if epoch > version:
                break
            count += 1
        return count

    def as_of(self, version: int) -> OverlayIndex:
        """An immutable snapshot of the overlay state at ``version``.

        The snapshot answers all four Table 1 queries as the file did at
        that epoch.  Versions between two record epochs resolve to the
        older record (state only changes at record epochs); versions
        outside ``[floor, head]`` raise :class:`VersionUnavailableError`.
        """
        self._check_version(version)
        return self._prefix_overlay(self._prefix_length(version))

    def head_overlay(self) -> OverlayIndex:
        """The snapshot at :attr:`head` — the file's current state."""
        return self._prefix_overlay(len(self._records))

    def _prefix_overlay(self, count: int) -> OverlayIndex:
        with self._lock:
            while len(self._prefixes) <= count:
                record = self._records[len(self._prefixes) - 1]
                log = DeltaLog()
                for pointer, obj in record.inserts:
                    log.insert(pointer, obj)
                for pointer, obj in record.deletes:
                    log.delete(pointer, obj)
                self._prefixes.append(self._prefixes[-1].extend(log))
            return self._prefixes[count]

    # ------------------------------------------------------------------
    # Cross-version differencing
    # ------------------------------------------------------------------

    def dirty_between(self, v1: int, v2: int) -> Tuple[FrozenSet[int], FrozenSet[int]]:
        """``(pointers, objects)`` touched by records between two versions.

        Only ids named by a record with ``min(v1, v2) < epoch <= max(v1,
        v2)`` can differ between the two states — everything else is
        provably identical, which is what keeps version diffs output-sized.
        """
        self._check_version(v1)
        self._check_version(v2)
        low, high = sorted((v1, v2))
        pointers: Set[int] = set()
        objects: Set[int] = set()
        for record in self._records:
            if record.epoch <= low:
                continue
            if record.epoch > high:
                break
            for pointer, obj in record.inserts:
                pointers.add(pointer)
                objects.add(obj)
            for pointer, obj in record.deletes:
                pointers.add(pointer)
                objects.add(obj)
        return frozenset(pointers), frozenset(objects)

    def diff(self, v1: int, v2: int) -> Tuple[List[Fact], List[Fact]]:
        """``(added, removed)`` facts going from version ``v1`` to ``v2``.

        Both lists are sorted.  Cost is proportional to the dirty pointer
        set and its rows, not the id space: the candidate set comes from
        :meth:`dirty_between`, then each candidate row is compared between
        the two snapshots.
        """
        old = self.as_of(v1)
        new = self.as_of(v2)
        pointers, _ = self.dirty_between(v1, v2)
        added: List[Fact] = []
        removed: List[Fact] = []
        for pointer in sorted(pointers):
            old_row = set(old.list_points_to(pointer))
            new_row = set(new.list_points_to(pointer))
            added.extend((pointer, obj) for obj in sorted(new_row - old_row))
            removed.extend((pointer, obj) for obj in sorted(old_row - new_row))
        return added, removed


def versions_from_bytes(data: bytes, lazy: bool = False) -> VersionedOverlay:
    """Decode a base-plus-delta image into a :class:`VersionedOverlay`.

    The epoch chain is resolved and validated up front (a hostile tail
    dies here as :class:`~repro.core.decoder.CorruptFileError`); snapshot
    materialisation is deferred to the first :meth:`~VersionedOverlay.as_of`,
    and ``lazy=True`` also defers the base columns to the first query.
    """
    from ..store import Container

    from .persist import _over_base

    return _over_base(Container.from_bytes(data), lazy, VersionedOverlay)


def load_versions(path: str, lazy: bool = False) -> VersionedOverlay:
    """Open a persistent file (with any DELTA tail) for time-travel queries.

    Mirrors :func:`repro.delta.load_overlay`: the base CRC and the whole
    record chain are verified once; ``lazy=True`` maps the file and defers
    the base columns to first query (close with
    :meth:`VersionedOverlay.close` when done), while an eager load reads
    the file into bytes the base index owns.
    """
    from .persist import _container_for, _over_base

    return _over_base(_container_for(path, lazy), lazy, VersionedOverlay)
