"""Durable delta operations: append records to a file, load it back, compact.

The on-disk shape is LSM-like: one immutable ``PESTRIE3`` (or ``PESTRIE4``)
base image followed by zero or more checksummed DELTA records (see
:mod:`repro.delta.format`).
:func:`append_delta` extends the chain without re-encoding the base — the
whole point of the subsystem — and :func:`compact_file` folds the chain back
into a fresh base image once the overlay outgrows its threshold.

Every path here verifies before it trusts, through the mmap-backed store
layer: opening a :class:`repro.store.Container` checks the base CRC exactly
once, the existing record chain is decoded with the hostile-input codec
before anything is written, and the parsed header is reused for dimension
checks and compaction decisions instead of re-reading the file.  Appends
are in-place (write + fsync after the chain) — O(record), not O(file); a
crash mid-append can leave a torn final record, which the loader rejects
with :class:`CorruptFileError` exactly like any other corrupt tail.
Compaction rewrites go through :func:`repro.core.ioutil.atomic_write`, so
readers never observe a half-written base image.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..core.decoder import CorruptFileError
from ..core.ioutil import atomic_write
from ..core.pipeline import encode
from ..core.flat import FlatIndex
from ..obs import get_flight_recorder, get_registry, record_delta_health, trace
from .format import decode_record, encode_record
from .log import DeltaLog
from .overlay import DEFAULT_COMPACTION_RATIO, OverlayIndex


@dataclass(frozen=True)
class AppendResult:
    """What :func:`append_delta` did to the file."""

    #: Bytes appended (0 when the log netted to nothing).
    bytes_appended: int
    #: Total file size after the operation.
    file_size: int
    #: Net delta records now trailing the base (0 after a compaction — the
    #: epoch watermark record left behind carries no facts and is not
    #: counted).
    record_count: int
    #: The epoch the appended record was stamped with (the file's new head
    #: version), or the preserved head after a compaction; 0 for a no-op.
    epoch: int
    #: ``|Δ| / base facts`` after the operation; only computed when an
    #: ``auto_compact_ratio`` was given (it needs a full overlay build).
    delta_ratio: Optional[float]
    #: True when the append tripped the threshold and the file was re-encoded.
    compacted: bool


def _delta_container(container) -> None:
    """Reject containers whose base cannot legally carry a DELTA chain."""
    if container.version < 3:
        raise CorruptFileError(
            "delta records require a PESTRIE3/PESTRIE4 base (file is format "
            "v%d); re-encode it first" % container.version
        )


def _records_to_log(records) -> DeltaLog:
    log = DeltaLog()
    for record in records:
        for pointer, obj in record.inserts:
            log.insert(pointer, obj)
        for pointer, obj in record.deletes:
            log.delete(pointer, obj)
    return log


def tail_to_log(data: bytes) -> DeltaLog:
    """Decode a file image's DELTA chain into one composed :class:`DeltaLog`."""
    from ..store import Container

    with Container.from_bytes(data) as container:
        _delta_container(container)
        return _records_to_log(container.tail_records())


def _container_for(path: str, lazy: bool):
    """Map ``path`` for a lazy load; read it into owned bytes for an eager one."""
    from ..store import Container

    if lazy:
        return Container.open(path)
    with open(path, "rb") as stream:
        return Container.from_bytes(stream.read())


def _over_base(container, lazy: bool, wrap):
    """``wrap(base, records)`` over a delta-capable container.

    ``base`` is the container's :class:`FlatIndex` (columns built now unless
    ``lazy``) and ``records`` its decoded DELTA chain.  On failure the index
    — or, before it exists, the bare container — is closed.
    """
    owner = container
    try:
        _delta_container(container)
        records = container.tail_records()
        owner = base = FlatIndex(container)
        return wrap(base if lazy else base.load(), records)
    except BaseException:
        owner.close()
        raise


def _overlay(base: FlatIndex, records) -> OverlayIndex:
    return OverlayIndex(base, _records_to_log(records))


def overlay_from_bytes(data: bytes, lazy: bool = False) -> OverlayIndex:
    """Decode a base-plus-delta image into a query-ready :class:`OverlayIndex`.

    A plain image (no trailing records) yields an overlay with an empty
    delta, so callers can use this unconditionally for ``PESTRIE3`` files.
    The base CRC is verified exactly once, at container open; ``lazy=True``
    defers the base columns to the first query.
    """
    from ..store import Container

    return _over_base(Container.from_bytes(data), lazy, _overlay)


def load_overlay(path: str, lazy: bool = False) -> OverlayIndex:
    """Read a persistent file (with any DELTA tail) into an overlay index.

    With ``lazy=True`` the file is mmap-ped and the base columns build on
    first query (the delta edits themselves are normalised up front); the
    mapping stays open — release it with ``overlay.close()`` when done.
    Eager loads read the file into bytes the overlay owns and build the
    base before returning.
    """
    return _over_base(_container_for(path, lazy), lazy, _overlay)


def append_delta(path: str, log: DeltaLog, compact: Optional[bool] = None,
                 auto_compact_ratio: Optional[float] = None) -> AppendResult:
    """Append ``log``'s net effect to the file as one DELTA record.

    The base image and the existing record chain are verified first —
    extending a file we cannot fully decode would launder corruption into
    the chain.  The record is stamped with the next epoch (chain head plus
    one), so every append is a durable new version answerable via
    :meth:`repro.delta.VersionedOverlay.as_of`.  ``compact`` selects the
    record's integer coding (default: whatever the base image uses).  With
    ``auto_compact_ratio`` set, the file is re-encoded in place when the
    post-append overlay exceeds that ``|Δ|/facts`` ratio, resetting the
    chain to a single watermark record that preserves the epoch head.
    """
    start = time.perf_counter()
    with trace.span("delta.append", path=path, ops=len(log)):
        result = _append_delta(path, log, compact, auto_compact_ratio)
    registry = get_registry()
    if result.bytes_appended or result.compacted:
        registry.counter("repro_delta_appends_total").inc()
        registry.histogram("repro_delta_append_seconds").observe(
            time.perf_counter() - start)
        get_flight_recorder().record(
            "delta_append", path=path, ops=len(log),
            epoch=result.epoch, bytes=result.bytes_appended,
            compacted=result.compacted,
            seconds=round(time.perf_counter() - start, 6))
    record_delta_health(result.record_count,
                        net_ops=len(log.net()[0]) + len(log.net()[1]),
                        ratio=result.delta_ratio, trigger=auto_compact_ratio)
    return result


def _append_delta(path: str, log: DeltaLog, compact: Optional[bool],
                  auto_compact_ratio: Optional[float]) -> AppendResult:
    from ..store import Container

    container = Container.open(path)
    base = None
    try:
        # One container open = one CRC pass over the base; the parsed header
        # supplies the dimensions and the integer coding from here on.
        _delta_container(container)
        existing = container.tail_records()
        old_size = container.size

        chain = [record for record in existing if not record.watermark]
        head = existing[-1].epoch if existing else 0
        epoch = head + 1

        inserts, deletes = log.net()
        if not inserts and not deletes:
            return AppendResult(
                bytes_appended=0,
                file_size=old_size,
                record_count=len(chain),
                epoch=0,
                delta_ratio=None,
                compacted=False,
            )

        if compact is None:
            compact = container.compact
        # Stamp the record with the next epoch: the append is a new durable
        # version, and the stamp is what lets as_of() find it again.
        record = encode_record(inserts, deletes, compact=compact, epoch=epoch)
        # Round-trip the fresh record against the base dimensions: out-of-range
        # fact ids are rejected here, before anything touches the disk.
        decode_record(record, 0, container.n_pointers, container.n_objects)

        if auto_compact_ratio is None:
            size = container.append_tail(record)
            return AppendResult(
                bytes_appended=len(record),
                file_size=size,
                record_count=len(chain) + 1,
                epoch=epoch,
                delta_ratio=None,
                compacted=False,
            )

        # The compaction decision needs the post-append overlay; build it
        # from the already-open container (base parsed once) plus the chain
        # and the incoming log — no re-read, no second CRC pass.
        combined = _records_to_log(existing)
        for pointer, obj in inserts:
            combined.insert(pointer, obj)
        for pointer, obj in deletes:
            combined.delete(pointer, obj)
        base = FlatIndex(container)
        overlay = OverlayIndex(base, combined)
        ratio = overlay.delta_ratio()
        if not overlay.needs_compaction(auto_compact_ratio):
            size = container.append_tail(record)
            return AppendResult(
                bytes_appended=len(record),
                file_size=size,
                record_count=len(chain) + 1,
                epoch=epoch,
                delta_ratio=ratio,
                compacted=False,
            )
        base_version = container.version
        matrix = overlay.materialize()
        base.close()  # release the mapping before the atomic replace
        # Preserve the base format: auto-compacting a PESTRIE4 file must not
        # silently downgrade it to v3 and lose the flat query sections.
        # The new epoch (the edit that tripped the threshold) becomes the
        # watermark: the compacted base *is* that version's state.
        size = _compact_matrix(matrix, overlay.delta_size(), path,
                               compact=compact, version=base_version,
                               watermark=epoch)
        return AppendResult(
            bytes_appended=size - old_size,
            file_size=size,
            record_count=0,
            epoch=epoch,
            delta_ratio=0.0,
            compacted=True,
        )
    finally:
        if base is not None:
            base.close()
        container.close()


def _compact_matrix(matrix, net_ops: int, path: str, order: str = "hub",
                    compact: bool = False, version: int = 3,
                    watermark: int = 0) -> int:
    """Re-encode an overlay's effective ``matrix`` to ``path``; return the size.

    With ``watermark`` set, a single empty epoch-stamped watermark record
    is written after the fresh base — in the *same* atomic replace, so no
    crash window can produce a compacted file that silently forgot which
    versions it folded away.
    """
    start = time.perf_counter()
    with trace.span("delta.compact", path=path, net_ops=net_ops):
        data = encode(matrix, order=order, compact=compact, version=version)
        if watermark:
            data += encode_record((), (), compact=compact, epoch=watermark,
                                  watermark=True)
        with trace.span("persist.write", path=path):
            atomic_write(path, data)
        size = len(data)
    registry = get_registry()
    registry.counter("repro_delta_compactions_total").inc()
    registry.histogram("repro_delta_compact_seconds").observe(
        time.perf_counter() - start)
    get_flight_recorder().record(
        "compaction", path=path, net_ops=net_ops,
        bytes=size, watermark=watermark,
        seconds=round(time.perf_counter() - start, 6))
    return size


def compact_file(path: str, out: Optional[str] = None, order: str = "hub",
                 compact: Optional[bool] = None,
                 version: Optional[int] = None) -> int:
    """Fold a file's DELTA chain into a fresh base image (full re-encode).

    Writes to ``out`` (default: in place), inheriting the base's format
    version and integer coding unless ``version``/``compact`` override
    them.  When the chain carried any epochs, the rewrite keeps a single
    watermark record after the new base so the epoch head survives:
    ``as_of`` on a pre-compaction version then fails loudly
    (:class:`~repro.delta.versions.VersionUnavailableError`) instead of
    answering from the wrong state.  Returns the new file size.  This is
    the expensive half of the LSM bargain — amortised by only triggering
    it past :data:`~repro.delta.overlay.DEFAULT_COMPACTION_RATIO`.
    """
    from ..store import Container

    with Container.open(path) as container:
        if compact is None:
            compact = container.compact
        if version is None:
            version = container.version
        records = container.tail_records()
        head = records[-1].epoch if records else 0
        overlay = _over_base(container, True, _overlay)
        try:
            matrix = overlay.materialize()
        finally:
            overlay.close()
    size = _compact_matrix(matrix, overlay.delta_size(), out or path,
                           order=order, compact=compact, version=version,
                           watermark=head)
    record_delta_health(0, net_ops=0, ratio=0.0)
    return size
