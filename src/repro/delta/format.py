"""On-disk DELTA record codec.

A ``PESTRIE3`` image is immutable — its CRC32 trailer covers every byte —
so incremental updates are persisted LSM-style: self-contained, individually
checksummed DELTA records appended *after* the trailer.  The base header's
per-section byte lengths make the base/delta boundary computable without
trusting anything behind it (:func:`repro.core.decoder.base_image_size`),
and each record carries its own CRC32, so the whole chain is verifiable
front to back.

Record layout (all fixed-width integers little-endian)::

    offset 0   magic "PESDELT1"        8 bytes
    offset 8   flags                   1 byte   (bit 0: compact coding;
                                                 other bits reserved, must be 0)
    offset 9   n_insert                uint32
    offset 13  n_delete                uint32
    offset 17  payload length          uint32
    offset 21  payload                 insert facts, then delete facts
    trailer    CRC32                   uint32 over offsets [0, 21 + payload)

The MVCC variant ``PESDELT2`` inserts one epoch word after the flags::

    offset 0   magic "PESDELT2"        8 bytes
    offset 8   flags                   1 byte   (bit 0: compact coding;
                                                 bit 1: compaction watermark;
                                                 other bits reserved, must be 0)
    offset 9   epoch                   uint32  (must be >= 1)
    offset 13  n_insert                uint32
    offset 17  n_delete                uint32
    offset 21  payload length          uint32
    offset 25  payload                 insert facts, then delete facts
    trailer    CRC32                   uint32 over offsets [0, 25 + payload)

The epoch stamps give every record in a chain a durable version number.
Legacy ``PESDELT1`` records carry no stamp; :func:`decode_records` assigns
them implicit epochs ``previous + 1`` in file order, so a pre-MVCC chain
reads as versions ``1..k`` and mixed chains stay well-defined.  Stamped
epochs must be strictly increasing along the chain (an equal or smaller
stamp is corruption, not an opinion).  A *watermark* record (bit 1, legal
only as the first record of a chain, with zero facts) marks the epoch a
compaction folded into the base image: versions at or below it live in
the base, versions strictly below it are gone and must fail loudly.

Each fact is a ``(pointer, object)`` pair.  Within a record both lists are
strictly sorted by ``(pointer, object)`` and disjoint from each other (a
record stores the *net* effect of an edit script — last op per fact wins),
which makes the encoder canonical: the same net edit always produces
identical bytes.  Raw coding stores two ``uint32`` per fact; compact coding
delta-codes the pointer against the previous fact's pointer and stores the
object as a plain varint.

Decoding treats every input as hostile, mirroring the base decoder: counts
are validated against the declared payload length before allocation, the
CRC is checked before the payload is parsed, and every violation raises
:class:`~repro.core.decoder.CorruptFileError` — never a wrong answer.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence, Tuple

from ..core.decoder import CorruptFileError, _Reader, base_image_size
from ..core.encoder import FLAG_COMPACT, MAGIC_DELTA, MAGIC_DELTA2, _write_varint
from ..core.ioutil import crc32

_U32 = struct.Struct("<I")

#: Record flag bit 1: this (empty) record is a compaction watermark.
FLAG_WATERMARK = 0x02

#: Fixed-size record prefix: magic, flags, n_insert, n_delete, payload length.
_RECORD_HEADER = 8 + 1 + 3 * 4
_RECORD_MIN_SIZE = _RECORD_HEADER + 4
#: PESDELT2 adds the uint32 epoch word between flags and the counts.
_RECORD_HEADER_V2 = _RECORD_HEADER + 4
_RECORD_MIN_SIZE_V2 = _RECORD_HEADER_V2 + 4

Fact = Tuple[int, int]


@dataclass(frozen=True)
class DeltaRecord:
    """One decoded DELTA record: net insertions and deletions, sorted.

    ``epoch`` is the record's version number.  For a stamped (``PESDELT2``)
    record it is the on-disk stamp; for a legacy record decoded through
    :func:`decode_records` it is the implicit file-order epoch, and for a
    single :func:`decode_record` call it is ``None`` (one legacy record in
    isolation has no epoch).  ``stamped`` distinguishes the two so
    re-encoding stays byte-exact.
    """

    inserts: Tuple[Fact, ...]
    deletes: Tuple[Fact, ...]
    compact: bool
    epoch: Optional[int] = None
    stamped: bool = False
    watermark: bool = False

    def __len__(self) -> int:
        return len(self.inserts) + len(self.deletes)


def _check_facts(kind: str, facts: Sequence[Fact]) -> None:
    previous = None
    for fact in facts:
        pointer, obj = fact
        if pointer < 0 or obj < 0 or pointer > 0xFFFFFFFF or obj > 0xFFFFFFFF:
            raise ValueError("%s fact %r outside the uint32 id domain" % (kind, fact))
        if previous is not None and fact <= previous:
            raise ValueError("%s facts must be strictly sorted; %r follows %r"
                             % (kind, fact, previous))
        previous = fact


def _encode_facts(facts: Sequence[Fact], compact: bool) -> bytes:
    if not compact:
        return b"".join(_U32.pack(value) for fact in facts for value in fact)
    out = bytearray()
    previous_pointer = 0
    for pointer, obj in facts:
        _write_varint(out, pointer - previous_pointer)
        _write_varint(out, obj)
        previous_pointer = pointer
    return bytes(out)


def encode_record(inserts: Iterable[Fact], deletes: Iterable[Fact],
                  compact: bool = False, epoch: Optional[int] = None,
                  watermark: bool = False) -> bytes:
    """Serialise one net edit into a checksummed DELTA record.

    ``inserts``/``deletes`` are ``(pointer, object)`` facts; they are sorted
    here, must be duplicate-free, and must not share a fact (an edit script
    nets to at most one op per fact — see :meth:`repro.delta.DeltaLog.net`).

    With ``epoch=None`` the record is a legacy ``PESDELT1`` (no version
    stamp); a positive ``epoch`` produces the stamped ``PESDELT2`` variant.
    ``watermark=True`` (stamped only) encodes a compaction watermark, which
    must carry no facts.
    """
    ins = sorted(set(inserts))
    dels = sorted(set(deletes))
    _check_facts("insert", ins)
    _check_facts("delete", dels)
    overlap = set(ins) & set(dels)
    if overlap:
        raise ValueError("facts %r are both inserted and deleted in one record"
                         % sorted(overlap))
    if epoch is not None and not 1 <= epoch <= 0xFFFFFFFF:
        raise ValueError("epoch stamp %r outside the positive uint32 domain" % (epoch,))
    if watermark:
        if epoch is None:
            raise ValueError("a watermark record needs an epoch stamp")
        if ins or dels:
            raise ValueError("a watermark record must carry no facts")
    payload = _encode_facts(ins, compact) + _encode_facts(dels, compact)
    flags = FLAG_COMPACT if compact else 0
    if epoch is None:
        head = [MAGIC_DELTA, bytes([flags])]
    else:
        if watermark:
            flags |= FLAG_WATERMARK
        head = [MAGIC_DELTA2, bytes([flags]), _U32.pack(epoch)]
    body = b"".join(head + [
        _U32.pack(len(ins)),
        _U32.pack(len(dels)),
        _U32.pack(len(payload)),
        payload,
    ])
    return body + _U32.pack(crc32(body))


def _decode_fact_list(reader: _Reader, count: int, compact: bool,
                      n_pointers: int, n_objects: int, kind: str) -> Tuple[Fact, ...]:
    facts: List[Fact] = []
    previous: Fact = (-1, -1)
    previous_pointer = 0
    for _ in range(count):
        if compact:
            pointer = previous_pointer + reader.read_int()
            obj = reader.read_int()
            previous_pointer = pointer
        else:
            pointer = reader.read_u32()
            obj = reader.read_u32()
        if pointer >= n_pointers:
            raise CorruptFileError(
                "delta %s pointer %d outside base range [0, %d)" % (kind, pointer, n_pointers)
            )
        if obj >= n_objects:
            raise CorruptFileError(
                "delta %s object %d outside base range [0, %d)" % (kind, obj, n_objects)
            )
        fact = (pointer, obj)
        if fact <= previous:
            raise CorruptFileError(
                "delta %s facts not strictly sorted at %r" % (kind, fact)
            )
        previous = fact
        facts.append(fact)
    return tuple(facts)


def decode_record(data: bytes, offset: int, n_pointers: int,
                  n_objects: int) -> Tuple[DeltaRecord, int]:
    """Decode one DELTA record at ``offset``; return it and the next offset.

    Both the legacy ``PESDELT1`` and the stamped ``PESDELT2`` layouts are
    accepted; a legacy record comes back with ``epoch=None`` (its implicit
    epoch is a chain property, assigned by :func:`decode_records`).
    """
    remaining = len(data) - offset
    if remaining < _RECORD_MIN_SIZE:
        raise CorruptFileError(
            "truncated delta record at offset %d (%d bytes, minimum is %d)"
            % (offset, remaining, _RECORD_MIN_SIZE)
        )
    magic = bytes(data[offset : offset + 8])
    if magic == MAGIC_DELTA:
        stamped = False
        header_size = _RECORD_HEADER
    elif magic == MAGIC_DELTA2:
        stamped = True
        header_size = _RECORD_HEADER_V2
        if remaining < _RECORD_MIN_SIZE_V2:
            raise CorruptFileError(
                "truncated delta record at offset %d (%d bytes, PESDELT2 "
                "minimum is %d)" % (offset, remaining, _RECORD_MIN_SIZE_V2)
            )
    else:
        raise CorruptFileError(
            "bad delta record magic %r at offset %d" % (magic, offset)
        )
    flags = data[offset + 8]
    legal_flags = FLAG_COMPACT | (FLAG_WATERMARK if stamped else 0)
    if flags & ~legal_flags:
        raise CorruptFileError("unsupported delta record flags 0x%02x" % flags)
    compact = bool(flags & FLAG_COMPACT)
    watermark = bool(flags & FLAG_WATERMARK)
    epoch: Optional[int] = None
    if stamped:
        epoch = _U32.unpack_from(data, offset + 9)[0]
        if epoch == 0:
            raise CorruptFileError("delta record epoch stamp must be positive")
    n_insert, n_delete, payload_length = struct.unpack_from(
        "<3I", data, offset + header_size - 12
    )
    facts = n_insert + n_delete
    if watermark and facts:
        raise CorruptFileError(
            "watermark record declares %d facts; watermarks must be empty" % facts
        )
    # Validate the counts against the declared length before any allocation:
    # raw facts are exactly 8 bytes each, compact facts 2..10 bytes.
    if not compact and payload_length != 8 * facts:
        raise CorruptFileError(
            "delta record declares %d payload bytes for %d raw facts"
            % (payload_length, facts)
        )
    if compact and not 2 * facts <= payload_length <= 10 * facts:
        raise CorruptFileError(
            "delta record declares %d payload bytes for %d compact facts"
            % (payload_length, facts)
        )
    end = offset + header_size + payload_length
    if end + 4 > len(data):
        raise CorruptFileError(
            "delta record payload overruns the file (%d bytes needed, %d present)"
            % (end + 4 - offset, remaining)
        )
    stored = _U32.unpack_from(data, end)[0]
    actual = crc32(data[offset:end])
    if stored != actual:
        raise CorruptFileError(
            "delta record checksum mismatch (stored %08x, computed %08x)" % (stored, actual)
        )
    reader = _Reader(data, compact, offset=offset + header_size, end=end)
    inserts = _decode_fact_list(reader, n_insert, compact, n_pointers, n_objects, "insert")
    deletes = _decode_fact_list(reader, n_delete, compact, n_pointers, n_objects, "delete")
    if reader.offset != end:
        raise CorruptFileError(
            "delta record has %d unread trailing payload bytes" % (end - reader.offset)
        )
    if set(inserts) & set(deletes):
        raise CorruptFileError("delta record inserts and deletes a shared fact")
    record = DeltaRecord(inserts=inserts, deletes=deletes, compact=compact,
                         epoch=epoch, stamped=stamped, watermark=watermark)
    return record, end + 4


def decode_records(data: bytes, offset: int, n_pointers: int,
                   n_objects: int) -> List[DeltaRecord]:
    """Decode the chain of DELTA records from ``offset`` to end of input.

    Every returned record carries a resolved epoch: stamped records keep
    their on-disk stamp (which must strictly increase along the chain),
    legacy records take ``previous + 1`` in file order.  A watermark
    record is legal only at the chain head — compaction always rewrites
    the whole file, so a mid-chain watermark can only be corruption.
    """
    records: List[DeltaRecord] = []
    previous_epoch = 0
    while offset < len(data):
        record, offset = decode_record(data, offset, n_pointers, n_objects)
        if record.watermark and records:
            raise CorruptFileError(
                "watermark record at chain position %d; watermarks are only "
                "legal as the first record" % len(records)
            )
        if record.epoch is None:
            record = replace(record, epoch=previous_epoch + 1)
        elif record.epoch <= previous_epoch:
            raise CorruptFileError(
                "delta chain epoch regression: record stamped %d after epoch %d"
                % (record.epoch, previous_epoch)
            )
        previous_epoch = record.epoch
        records.append(record)
    return records


def chain_floor(records: Sequence[DeltaRecord]) -> int:
    """The compaction watermark of a resolved chain (0 when none).

    Versions strictly below the floor were folded into the base image by a
    compaction and can no longer be materialised; the floor itself *is*
    the base image's state.
    """
    if records and records[0].watermark:
        return records[0].epoch
    return 0


def split_image(data: bytes) -> Tuple[bytes, bytes]:
    """Split a file image into ``(base image, delta tail)``.

    Only ``PESTRIE3`` images can carry a tail (legacy formats have no
    self-delimiting header, so their base is the whole input and the tail is
    empty).  The split is purely structural — use
    :func:`repro.delta.overlay_from_bytes` for a verified decode.
    """
    boundary = base_image_size(data)
    return data[:boundary], data[boundary:]
