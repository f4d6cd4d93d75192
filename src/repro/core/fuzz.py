"""Round-trip fuzzing harness for the Pestrie persistent formats.

The persistence contract has exactly two legal outcomes for any input:

* a clean, uncorrupted file decodes to a payload whose materialised matrix
  equals the one that was encoded, and re-encoding that matrix reproduces
  the file byte-for-byte (the encoder is canonical);
* anything else — bit flips, truncations, appended garbage, spliced header
  counts — either still decodes to a payload satisfying every format
  invariant (possible only for the legacy un-checksummed versions) or
  raises :class:`~repro.core.decoder.CorruptFileError`.  Never a hang,
  never an uncontrolled exception.

For ``PESTRIE3`` and ``PESTRIE4`` the contract is strictly stronger: the
CRC32 trailer means *any* effective mutation must be rejected.  ``PESTRIE4``
cases additionally target the flat query sections specifically (they sit
behind the classic sections, so untargeted mutants rarely land there).
Every clean case, of every version, checks each Table 1 query of a lazily
opened :class:`~repro.core.flat.FlatIndex` against the source matrix.

Delta-bearing images (a ``PESTRIE3`` base followed by appended DELTA
records, see :mod:`repro.delta`) are fuzzed too.  Their clean contract:
the overlay decode reproduces the edited matrix, answers a seeded sample
of ``is_alias_batch`` and list queries (at every epoch of a stamped
chain) as the edited matrix does, and every record re-encodes
byte-exactly.  Their corruption contract: a mutated image
either raises :class:`~repro.core.decoder.CorruptFileError` or decodes to
the result of applying a *prefix* of the record chain — the one legal
survival, since truncating exactly at a record boundary is
indistinguishable from a shorter (valid) chain.  A decode to anything
else is a wrong answer, and a failure.

Every mutant is additionally opened as an index, eagerly (columns built
from bytes the index owns) and lazily (through a
:class:`~repro.store.Container`, columns at first touch).  Both must
mirror the decoder's verdict exactly: corruption surfaces as
:class:`CorruptFileError` at open or at first materialisation — never a
wrong answer, never an uncontrolled exception — and a mutant the decoder
legally accepts must materialise to the matrix its payload encodes,
expanded directly from the PES blocks and Case-1 rectangles rather than
through a second engine.

Run it as a module::

    python -m repro.core.fuzz --iterations 500 --seed 0

Exit status 0 means every case honoured the contract.  The harness is
deterministic: the same ``--seed`` explores the same cases, so a failing
case number is a reproducible bug report.
"""

from __future__ import annotations

import argparse
import random
import struct
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..matrix.points_to import PointsToMatrix
from .decoder import _V3_HEADER_END, CorruptFileError, decode_bytes
from .pipeline import encode, index_from_bytes

#: Mutation kinds applied to clean files.
MUTATIONS = ("bit_flip", "byte_set", "truncate", "extend", "splice_count")

#: Mutants whose decoded structures would be pathologically large are not
#: index-built (legacy files cannot prevent a mutated ``n_groups``); the
#: decode itself is still required to be clean.
_INDEX_GROUP_LIMIT = 100_000

#: Sentinel for a decoder verdict that leaves nothing for the index to
#: mirror (a failure was already recorded, or the index is too large).
_SKIP = object()


@dataclass
class FuzzFailure:
    """One contract violation, with enough context to replay it."""

    case: int
    version: int
    mutation: Optional[str]
    detail: str

    def __str__(self) -> str:
        stage = self.mutation or "clean"
        return "case %d (PESTRIE%d, %s): %s" % (self.case, self.version, stage, self.detail)


@dataclass
class FuzzReport:
    """Aggregate outcome of one :func:`run_fuzz` sweep."""

    cases: int = 0
    clean_round_trips: int = 0
    delta_round_trips: int = 0
    versioned_round_trips: int = 0
    as_of_checks: int = 0
    query_checks: int = 0
    corruptions: int = 0
    rejected: int = 0
    survived: int = 0
    lazy_checks: int = 0
    flat_checks: int = 0
    parallel_checks: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            "%d cases: %d clean round-trips (+%d delta-chain, %d versioned), "
            "%d as_of checks, %d query-path checks, "
            "%d corruptions (%d rejected, %d survived validation), "
            "%d lazy-parity checks, %d flat-parity checks, "
            "%d parallel-parity checks, %d failures"
            % (self.cases, self.clean_round_trips, self.delta_round_trips,
               self.versioned_round_trips, self.as_of_checks, self.query_checks,
               self.corruptions, self.rejected, self.survived,
               self.lazy_checks, self.flat_checks, self.parallel_checks,
               len(self.failures))
        )


def random_matrix(rng: random.Random, max_pointers: int = 24, max_objects: int = 10) -> PointsToMatrix:
    """A small random points-to matrix, spanning empty to dense shapes."""
    n_pointers = rng.randint(1, max_pointers)
    n_objects = rng.randint(1, max_objects)
    density = rng.choice((0.0, 0.05, 0.15, 0.4, 0.8))
    matrix = PointsToMatrix(n_pointers, n_objects)
    for pointer in range(n_pointers):
        for obj in range(n_objects):
            if rng.random() < density:
                matrix.add(pointer, obj)
    return matrix


def corrupt(rng: random.Random, data: bytes, delta_offset: Optional[int] = None,
            flat_offset: Optional[int] = None) -> tuple:
    """One random mutation of ``data``; returns ``(kind, mutated_bytes)``.

    With ``delta_offset`` given (the byte where appended DELTA records
    start), mutations target the record tail: flips and sets land inside
    it, truncation cuts within it (keeping the base image intact — the
    hardest case for the decoder, since the base alone is valid), and
    count splices hit a record's ``n_insert``/``n_delete``/length words.

    With ``flat_offset`` given (the byte where a ``PESTRIE4`` image's flat
    sections start), flips/sets/truncations land in the flat region and
    count splices hit one of the four flat count words — the bytes the
    zero-copy query engine reads directly.
    """
    kind = rng.choice(MUTATIONS)
    low = 0
    if delta_offset is not None:
        low = delta_offset
    elif flat_offset is not None:
        low = flat_offset
    blob = bytearray(data)
    if kind == "bit_flip":
        position = rng.randrange(low, len(blob))
        blob[position] ^= 1 << rng.randrange(8)
    elif kind == "byte_set":
        position = rng.randrange(low, len(blob))
        blob[position] = rng.randrange(256)
    elif kind == "truncate":
        blob = blob[: rng.randrange(low, len(blob))]
    elif kind == "extend":
        blob += bytes(rng.randrange(256) for _ in range(rng.randint(1, 12)))
    else:  # splice_count: overwrite a header word with a huge count
        if delta_offset is not None:
            position = low + 8 + 1 + 4 * rng.randrange(3)
        elif flat_offset is not None:
            position = _V3_HEADER_END + 4 * rng.randrange(4)
        else:
            position = 8 + 4 * rng.randrange(11)
        if position + 4 <= len(blob):
            value = rng.choice((0xFFFFFFFF, 0x7FFFFFFF, 0x10000, len(blob) * 8))
            blob[position : position + 4] = value.to_bytes(4, "little")
    if delta_offset is not None:
        kind = "delta_" + kind
    elif flat_offset is not None:
        kind = "flat_" + kind
    return kind, bytes(blob)


def _check_clean(case: int, version: int, compact: bool, order: str,
                 matrix: PointsToMatrix, data: bytes, report: FuzzReport) -> None:
    try:
        index = index_from_bytes(data)
        recovered = index.materialize()
    except Exception as error:  # noqa: BLE001 — any exception here is a bug
        report.failures.append(FuzzFailure(case, version, None,
                                           "clean file failed to decode: %r" % (error,)))
        return
    if recovered != matrix:
        report.failures.append(FuzzFailure(case, version, None,
                                           "materialised matrix differs from input"))
        return
    re_encoded = encode(recovered, order=order, compact=compact, version=version)
    if re_encoded != data:
        report.failures.append(FuzzFailure(case, version, None,
                                           "re-encoding is not byte-exact"))
        return
    report.clean_round_trips += 1


def _check_parallel(case: int, version: int, compact: bool, order: str,
                    matrix: PointsToMatrix, data: bytes, executor,
                    report: FuzzReport) -> None:
    """A 2-process staged encode must reproduce the serial bytes exactly."""
    from .stages import run_pipeline

    try:
        parallel = run_pipeline(matrix, order=order, compact=compact,
                                version=version, executor=executor)
    except Exception as error:  # noqa: BLE001 — any exception here is a bug
        report.failures.append(FuzzFailure(case, version, None,
                                           "parallel encode failed: %r" % (error,)))
        return
    if parallel != data:
        report.failures.append(FuzzFailure(case, version, None,
                                           "parallel encode is not byte-identical to serial"))
        return
    report.parallel_checks += 1


def _check_flat_clean(case: int, version: int, matrix: PointsToMatrix,
                      data: bytes, report: FuzzReport) -> None:
    """A lazily opened index must answer every Table 1 query like ``matrix``."""
    try:
        index = index_from_bytes(data, lazy=True)
    except Exception as error:  # noqa: BLE001 — any exception here is a bug
        report.failures.append(FuzzFailure(case, version, None,
                                           "clean lazy open failed: %r" % (error,)))
        return
    try:
        pointers = range(index.n_pointers)
        pairs = [(p, q) for p in pointers for q in pointers]
        if index.is_alias_batch(pairs) != [matrix.is_alias(p, q) for p, q in pairs]:
            report.failures.append(FuzzFailure(case, version, None,
                                               "is_alias_batch disagrees with the matrix"))
            return
        for p in pointers:
            q = (p * 7 + 3) % index.n_pointers
            if (index.is_alias(p, q) != matrix.is_alias(p, q)
                    or sorted(index.list_points_to(p)) != matrix.list_points_to(p)
                    or sorted(index.list_aliases(p)) != matrix.list_aliases(p)):
                report.failures.append(FuzzFailure(case, version, None,
                    "pointer query disagrees with the matrix at p=%d" % p))
                return
        for obj in range(index.n_objects):
            if sorted(index.list_pointed_by(obj)) != matrix.list_pointed_by(obj):
                report.failures.append(FuzzFailure(case, version, None,
                    "list_pointed_by disagrees with the matrix at obj=%d" % obj))
                return
        report.flat_checks += 1
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, None,
                                           "lazy query crashed: %r" % (error,)))
    finally:
        index.close()


def _payload_matrix(payload) -> PointsToMatrix:
    """The matrix a validated payload encodes, expanded without an index.

    A tracked pointer points to the object whose origin timestamp is the
    greatest one at or below its own (its PES), plus the object at ``y1``
    of every Case-1 rectangle whose x-range holds its timestamp.
    """
    origins = sorted((ts, obj) for obj, ts in enumerate(payload.object_ts))
    origin_ts = [ts for ts, _obj in origins]
    object_at = dict(origins)
    case1 = [(rect.x1, rect.x2, object_at[rect.y1])
             for rect, is_case1 in payload.rects if is_case1]
    matrix = PointsToMatrix(payload.n_pointers, payload.n_objects)
    for pointer, ts in enumerate(payload.pointer_ts):
        if ts is None:
            continue
        matrix.add(pointer, origins[bisect_right(origin_ts, ts) - 1][1])
        for x1, x2, obj in case1:
            if x1 <= ts <= x2:
                matrix.add(pointer, obj)
    return matrix


def _check_mutant(case: int, version: int, kind: str, mutated: bytes,
                  report: FuzzReport) -> None:
    report.corruptions += 1
    reference = _decoded_outcome(case, version, kind, mutated, report)
    if reference is not _SKIP:
        _check_index_mutant(case, version, kind, mutated, reference, report)


def _decoded_outcome(case: int, version: int, kind: str, mutated: bytes,
                     report: FuzzReport):
    """The decoder's verdict on ``mutated``: the reference for the index.

    Returns ``None`` when the bytes were rejected with
    :class:`CorruptFileError`, the payload's matrix (expanded directly, no
    index) when they survived, or :data:`_SKIP` when there is nothing for
    the index to mirror.
    """
    try:
        payload = decode_bytes(mutated)
    except CorruptFileError:
        report.rejected += 1
        return None
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, kind,
                                           "uncontrolled exception %r" % (error,)))
        return _SKIP
    if version >= 3:
        # The CRC makes acceptance of any effective mutation a bug.
        report.failures.append(FuzzFailure(case, version, kind,
                                           "PESTRIE%d accepted corrupted bytes" % version))
        return _SKIP
    # Legacy formats may accept a mutation that happens to stay inside the
    # format invariants; the index must then answer as the payload does.
    report.survived += 1
    if payload.n_groups > _INDEX_GROUP_LIMIT:
        return _SKIP
    return _payload_matrix(payload)


def _check_index_mutant(case: int, version: int, kind: str, mutated: bytes,
                        reference, report: FuzzReport) -> None:
    """Eager and lazy index opens must mirror the decoder's verdict.

    The eager open builds every column from bytes it owns; the lazy one
    reads through a container and builds at first touch.  Either way
    corruption surfaces as :class:`CorruptFileError` — at open or at the
    first query — and a mutant the decoder accepted must materialise to
    exactly the payload's matrix.
    """
    report.lazy_checks += 1
    for lazy in (False, True):
        label = "lazy" if lazy else "eager"
        index = None
        try:
            index = index_from_bytes(mutated, lazy=lazy)
            recovered = index.materialize()
        except CorruptFileError:
            if reference is not None:
                report.failures.append(FuzzFailure(case, version, kind,
                    "%s index rejected bytes the decoder accepted" % label))
            continue
        except Exception as error:  # noqa: BLE001 — uncontrolled escape
            report.failures.append(FuzzFailure(case, version, kind,
                "%s index uncontrolled exception %r" % (label, error)))
            continue
        finally:
            if index is not None:
                index.close()
        if reference is None:
            report.failures.append(FuzzFailure(case, version, kind,
                "%s index accepted bytes the decoder rejected" % label))
        elif recovered != reference:
            report.failures.append(FuzzFailure(case, version, kind,
                "%s index disagrees with the decoded payload" % label))


def _random_edits(rng: random.Random, matrix: PointsToMatrix):
    """A random edit script over ``matrix``'s id space, plus the edited matrix."""
    import copy

    from ..delta import DeltaLog

    log = DeltaLog()
    edited = copy.deepcopy(matrix)
    for _ in range(rng.randint(1, 8)):
        pointer = rng.randrange(matrix.n_pointers)
        obj = rng.randrange(matrix.n_objects)
        members = list(edited.rows[pointer])
        if members and rng.random() < 0.4:
            obj = rng.choice(members)  # bias deletions towards present facts
            log.delete(pointer, obj)
            edited.rows[pointer].discard(obj)
        elif rng.random() < 0.6:
            log.insert(pointer, obj)
            edited.add(pointer, obj)
        else:
            log.delete(pointer, obj)
            edited.rows[pointer].discard(obj)
    return log, edited


def _delta_chain(rng: random.Random, matrix: PointsToMatrix, data: bytes):
    """Append 1–2 random DELTA records to ``data``.

    Returns ``(image, prefix_matrices)`` where ``prefix_matrices[i]`` is
    the matrix after applying the first ``i`` records — the full set of
    answers a (possibly boundary-truncated) decode may legally produce.
    """
    from ..delta import encode_record

    image = data
    prefixes = [matrix]
    current = matrix
    for _ in range(rng.randint(1, 2)):
        log, current = _random_edits(rng, current)
        inserts, deletes = log.net()
        image += encode_record(inserts, deletes, compact=rng.random() < 0.5)
        prefixes.append(current)
    return image, prefixes


#: Pointers and objects sampled per query-path check.
_QUERY_SAMPLE = 6


def _query_mismatch(index, matrix: PointsToMatrix, rng: random.Random,
                    report: FuzzReport) -> Optional[str]:
    """The first sampled query ``index`` answers differently from ``matrix``.

    Checks ``is_alias_batch`` over every pair of a seeded pointer sample
    and the three list queries (as sets) on the sample and on a seeded
    object sample; ``None`` when all agree.
    """
    report.query_checks += 1
    pointers = rng.sample(range(matrix.n_pointers),
                          min(_QUERY_SAMPLE, matrix.n_pointers))
    objects = rng.sample(range(matrix.n_objects),
                         min(_QUERY_SAMPLE, matrix.n_objects))
    pairs = [(p, q) for p in pointers for q in pointers]
    if index.is_alias_batch(pairs) != [matrix.is_alias(p, q) for p, q in pairs]:
        return "is_alias_batch over pointers %r" % (pointers,)
    for p in pointers:
        if set(index.list_points_to(p)) != set(matrix.list_points_to(p)):
            return "list_points_to(%d)" % p
        if set(index.list_aliases(p)) != set(matrix.list_aliases(p)):
            return "list_aliases(%d)" % p
    for obj in objects:
        if set(index.list_pointed_by(obj)) != set(matrix.list_pointed_by(obj)):
            return "list_pointed_by(%d)" % obj
    return None


def _check_delta_clean(case: int, version: int, image: bytes, final: PointsToMatrix,
                       rng: random.Random, report: FuzzReport) -> None:
    from ..delta import decode_records, encode_record, overlay_from_bytes, split_image

    try:
        overlay = overlay_from_bytes(image)
        recovered = overlay.materialize()
        mismatch = _query_mismatch(overlay, final, rng, report)
    except Exception as error:  # noqa: BLE001 — any exception here is a bug
        report.failures.append(FuzzFailure(case, version, None,
                                           "clean delta image failed to decode: %r" % (error,)))
        return
    if recovered != final:
        report.failures.append(FuzzFailure(case, version, None,
                                           "overlay matrix differs from the edited input"))
        return
    if mismatch is not None:
        report.failures.append(FuzzFailure(case, version, None,
                                           "overlay answers %s wrongly" % mismatch))
        return
    base, tail = split_image(image)
    records = decode_records(image, len(base), overlay.n_pointers, overlay.n_objects)
    rebuilt = b"".join(
        encode_record(record.inserts, record.deletes, compact=record.compact,
                      epoch=record.epoch if record.stamped else None,
                      watermark=record.watermark)
        for record in records
    )
    if rebuilt != tail:
        report.failures.append(FuzzFailure(case, version, None,
                                           "delta record re-encoding is not byte-exact"))
        return
    report.delta_round_trips += 1


def _check_delta_mutant(case: int, version: int, kind: str, mutated: bytes,
                        prefixes: Sequence[PointsToMatrix], report: FuzzReport) -> None:
    from ..delta import overlay_from_bytes

    report.corruptions += 1
    try:
        recovered = overlay_from_bytes(mutated).materialize()
    except CorruptFileError:
        report.rejected += 1
        recovered = None
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, kind,
                                           "uncontrolled exception %r" % (error,)))
        return
    if recovered is not None:
        # Per-record CRCs leave exactly one legal survival: a truncation at
        # a record boundary, which is indistinguishable from a shorter chain
        # and must decode to the corresponding prefix application.
        if not any(recovered == prefix for prefix in prefixes):
            report.failures.append(FuzzFailure(case, version, kind,
                                               "delta image decoded to a non-prefix matrix"))
            return
        report.survived += 1
    _check_lazy_delta_mutant(case, version, kind, mutated, recovered, report)


def _check_lazy_delta_mutant(case: int, version: int, kind: str, mutated: bytes,
                             eager: Optional[PointsToMatrix],
                             report: FuzzReport) -> None:
    """A lazily opened overlay must mirror the eager overlay's verdict."""
    from ..delta import overlay_from_bytes

    report.lazy_checks += 1
    overlay = None
    try:
        overlay = overlay_from_bytes(mutated, lazy=True)
        recovered = overlay.materialize()
    except CorruptFileError:
        if eager is not None:
            report.failures.append(FuzzFailure(case, version, kind,
                "lazy overlay rejected an image the eager overlay accepted"))
        return
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, kind,
                                           "lazy overlay uncontrolled exception %r" % (error,)))
        return
    finally:
        if overlay is not None:
            overlay.close()
    if eager is None:
        report.failures.append(FuzzFailure(case, version, kind,
            "lazy overlay accepted an image the eager overlay rejected"))
    elif recovered != eager:
        report.failures.append(FuzzFailure(case, version, kind,
            "lazy overlay disagrees with the eager overlay"))


def _stamped_chain(rng: random.Random, matrix: PointsToMatrix, data: bytes):
    """Append 1–3 epoch-stamped (``PESDELT2``) records to ``data``.

    Returns ``(image, prefixes, spans)``: ``prefixes[k]`` is the matrix as
    of epoch ``k`` (index 0 is the base), and ``spans[i]`` is the
    ``(offset, length)`` of record ``i`` in the image — record ``i``
    carries epoch ``i + 1``.
    """
    from ..delta import encode_record

    image = data
    prefixes = [matrix]
    spans: List[Tuple[int, int]] = []
    current = matrix
    for index in range(rng.randint(1, 3)):
        log, current = _random_edits(rng, current)
        inserts, deletes = log.net()
        record = encode_record(inserts, deletes, compact=rng.random() < 0.5,
                               epoch=index + 1)
        spans.append((len(image), len(record)))
        image += record
        prefixes.append(current)
    return image, prefixes, spans


def _check_versioned_clean(case: int, version: int, image: bytes,
                           prefixes: Sequence[PointsToMatrix],
                           rng: random.Random, report: FuzzReport) -> None:
    """Every epoch of a clean stamped chain must replay to its exact prefix."""
    from ..delta import versions_from_bytes

    try:
        versioned = versions_from_bytes(image)
        if versioned.floor != 0 or versioned.head != len(prefixes) - 1:
            report.failures.append(FuzzFailure(case, version, None,
                "versioned chain resolved to [%d, %d], expected [0, %d]"
                % (versioned.floor, versioned.head, len(prefixes) - 1)))
            return
        for epoch, prefix in enumerate(prefixes):
            report.as_of_checks += 1
            overlay = versioned.as_of(epoch)
            if overlay.materialize() != prefix:
                report.failures.append(FuzzFailure(case, version, None,
                    "as_of(%d) differs from the epoch-%d prefix" % (epoch, epoch)))
                return
            mismatch = _query_mismatch(overlay, prefix, rng, report)
            if mismatch is not None:
                report.failures.append(FuzzFailure(case, version, None,
                    "as_of(%d) answers %s wrongly" % (epoch, mismatch)))
                return
    except Exception as error:  # noqa: BLE001 — any exception here is a bug
        report.failures.append(FuzzFailure(case, version, None,
            "clean versioned image failed: %r" % (error,)))
        return
    report.versioned_round_trips += 1


def _check_versioned_mutant(case: int, version: int, kind: str, mutated: bytes,
                            prefixes: Sequence[PointsToMatrix],
                            report: FuzzReport) -> None:
    """A mutated stamped chain must reject or answer as a clean prefix.

    When the decode survives (legal only for a truncation at a record
    boundary), *every* epoch it claims to answer must replay to that
    epoch's exact prefix matrix — never a wrong ``as_of``.
    """
    from ..delta import versions_from_bytes

    report.corruptions += 1
    try:
        versioned = versions_from_bytes(mutated)
    except CorruptFileError:
        report.rejected += 1
        return
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, kind,
                                           "uncontrolled exception %r" % (error,)))
        return
    try:
        epochs = versioned.versions()
        if any(epoch >= len(prefixes) for epoch in epochs):
            report.failures.append(FuzzFailure(case, version, kind,
                "mutated chain claims epochs %r beyond the clean head %d"
                % (epochs, len(prefixes) - 1)))
            return
        for epoch in epochs:
            report.as_of_checks += 1
            if versioned.as_of(epoch).materialize() != prefixes[epoch]:
                report.failures.append(FuzzFailure(case, version, kind,
                    "mutated chain answers as_of(%d) wrongly" % epoch))
                return
        report.survived += 1
    except CorruptFileError:
        report.rejected += 1
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, kind,
                                           "uncontrolled exception %r" % (error,)))


def _corrupt_epoch(rng: random.Random, image: bytes,
                   spans: Sequence[Tuple[int, int]]) -> bytes:
    """Patch one record's epoch stamp to an illegal value, fixing its CRC.

    The CRC is recomputed so the checksum cannot save the decoder — only
    the semantic epoch validation (positive, strictly increasing) can.
    Record ``i`` carries epoch ``i + 1``, so ``0`` is always illegal and
    any value ``<= i`` is a regression for ``i > 0``.
    """
    index = rng.randrange(len(spans))
    offset, length = spans[index]
    value = 0 if index == 0 else rng.choice((0, index, rng.randint(1, index)))
    blob = bytearray(image)
    struct.pack_into("<I", blob, offset + 9, value)
    body_end = offset + length - 4
    struct.pack_into("<I", blob, body_end,
                     _fuzz_crc32(bytes(blob[offset:body_end])))
    return bytes(blob)


def _fuzz_crc32(data: bytes) -> int:
    from .ioutil import crc32

    return crc32(data)


def _check_epoch_mutant(case: int, version: int, mutated: bytes,
                        report: FuzzReport) -> None:
    """An illegal (but correctly checksummed) epoch stamp must be rejected."""
    from ..delta import versions_from_bytes

    report.corruptions += 1
    try:
        versions_from_bytes(mutated)
    except CorruptFileError:
        report.rejected += 1
        return
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, "epoch_patch",
                                           "uncontrolled exception %r" % (error,)))
        return
    report.failures.append(FuzzFailure(case, version, "epoch_patch",
        "chain with an illegal epoch stamp was accepted"))


def _check_misplaced_watermark(case: int, version: int, image: bytes,
                               head: int, report: FuzzReport) -> None:
    """A watermark record anywhere but the chain head must be rejected."""
    from ..delta import encode_record, versions_from_bytes

    report.corruptions += 1
    bad = image + encode_record((), (), epoch=head + 1, watermark=True)
    try:
        versions_from_bytes(bad)
    except CorruptFileError:
        report.rejected += 1
        return
    except Exception as error:  # noqa: BLE001 — uncontrolled escape
        report.failures.append(FuzzFailure(case, version, "watermark_tail",
                                           "uncontrolled exception %r" % (error,)))
        return
    report.failures.append(FuzzFailure(case, version, "watermark_tail",
        "mid-chain watermark record was accepted"))


def run_fuzz(iterations: int = 500, seed: int = 0, mutants_per_case: int = 3,
             versions: Optional[Sequence[int]] = None,
             versioned_tails: Optional[bool] = None) -> FuzzReport:
    """Run ``iterations`` seeded cases; see the module docstring for the contract.

    ``versions`` restricts the format-version pool (e.g. ``(4,)`` for a
    flat-layout-only sweep); the default pool covers every version with a
    bias towards the checksummed formats.
    """
    from ..store import Container

    pool = tuple(versions) if versions else (1, 2, 3, 3, 4)
    report = FuzzReport()
    parallel_executor = None
    for case in range(iterations):
        rng = random.Random("pestrie-fuzz-%d-%d" % (seed, case))
        # Query-path samples draw from their own stream, so the mutants a
        # seed explores do not depend on how many queries were sampled.
        query_rng = random.Random("pestrie-fuzz-queries-%d-%d" % (seed, case))
        matrix = random_matrix(rng)
        version = rng.choice(pool)
        compact = version == 2 or (version == 3 and rng.random() < 0.5)
        order = rng.choice(("hub", "identity", "simple"))
        data = encode(matrix, order=order, compact=compact, version=version)
        report.cases += 1

        _check_clean(case, version, compact, order, matrix, data, report)

        # A slice of cases re-encodes through a shared 2-process executor:
        # chunked fan-out and merge must reproduce the serial bytes.
        if rng.random() < 0.12:
            if parallel_executor is None:
                from .stages import ProcessExecutor

                parallel_executor = ProcessExecutor(2)
            _check_parallel(case, version, compact, order, matrix, data,
                            parallel_executor, report)
        for _ in range(mutants_per_case):
            kind, mutated = corrupt(rng, data)
            if mutated == data:
                continue  # the mutation was a no-op; nothing to assert
            _check_mutant(case, version, kind, mutated, report)

        # Every Table 1 query of a lazy open against the source matrix.
        _check_flat_clean(case, version, matrix, data, report)
        if version == 4:
            # Mutants aimed at the flat sections (generic mutants mostly
            # land in front of them).
            with Container.from_bytes(data) as container:
                flat_start = container.flat_range[0]
            for _ in range(mutants_per_case):
                kind, mutated = corrupt(rng, data, flat_offset=flat_start)
                if mutated == data:
                    continue
                _check_mutant(case, version, kind, mutated, report)

        # Half the PESTRIE3/4 cases also fuzz an append→decode round-trip.
        if version >= 3 and rng.random() < 0.5:
            image, prefixes = _delta_chain(rng, matrix, data)
            _check_delta_clean(case, version, image, prefixes[-1], query_rng, report)
            for _ in range(mutants_per_case):
                kind, mutated = corrupt(rng, image, delta_offset=len(data))
                if mutated == image:
                    continue
                _check_delta_mutant(case, version, kind, mutated, prefixes, report)

        # Versioned (epoch-stamped) tails: as_of must replay exact prefixes
        # on clean chains and never answer wrongly on mutated ones.
        want_versioned = (versioned_tails if versioned_tails is not None
                          else rng.random() < 0.5)
        if version >= 3 and want_versioned:
            image, prefixes, spans = _stamped_chain(rng, matrix, data)
            _check_versioned_clean(case, version, image, prefixes, query_rng, report)
            for _ in range(mutants_per_case):
                kind, mutated = corrupt(rng, image, delta_offset=len(data))
                if mutated == image:
                    continue
                _check_versioned_mutant(case, version, kind, mutated,
                                        prefixes, report)
            _check_epoch_mutant(case, version,
                                _corrupt_epoch(rng, image, spans), report)
            _check_misplaced_watermark(case, version, image,
                                       len(prefixes) - 1, report)
    if parallel_executor is not None:
        parallel_executor.close()
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.core.fuzz",
        description="Seeded round-trip/corruption fuzzing of the Pestrie formats",
    )
    parser.add_argument("--iterations", type=int, default=500,
                        help="number of seeded cases (default 500)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--mutants-per-case", type=int, default=3,
                        help="corrupted variants derived from each clean file")
    parser.add_argument("--versions", type=str, default=None,
                        help="comma-separated format versions to restrict the "
                             "pool to (e.g. '4' for a flat-layout-only sweep)")
    parser.add_argument("--versioned-tails", action="store_true",
                        help="append an epoch-stamped PESDELT2 chain to every "
                             "PESTRIE3/4 case (default: half of them)")
    parser.add_argument("--quiet", action="store_true", help="only print on failure")
    args = parser.parse_args(argv)

    versions = None
    if args.versions:
        versions = tuple(int(value) for value in args.versions.split(","))
    report = run_fuzz(iterations=args.iterations, seed=args.seed,
                      mutants_per_case=args.mutants_per_case, versions=versions,
                      versioned_tails=args.versioned_tails or None)
    if not args.quiet or not report.ok:
        print("fuzz: " + report.summary())
    for failure in report.failures[:20]:
        print("fuzz FAILURE: %s" % failure, file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
