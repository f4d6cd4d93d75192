"""The daemon wire protocol: length-prefixed binary frames.

One frame is a little-endian ``uint32`` byte length followed by that many
body bytes.  A request body is one opcode byte plus an opcode-specific
payload; a response body is one status byte plus a status-specific
payload.  Everything is fixed-width little-endian integers, so a batch of
Table 1 queries is one ``struct`` pack/unpack on either side — the wire
cost per query is a few bytes, and the service's batch fast path is paid
once per frame, not once per query.

Request opcodes
---------------
``PING``            empty payload; answers with an empty ``OK``.
``IS_ALIAS``        ``u32 n`` then ``n`` pairs ``(u32 p, u32 q)``;
                    answers ``n`` bytes, one ``0``/``1`` per pair.
``LIST_ALIASES``/``LIST_POINTS_TO``/``LIST_POINTED_BY``
                    ``u32 n`` then ``n`` operand ids; answers, per
                    operand, ``u32 k`` then ``k`` ids.  The server writes
                    each row from the packed answer bytes and the client
                    reads it with one ``array`` decode: no per-id work.
``APPLY_DELTA``     ``u32 n`` then ``n`` edits ``(u8 op, u32 p, u32 o)``
                    with op ``0``=insert, ``1``=delete; answers
                    ``u32 invalidated`` (cache entries dropped).
``STATS``           empty payload; answers a UTF-8 JSON document.
``VERSIONS``        empty payload; answers ``(u32 floor, u32 head)`` —
                    the service's answerable version range.
``QUERY_AT``        ``u32 version`` then a complete inner query body
                    (``IS_ALIAS`` or a list query); the answer is the
                    inner opcode's answer, computed against the pinned
                    snapshot at ``version``.  A version outside the
                    service's ``[floor, head]`` range answers
                    ``BAD_REQUEST``.
``TRACED``          the request-scoped observability extension (PR 9):
                    ``u8 flags, u8 id_len`` then ``id_len`` ASCII bytes of
                    client-minted request id, then a complete inner
                    request body (any opcode except another ``TRACED``).
                    The daemon tags its request span and flight-recorder
                    entry with the id.  With flag bit 0 (``WANT_COST``)
                    set, an ``OK`` answer is extended: ``u32 cost_len``
                    then ``cost_len`` bytes of ``QueryCost`` JSON precede
                    the inner payload.  Old clients never send ``TRACED``
                    and responses to unwrapped requests are unchanged —
                    the extension is invisible to PR 7 peers.
``METRICS``         empty payload; answers the process metrics registry
                    as Prometheus 0.0.4 text (the ``/metrics`` HTTP body,
                    for socket-only deployments).

Response statuses
-----------------
``OK``              payload is the opcode-specific answer.
``BAD_REQUEST``     unparseable frame or out-of-range operand; the
                    payload is a UTF-8 message.  The connection stays
                    usable — framing is intact, only this request failed.
``OVERLOADED``      admission control refused the request (the pending
                    queue is full); retry after backoff.
``UNSUPPORTED``     the operation is disabled in this deployment
                    (``APPLY_DELTA`` on a multi-process worker).
``INTERNAL``        the handler raised; the payload names the error.

Hostile input never crashes the peer: every decode here bounds-checks the
declared counts against the actual byte length and raises
:class:`ProtocolError`, which the daemon answers with ``BAD_REQUEST`` and
the client surfaces as :class:`~repro.clients.daemon.DaemonError`.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple, Union

from ..core.flat import pack_ids, unpack_ids

_U32 = struct.Struct("<I")
_HEADER = struct.Struct("<I")

#: Hard ceiling on one frame's body; a longer declared length is treated
#: as a framing error (the stream cannot be trusted past it).
MAX_FRAME_BYTES = 8 * 1024 * 1024

# --- request opcodes ---------------------------------------------------
OP_PING = 0x01
OP_IS_ALIAS = 0x02
OP_LIST_ALIASES = 0x03
OP_LIST_POINTS_TO = 0x04
OP_LIST_POINTED_BY = 0x05
OP_APPLY_DELTA = 0x06
OP_STATS = 0x07
OP_VERSIONS = 0x08
OP_QUERY_AT = 0x09
OP_TRACED = 0x0A
OP_METRICS = 0x0B

#: Human-readable opcode names (metric labels, error messages).
OP_NAMES = {
    OP_PING: "ping",
    OP_IS_ALIAS: "is_alias",
    OP_LIST_ALIASES: "list_aliases",
    OP_LIST_POINTS_TO: "list_points_to",
    OP_LIST_POINTED_BY: "list_pointed_by",
    OP_APPLY_DELTA: "apply_delta",
    OP_STATS: "stats",
    OP_VERSIONS: "versions",
    OP_QUERY_AT: "query_at",
    OP_TRACED: "traced",
    OP_METRICS: "metrics",
}

#: ``TRACED`` flag bits.
TRACE_WANT_COST = 0x01

#: Ceiling on a client-minted request id (ASCII bytes on the wire).
MAX_REQUEST_ID_BYTES = 64

#: The read-only opcodes eligible for in-flight coalescing.  A versioned
#: query is pure (its answer is fixed by the version stamp in its body),
#: so identical QUERY_AT frames coalesce like any other read.
QUERY_OPS = frozenset(
    (OP_IS_ALIAS, OP_LIST_ALIASES, OP_LIST_POINTS_TO, OP_LIST_POINTED_BY,
     OP_QUERY_AT)
)

# --- response statuses -------------------------------------------------
ST_OK = 0x00
ST_BAD_REQUEST = 0x01
ST_OVERLOADED = 0x02
ST_UNSUPPORTED = 0x03
ST_INTERNAL = 0x04

STATUS_NAMES = {
    ST_OK: "ok",
    ST_BAD_REQUEST: "bad_request",
    ST_OVERLOADED: "overloaded",
    ST_UNSUPPORTED: "unsupported",
    ST_INTERNAL: "internal",
}

#: Delta edit kinds on the wire.
EDIT_INSERT = 0
EDIT_DELETE = 1


class ProtocolError(ValueError):
    """A frame that cannot be decoded (bad length, opcode, or payload)."""


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------

def frame(body: bytes) -> bytes:
    """Prefix ``body`` with its little-endian ``uint32`` length."""
    if not body:
        raise ProtocolError("cannot frame an empty body")
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            "frame body of %d bytes exceeds the %d-byte limit"
            % (len(body), MAX_FRAME_BYTES)
        )
    return _HEADER.pack(len(body)) + body


def body_length(prefix: bytes, limit: int = MAX_FRAME_BYTES) -> int:
    """Decode and validate a 4-byte length prefix."""
    if len(prefix) != 4:
        raise ProtocolError("truncated length prefix (%d bytes)" % len(prefix))
    length = _HEADER.unpack(prefix)[0]
    if length == 0:
        raise ProtocolError("zero-length frame")
    if length > limit:
        raise ProtocolError(
            "declared frame length %d exceeds the %d-byte limit" % (length, limit)
        )
    return length


# ----------------------------------------------------------------------
# Request encoding (client side)
# ----------------------------------------------------------------------

def encode_ping() -> bytes:
    return bytes((OP_PING,))


def encode_stats() -> bytes:
    return bytes((OP_STATS,))


def encode_versions() -> bytes:
    return bytes((OP_VERSIONS,))


def encode_metrics() -> bytes:
    return bytes((OP_METRICS,))


def encode_traced(request_id: str, inner: bytes,
                  want_cost: bool = False) -> bytes:
    """Wrap an already-encoded request body in a ``TRACED`` frame."""
    try:
        encoded_id = request_id.encode("ascii")
    except UnicodeEncodeError:
        raise ProtocolError("request id must be ASCII: %r" % (request_id,))
    if not encoded_id or len(encoded_id) > MAX_REQUEST_ID_BYTES:
        raise ProtocolError(
            "request id must be 1-%d bytes, got %d"
            % (MAX_REQUEST_ID_BYTES, len(encoded_id))
        )
    if not inner:
        raise ProtocolError("traced frame wraps an empty body")
    if inner[0] == OP_TRACED:
        raise ProtocolError("traced frames do not nest")
    flags = TRACE_WANT_COST if want_cost else 0
    return (bytes((OP_TRACED, flags, len(encoded_id))) + encoded_id + inner)


def encode_query_at(version: int, inner: bytes) -> bytes:
    """Wrap an already-encoded query body in a version-pinned frame."""
    if not (0 <= version <= 0xFFFFFFFF):
        raise ProtocolError("version %r does not fit in a u32" % (version,))
    if not inner or inner[0] not in (OP_IS_ALIAS, OP_LIST_ALIASES,
                                     OP_LIST_POINTS_TO, OP_LIST_POINTED_BY):
        raise ProtocolError("query_at carries a non-query inner body")
    return bytes((OP_QUERY_AT,)) + _U32.pack(version) + inner


def encode_is_alias(pairs: Sequence[Tuple[int, int]]) -> bytes:
    flat: List[int] = []
    for p, q in pairs:
        flat.append(p)
        flat.append(q)
    return (bytes((OP_IS_ALIAS,)) + _U32.pack(len(pairs))
            + struct.pack("<%dI" % len(flat), *flat))


def encode_list(op: int, operands: Sequence[int]) -> bytes:
    if op not in (OP_LIST_ALIASES, OP_LIST_POINTS_TO, OP_LIST_POINTED_BY):
        raise ProtocolError("opcode 0x%02x is not a list query" % op)
    return (bytes((op,)) + _U32.pack(len(operands))
            + struct.pack("<%dI" % len(operands), *operands))


def encode_apply_delta(ops: Sequence[Tuple[str, int, int]]) -> bytes:
    """Encode a :class:`~repro.delta.DeltaLog`-style op sequence."""
    parts = [bytes((OP_APPLY_DELTA,)), _U32.pack(len(ops))]
    for op, pointer, obj in ops:
        kind = EDIT_INSERT if op == "+" else EDIT_DELETE
        if op not in ("+", "-"):
            raise ProtocolError("unknown delta op %r" % (op,))
        parts.append(struct.pack("<BII", kind, pointer, obj))
    return b"".join(parts)


# ----------------------------------------------------------------------
# Request decoding (server side)
# ----------------------------------------------------------------------

def request_op(body: bytes) -> int:
    if not body:
        raise ProtocolError("empty request body")
    op = body[0]
    if op not in OP_NAMES:
        raise ProtocolError("unknown opcode 0x%02x" % op)
    return op


def _count(body: bytes, per_item: int, label: str) -> int:
    """The ``u32`` item count at offset 1, validated against the length."""
    if len(body) < 5:
        raise ProtocolError("truncated %s request (%d bytes)" % (label, len(body)))
    count = _U32.unpack_from(body, 1)[0]
    expected = 5 + count * per_item
    if len(body) != expected:
        raise ProtocolError(
            "%s request declares %d items (%d bytes) but carries %d bytes"
            % (label, count, expected, len(body))
        )
    return count


def decode_is_alias(body: bytes) -> List[Tuple[int, int]]:
    count = _count(body, 8, "is_alias")
    flat = struct.unpack_from("<%dI" % (2 * count), body, 5)
    return [(flat[i], flat[i + 1]) for i in range(0, 2 * count, 2)]


def decode_list(body: bytes) -> List[int]:
    count = _count(body, 4, OP_NAMES[body[0]])
    return list(struct.unpack_from("<%dI" % count, body, 5))


def decode_query_at(body: bytes) -> Tuple[int, bytes]:
    """``(version, inner_body)`` of a ``QUERY_AT`` request.

    The inner body is re-validated by the inner opcode's own decoder; here
    only the wrapper is checked — enough bytes for the version word, and an
    inner opcode that is actually a query (a nested ``QUERY_AT`` or a write
    op is a protocol error, not a recursion vector).
    """
    if len(body) < 6:
        raise ProtocolError("truncated query_at request (%d bytes)" % len(body))
    version = _U32.unpack_from(body, 1)[0]
    inner = body[5:]
    if inner[0] not in (OP_IS_ALIAS, OP_LIST_ALIASES, OP_LIST_POINTS_TO,
                        OP_LIST_POINTED_BY):
        raise ProtocolError(
            "query_at wraps opcode 0x%02x, which is not a plain query" % inner[0]
        )
    return version, inner


def decode_traced(body: bytes) -> Tuple[str, bool, bytes]:
    """``(request_id, want_cost, inner_body)`` of a ``TRACED`` request.

    The inner body is re-validated by its own opcode's decoder; here only
    the wrapper is checked.  Unknown flag bits are a protocol error so a
    future flag cannot be silently half-honoured.
    """
    if len(body) < 4:
        raise ProtocolError("truncated traced request (%d bytes)" % len(body))
    flags, id_len = body[1], body[2]
    if flags & ~TRACE_WANT_COST:
        raise ProtocolError("unknown traced flags 0x%02x" % flags)
    if not 1 <= id_len <= MAX_REQUEST_ID_BYTES:
        raise ProtocolError("traced id length %d out of range" % id_len)
    if len(body) < 3 + id_len + 1:
        raise ProtocolError("traced request truncated inside the id or body")
    raw_id = body[3:3 + id_len]
    try:
        request_id = raw_id.decode("ascii")
    except UnicodeDecodeError:
        raise ProtocolError("traced request id is not ASCII")
    inner = body[3 + id_len:]
    if inner[0] == OP_TRACED:
        raise ProtocolError("traced frames do not nest")
    return request_id, bool(flags & TRACE_WANT_COST), inner


def decode_apply_delta(body: bytes) -> List[Tuple[str, int, int]]:
    count = _count(body, 9, "apply_delta")
    ops: List[Tuple[str, int, int]] = []
    offset = 5
    for _ in range(count):
        kind, pointer, obj = struct.unpack_from("<BII", body, offset)
        if kind not in (EDIT_INSERT, EDIT_DELETE):
            raise ProtocolError("unknown delta edit kind %d" % kind)
        ops.append(("+" if kind == EDIT_INSERT else "-", pointer, obj))
        offset += 9
    return ops


# ----------------------------------------------------------------------
# Response encoding / decoding
# ----------------------------------------------------------------------

def encode_response(status: int, payload: bytes = b"") -> bytes:
    return bytes((status,)) + payload


def encode_error(status: int, message: str) -> bytes:
    return encode_response(status, message.encode("utf-8", "replace"))


def encode_bools(answers: Sequence[bool]) -> bytes:
    return encode_response(ST_OK, bytes(1 if answer else 0 for answer in answers))


def encode_id_lists(rows: Sequence[Union[bytes, Sequence[int]]]) -> bytes:
    """An ``OK`` list response: per row, ``u32 k`` then ``k`` ids.

    A ``bytes`` row is a packed answer (little-endian ``uint32`` ids, as
    :meth:`~repro.serve.AliasService.packed_batch` returns) and is written
    as is; any other row is a sequence of ids and is packed first.
    """
    parts = [bytes((ST_OK,))]
    for row in rows:
        if not isinstance(row, bytes):
            row = pack_ids(row)
        elif len(row) % 4:
            raise ProtocolError(
                "packed list row of %d bytes is not a whole number of ids"
                % len(row))
        parts.append(_U32.pack(len(row) // 4))
        parts.append(row)
    return b"".join(parts)


def split_response(body: bytes) -> Tuple[int, bytes]:
    """``(status, payload)`` of a response body."""
    if not body:
        raise ProtocolError("empty response body")
    status = body[0]
    if status not in STATUS_NAMES:
        raise ProtocolError("unknown response status 0x%02x" % status)
    return status, body[1:]


def decode_bools(payload: bytes, expected: int) -> List[bool]:
    if len(payload) != expected:
        raise ProtocolError(
            "is_alias response carries %d answers, expected %d"
            % (len(payload), expected)
        )
    return [byte != 0 for byte in payload]


def decode_id_lists(payload: bytes, expected: int) -> List[List[int]]:
    rows: List[List[int]] = []
    offset = 0
    for _ in range(expected):
        if offset + 4 > len(payload):
            raise ProtocolError("truncated list response")
        count = _U32.unpack_from(payload, offset)[0]
        offset += 4
        end = offset + 4 * count
        if end > len(payload):
            raise ProtocolError(
                "list response row declares %d ids past the payload end" % count
            )
        rows.append(unpack_ids(payload[offset:end]))
        offset = end
    if offset != len(payload):
        raise ProtocolError(
            "%d trailing bytes after the last list row" % (len(payload) - offset)
        )
    return rows


def attach_cost(response: bytes, cost_json: bytes) -> bytes:
    """Extend an ``OK`` response with a cost preamble (``TRACED`` + ``WANT_COST``).

    The extended body is ``status | u32 cost_len | cost JSON | payload``.
    Non-``OK`` responses pass through untouched: their payload is an error
    message whose shape old and new clients alike must keep parsing.
    """
    status, payload = split_response(response)
    if status != ST_OK:
        return response
    return bytes((status,)) + _U32.pack(len(cost_json)) + cost_json + payload


def split_cost_response(body: bytes) -> Tuple[int, bytes, bytes]:
    """``(status, cost_json, payload)`` of a cost-extended response.

    Only meaningful for responses to ``TRACED`` requests with
    ``WANT_COST`` set; non-``OK`` statuses carry no cost preamble.
    """
    status, payload = split_response(body)
    if status != ST_OK:
        return status, b"", payload
    if len(payload) < 4:
        raise ProtocolError("cost-extended response lacks a length word")
    cost_len = _U32.unpack_from(payload, 0)[0]
    if 4 + cost_len > len(payload):
        raise ProtocolError(
            "cost preamble declares %d bytes past the payload end" % cost_len
        )
    return status, payload[4:4 + cost_len], payload[4 + cost_len:]


def decode_u32(payload: bytes) -> int:
    if len(payload) != 4:
        raise ProtocolError("expected a u32 payload, got %d bytes" % len(payload))
    return _U32.unpack(payload)[0]


def encode_version_range(floor: int, head: int) -> bytes:
    return encode_response(ST_OK, struct.pack("<II", floor, head))


def decode_version_range(payload: bytes) -> Tuple[int, int]:
    """``(floor, head)`` of a ``VERSIONS`` response."""
    if len(payload) != 8:
        raise ProtocolError(
            "versions response carries %d bytes, expected 8" % len(payload)
        )
    floor, head = struct.unpack("<II", payload)
    return floor, head
