"""The staged build pipeline: the one encode path, as named, testable stages.

Every step from a points-to matrix to persistent-file bytes is a
:class:`Stage` with a declared input/output contract over a
:class:`BuildContext`, executed by a pluggable executor:

========== ========================================== ========== =========
stage      contract (inputs → outputs)                parallel   cost
========== ========================================== ========== =========
normalize  matrix → csr, pointed_by                   no         O(facts)
order      csr → object_order                         hub scores O(facts)
trie       pointed_by, object_order → pestrie         no         O(nm)
intervals  pestrie → pestrie (labelled)               no         O(groups)
rectangles pestrie → candidates, interval_forest      per-origin O(cands)
dedup      candidates, interval_forest → kept         no         O(cands·d)
sections   pestrie, candidates, kept → header,        varint     O(R log R)
           sections [, flat]                          chunks
assemble   header, sections → payload                 no         O(bytes)
========== ========================================== ========== =========

:func:`run_stages` runs any slice of :data:`ENCODE_STAGES`, so the trie
(``build_pestrie``), the candidate rectangles and the Theorem 2 ``kept``
mask are read from the same code that writes the file: after
``ENCODE_STAGES[:6]`` the unpruned rectangle set is all of ``candidates``
and the pruned set is the candidates whose ``kept`` byte is 0.

Parallel stages fan out over chunked ``array``-based payloads through
``Executor.map`` and merge results in task order, so the output bytes are
identical for every worker count — ``encode --jobs N`` is byte-for-byte
the serial file.

**Dedup without a segment tree.**  The Theorem 2 corner test is
reformulated over the laminar family of candidate side intervals: every
side is a DFS prefix range ``[I_y, E_child]`` or a full PES block, so any
two sides are nested or disjoint, and same-start sides of one target node
only shrink as later origins add cross edges.  Hence a candidate's corner
is covered by an earlier *kept* rectangle iff some ancestor pair of its two
side intervals was kept before it — a dictionary-membership test over
packed interval-id pairs.  The Theorem 2 property tests (pruned candidates
are enclosed, pruning is lossless, Case-1 is never pruned) and the pinned
digests in ``tests/fixtures/encode_sha256.json`` are its references.
"""

from __future__ import annotations

import math
import resource
import struct
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..matrix.points_to import PointsToMatrix
from ..obs import get_registry, trace
from . import hub
from .builder import ORDER_CHOICES, build_pestrie_from_rows
from .encoder import (
    DEFAULT_VERSION,
    FLAG_COMPACT,
    MAGIC_COMPACT,
    MAGIC_RAW,
    MAGIC_V3,
    MAGIC_V4,
    _U32,
    _write_varint,
    object_timestamps,
    pointer_timestamps,
    validate_version,
)
from .intervals import assign_intervals
from .ioutil import crc32
from .segment_tree import Rect

# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------


class SerialExecutor:
    """Run stage tasks inline; the default and the parity reference."""

    jobs = 1

    def map(self, fn: Callable, payloads: Sequence) -> list:
        return [fn(payload) for payload in payloads]

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class ProcessExecutor:
    """Chunked fan-out over a ``ProcessPoolExecutor``.

    ``map`` preserves task order, so merges downstream are deterministic
    and the encoded bytes match the serial run exactly.  The pool is
    created lazily (first parallel stage) and must be :meth:`close`-d;
    ``run_pipeline`` owns executors it creates itself.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ValueError("ProcessExecutor needs jobs >= 2, got %r" % jobs)
        self.jobs = jobs
        self._pool = None

    def _ensure(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def map(self, fn: Callable, payloads: Sequence) -> list:
        if len(payloads) <= 1:
            return [fn(payload) for payload in payloads]
        return list(self._ensure().map(fn, payloads))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def make_executor(jobs: Optional[int]):
    """``None``/0/1 → serial; N ≥ 2 → a process pool of N workers."""
    if jobs is None or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)


def _chunk_bounds(count: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``range(count)`` into ≤ ``parts`` near-even ``[a, b)`` bounds."""
    parts = max(1, min(parts, count))
    step = -(-count // parts) if count else 0
    return [(a, min(a + step, count)) for a in range(0, count, step)] if count else []


# ----------------------------------------------------------------------
# Stage framework
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One named pipeline step with a declared artifact contract."""

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    parallel: bool
    run: Callable[["BuildContext"], None]


class BuildContext:
    """Artifact store threaded through the stages of one encode run."""

    def __init__(
        self,
        matrix: PointsToMatrix,
        *,
        order: str = "hub",
        seed: Optional[int] = None,
        explicit_order: Optional[Sequence[int]] = None,
        compact: bool = False,
        version: int = DEFAULT_VERSION,
        executor=None,
    ):
        self.matrix = matrix
        self.order = order
        self.seed = seed
        self.explicit_order = explicit_order
        self.compact = compact
        self.version = version
        self.executor = executor if executor is not None else SerialExecutor()
        self.artifacts: Dict[str, object] = {}

    def put(self, key: str, value) -> None:
        self.artifacts[key] = value

    def require(self, key: str):
        if key not in self.artifacts:
            raise KeyError("stage input %r missing from the build context" % key)
        return self.artifacts[key]


@dataclass
class StageReport:
    """Wall clock and peak RSS after one stage of one run."""

    name: str
    seconds: float
    peak_rss_kb: int
    items: int = 0


@dataclass
class BuildReport:
    """Per-stage timings of one pipeline run (``bench_scale_growth`` food)."""

    stages: List[StageReport] = field(default_factory=list)
    jobs: int = 1

    def seconds(self, name: str) -> float:
        return sum(entry.seconds for entry in self.stages if entry.name == name)

    def total_seconds(self) -> float:
        return sum(entry.seconds for entry in self.stages)


# ----------------------------------------------------------------------
# normalize: PointsToMatrix → CSR + pointed-by adjacency
# ----------------------------------------------------------------------


def _stage_normalize(ctx: BuildContext) -> None:
    matrix = ctx.matrix
    row_ptr = array("I", [0])
    cols = array("I")
    rows_of_object: List[List[int]] = [[] for _ in range(matrix.n_objects)]
    append_ptr = row_ptr.append
    append_col = cols.append
    for pointer, row in enumerate(matrix.rows):
        for obj in row:
            append_col(obj)
            rows_of_object[obj].append(pointer)
        append_ptr(len(cols))
    ctx.put("csr", (row_ptr, cols))
    ctx.put("pointed_by", rows_of_object)


# ----------------------------------------------------------------------
# order: hub scoring (parallel) or the cheap alternatives
# ----------------------------------------------------------------------


def _hub_chunk(payload):
    """Partial hub sums ``Σ |PM[p]|²`` per object, over one pointer chunk."""
    n_objects, row_ptr, cols = payload
    sums = array("q", bytes(8 * n_objects))
    base = row_ptr[0]
    for i in range(len(row_ptr) - 1):
        start, stop = row_ptr[i], row_ptr[i + 1]
        size = stop - start
        if not size:
            continue
        weight = size * size
        for j in range(start - base, stop - base):
            sums[cols[j]] += weight
    return sums


def _stage_order(ctx: BuildContext) -> None:
    """Resolve the object order: an explicit permutation or a heuristic.

    ``hub`` is Definition 1 (descending hub degree), ``simple`` the
    pointed-by count; both break ties by ascending object id so the trie is
    deterministic.  ``random`` is Figure 7's Pes_rand baseline and
    ``identity`` reproduces the paper's worked example.
    """
    matrix = ctx.matrix
    n_objects = matrix.n_objects
    if ctx.explicit_order is not None:
        order = hub.validate_order(ctx.explicit_order, n_objects)
    elif ctx.order == "hub":
        row_ptr, cols = ctx.require("csr")
        bounds = _chunk_bounds(matrix.n_pointers, ctx.executor.jobs * 4)
        payloads = [
            (n_objects, row_ptr[a : b + 1], cols[row_ptr[a] : row_ptr[b]])
            for a, b in bounds
        ]
        totals = [0] * n_objects
        for part in ctx.executor.map(_hub_chunk, payloads):
            for obj, value in enumerate(part):
                if value:
                    totals[obj] += value
        # Integer partial sums merge exactly, so the order is the same
        # regardless of chunking.
        degrees = [math.sqrt(total) for total in totals]
        order = sorted(range(n_objects), key=lambda obj: (-degrees[obj], obj))
    elif ctx.order == "simple":
        degrees = [len(row) for row in ctx.require("pointed_by")]
        order = sorted(range(n_objects), key=lambda obj: (-degrees[obj], obj))
    elif ctx.order == "random":
        order = hub.random_order(matrix, ctx.seed)
    elif ctx.order == "identity":
        order = hub.identity_order(matrix)
    else:
        raise ValueError("unknown object order %r; expected one of %s"
                         % (ctx.order, ORDER_CHOICES))
    ctx.put("object_order", order)


# ----------------------------------------------------------------------
# trie + intervals
# ----------------------------------------------------------------------


def _stage_trie(ctx: BuildContext) -> None:
    matrix = ctx.matrix
    pestrie = build_pestrie_from_rows(
        matrix.n_pointers,
        matrix.n_objects,
        ctx.require("object_order"),
        ctx.require("pointed_by"),
        order_name=ctx.order if ctx.explicit_order is None else "explicit",
    )
    ctx.put("pestrie", pestrie)


def _stage_intervals(ctx: BuildContext) -> None:
    assign_intervals(ctx.require("pestrie"))


# ----------------------------------------------------------------------
# rectangles: per-origin candidate extraction (parallel)
# ----------------------------------------------------------------------


def _rect_chunk(payload):
    """Candidate rectangles for one chunk of origins, in emission order.

    Returns parallel arrays ``(x1, x2, y1, y2, x_iid, y_iid, case1)``; the
    merge step concatenates chunks in origin order, which reproduces the
    serial emission order exactly.
    """
    pes_lo, pes_hi, pes_iid, edge_ptr, e_lo, e_hi, e_pes, e_iid = payload
    cx1, cx2, cy1, cy2 = array("I"), array("I"), array("I"), array("I")
    cax, cay = array("I"), array("I")
    cflag = array("B")
    for i in range(len(pes_lo)):
        plo, phi, piid = pes_lo[i], pes_hi[i], pes_iid[i]
        start, stop = edge_ptr[i], edge_ptr[i + 1]
        # Case-1: every cross subtree × the full PES block.  The PES block
        # occupies the newest timestamps, so it always sits right of the
        # subtree interval; anything else breaks Theorem 2 reasoning.
        for j in range(start, stop):
            lo, hi = e_lo[j], e_hi[j]
            if hi >= plo:
                raise AssertionError(
                    "paired sub-tree intervals must be disjoint: %r vs %r"
                    % ((lo, hi), (plo, phi))
                )
            cx1.append(lo)
            cx2.append(hi)
            cy1.append(plo)
            cy2.append(phi)
            cax.append(e_iid[j])
            cay.append(piid)
            cflag.append(1)
        # Case-2: cross subtrees of different PESs pair with each other.
        for j in range(start, stop):
            lo_j, hi_j, pes_j, iid_j = e_lo[j], e_hi[j], e_pes[j], e_iid[j]
            for k in range(j + 1, stop):
                if pes_j == e_pes[k]:
                    continue  # internal pair: answered by PES identity
                lo_k, hi_k, iid_k = e_lo[k], e_hi[k], e_iid[k]
                if lo_j > lo_k:
                    a_lo, a_hi, a_id = lo_k, hi_k, iid_k
                    b_lo, b_hi, b_id = lo_j, hi_j, iid_j
                else:
                    a_lo, a_hi, a_id = lo_j, hi_j, iid_j
                    b_lo, b_hi, b_id = lo_k, hi_k, iid_k
                if a_hi >= b_lo:
                    raise AssertionError(
                        "paired sub-tree intervals must be disjoint: %r vs %r"
                        % ((a_lo, a_hi), (b_lo, b_hi))
                    )
                cx1.append(a_lo)
                cx2.append(a_hi)
                cy1.append(b_lo)
                cy2.append(b_hi)
                cax.append(a_id)
                cay.append(b_id)
                cflag.append(0)
    return cx1, cx2, cy1, cy2, cax, cay, cflag


def _stage_rectangles(ctx: BuildContext) -> None:
    pestrie = ctx.require("pestrie")
    if len(pestrie.pre_order) != len(pestrie.groups):
        raise ValueError("interval labels missing; run assign_intervals first")
    pre = pestrie.pre_order
    max_pre = pestrie.max_pre_order
    groups = pestrie.groups
    by_source = pestrie.cross_edges_by_source()

    # Flatten per-origin PES blocks and cross-edge subtree intervals, and
    # intern every distinct side interval of the candidate universe.
    interned: Dict[Tuple[int, int], int] = {}
    universe: List[Tuple[int, int]] = []

    def intern(lo: int, hi: int) -> int:
        key = (lo, hi)
        iid = interned.get(key)
        if iid is None:
            iid = len(universe)
            interned[key] = iid
            universe.append(key)
        return iid

    pes_lo, pes_hi, pes_iid = array("I"), array("I"), array("I")
    edge_ptr = array("I", [0])
    e_lo, e_hi, e_pes, e_iid = array("I"), array("I"), array("I"), array("I")
    for obj in pestrie.object_order:
        origin = pestrie.origin_of_pes(obj)
        edges = by_source.get(origin.id)
        if not edges:
            continue
        block_lo, block_hi = pre[origin.id], max_pre[origin.id]
        pes_lo.append(block_lo)
        pes_hi.append(block_hi)
        pes_iid.append(intern(block_lo, block_hi))
        for edge in edges:
            target = groups[edge.target]
            lo = pre[target.id]
            if edge.xi < len(target.children):
                hi = max_pre[target.children[edge.xi]]
            else:
                hi = lo
            e_lo.append(lo)
            e_hi.append(hi)
            e_pes.append(target.pes)
            e_iid.append(intern(lo, hi))
        edge_ptr.append(len(e_lo))

    # Laminar containment forest over the side-interval universe: sort by
    # (start asc, end desc); a stack walk links each interval to the
    # smallest enclosing one.  Non-nesting overlap cannot occur (every side
    # is a DFS prefix range or a full PES block) and is asserted.
    count = len(universe)
    sorted_ids = sorted(range(count), key=lambda i: (universe[i][0], -universe[i][1]))
    position = [0] * count
    for pos, iid in enumerate(sorted_ids):
        position[iid] = pos
    parent = [-1] * count
    stack: List[int] = []
    for pos, iid in enumerate(sorted_ids):
        lo, hi = universe[iid]
        while stack and universe[sorted_ids[stack[-1]]][1] < lo:
            stack.pop()
        if stack:
            top = universe[sorted_ids[stack[-1]]]
            if top[1] < hi:
                raise AssertionError(
                    "side intervals not laminar: %r vs %r" % (top, (lo, hi))
                )
            parent[pos] = stack[-1]
        stack.append(pos)
    # Ancestor-or-self chains in sorted-position id space.
    chains: List[Tuple[int, ...]] = [()] * count
    for pos in range(count):
        up = parent[pos]
        chains[pos] = (pos,) + chains[up] if up != -1 else (pos,)

    # Rewrite side ids into sorted-position space so chains index directly.
    for arr in (pes_iid, e_iid):
        for i in range(len(arr)):
            arr[i] = position[arr[i]]

    ctx.put("interval_forest", (count, chains))

    bounds = _chunk_bounds(len(pes_lo), ctx.executor.jobs * 4)
    payloads = []
    for a, b in bounds:
        ptr = edge_ptr[a : b + 1]
        base = ptr[0]
        if base:
            ptr = array("I", [value - base for value in ptr])
        payloads.append(
            (
                pes_lo[a:b],
                pes_hi[a:b],
                pes_iid[a:b],
                ptr,
                e_lo[edge_ptr[a] : edge_ptr[b]],
                e_hi[edge_ptr[a] : edge_ptr[b]],
                e_pes[edge_ptr[a] : edge_ptr[b]],
                e_iid[edge_ptr[a] : edge_ptr[b]],
            )
        )
    merged = (array("I"), array("I"), array("I"), array("I"),
              array("I"), array("I"), array("B"))
    for part in ctx.executor.map(_rect_chunk, payloads):
        for target, chunk in zip(merged, part):
            target.extend(chunk)
    ctx.put("candidates", merged)


# ----------------------------------------------------------------------
# dedup: Theorem 2 pruning over the laminar interval forest
# ----------------------------------------------------------------------


def _stage_dedup(ctx: BuildContext) -> None:
    count, chains = ctx.require("interval_forest")
    cx1, cx2, cy1, cy2, cax, cay, cflag = ctx.require("candidates")
    total = len(cax)
    kept = bytearray(total)
    seen: set = set()
    add = seen.add
    # Premultiplied x-chains turn each (x ancestor, y ancestor) pair into
    # one packed dictionary key.
    packed = [tuple(entry * count for entry in chain) for chain in chains]
    kept_total = 0
    case1_total = 0
    index = 0
    for ax, ay, flag in zip(cax, cay, cflag):
        chain_y = chains[ay]
        pruned = False
        for base in packed[ax]:
            for other in chain_y:
                if base + other in seen:
                    pruned = True
                    break
            if pruned:
                break
        if pruned:
            if flag:
                raise AssertionError(
                    "Case-1 rectangle pruned; Theorem 2 reasoning violated"
                )
        else:
            kept[index] = 1
            kept_total += 1
            case1_total += flag
            add(ax * count + ay)
        index += 1
    ctx.put("kept", kept)

    registry = get_registry()
    registry.counter("repro_encode_rectangles_total", case="case1").inc(case1_total)
    registry.counter("repro_encode_rectangles_total", case="case2").inc(
        kept_total - case1_total)
    registry.counter("repro_encode_rect_pruned_total").inc(total - kept_total)


# ----------------------------------------------------------------------
# sections: bucket, sort, and serialise (varint chunks parallel)
# ----------------------------------------------------------------------


def _varint_chunk(payload):
    """Varint-encode one run of section rows.

    ``width`` is the integers per row; ``delta_lead`` applies the encoder's
    leading-coordinate delta within the section, seeded by ``prev_lead``
    (the lead of the row preceding this chunk).
    """
    flat, width, delta_lead, prev_lead = payload
    out = bytearray()
    if not delta_lead:
        for value in flat:
            _write_varint(out, value)
        return bytes(out)
    for start in range(0, len(flat), width):
        lead = flat[start]
        _write_varint(out, lead - prev_lead)
        for offset in range(1, width):
            _write_varint(out, flat[start + offset] - lead)
        prev_lead = lead
    return bytes(out)


def _encode_values(values, ctx: BuildContext, tasks, section_id, width: int,
                   delta_lead: bool) -> None:
    """Queue one section's integer stream for raw or chunked-varint coding."""
    if not ctx.compact:
        flat = values if isinstance(values, array) else array("I", values)
        if sys.byteorder == "little":
            tasks.append((section_id, None, flat.tobytes()))
        else:
            tasks.append((section_id, None,
                          b"".join(_U32.pack(value) for value in flat)))
        return
    flat = values if isinstance(values, array) else array("I", values)
    rows = len(flat) // width if width else 0
    bounds = _chunk_bounds(rows, ctx.executor.jobs * 2) or [(0, 0)]
    for a, b in bounds:
        prev_lead = flat[(a - 1) * width] if (delta_lead and a) else 0
        tasks.append(
            (section_id,
             (flat[a * width : b * width], width, delta_lead, prev_lead),
             None)
        )


_SHAPE_WIDTH = {"point": 2, "vline": 3, "hline": 3, "rect": 4}
_SHAPES = ("point", "vline", "hline", "rect")


def _stage_sections(ctx: BuildContext) -> None:
    pestrie = ctx.require("pestrie")
    cx1, cx2, cy1, cy2, _cax, _cay, cflag = ctx.require("candidates")
    kept = ctx.require("kept")

    case1 = {shape: [] for shape in _SHAPES}
    case2 = {shape: [] for shape in _SHAPES}
    for i in range(len(kept)):
        if not kept[i]:
            continue
        x1, x2, y1, y2 = cx1[i], cx2[i], cy1[i], cy2[i]
        bucket = case1 if cflag[i] else case2
        if x1 == x2:
            if y1 == y2:
                bucket["point"].append((x1, y1))
            else:
                bucket["vline"].append((x1, y1, y2))
        elif y1 == y2:
            bucket["hline"].append((x1, x2, y1))
        else:
            bucket["rect"].append((x1, x2, y1, y2))
    for buckets in (case1, case2):
        for shape in _SHAPES:
            # Field tuples sort exactly like Rect.as_tuple: degenerate
            # coordinates drop out of the key without changing the order.
            buckets[shape].sort()

    header = [pestrie.n_pointers, pestrie.n_objects, len(pestrie.groups)]
    for shape in _SHAPES:
        header.append(len(case1[shape]))
        header.append(len(case2[shape]))

    pointer_ts = pointer_timestamps(pestrie)
    object_ts = object_timestamps(pestrie)

    tasks: List[tuple] = []  # (section_id, varint payload | None, raw bytes | None)
    _encode_values(array("I", pointer_ts), ctx, tasks, 0, 1, False)
    _encode_values(array("I", object_ts), ctx, tasks, 1, 1, False)
    section_id = 2
    for buckets in (case1, case2):
        for shape in _SHAPES:
            flat = array("I")
            for row in buckets[shape]:
                flat.extend(row)
            _encode_values(flat, ctx, tasks, section_id, _SHAPE_WIDTH[shape], True)
            section_id += 1

    pending = [(i, payload) for i, (_sid, payload, _raw) in enumerate(tasks)
               if payload is not None]
    encoded = ctx.executor.map(_varint_chunk, [payload for _i, payload in pending])
    parts: List[bytes] = [raw if raw is not None else b""
                          for _sid, _payload, raw in tasks]
    for (task_index, _payload), data in zip(pending, encoded):
        parts[task_index] = data
    sections: List[bytes] = [b""] * 10
    for (sid, _payload, _raw), data in zip(tasks, parts):
        sections[sid] += data
    ctx.put("header", header)
    ctx.put("sections", sections)

    if ctx.version == 4:
        from .flat import build_flat_sections

        decode_order = [
            (Rect(x1=row[0], x2=row[0], y1=row[1], y2=row[1])
             if shape == "point" else
             Rect(x1=row[0], x2=row[0], y1=row[1], y2=row[2])
             if shape == "vline" else
             Rect(x1=row[0], x2=row[1], y1=row[2], y2=row[2])
             if shape == "hline" else
             Rect(x1=row[0], x2=row[1], y1=row[2], y2=row[3]), is_case1)
            for buckets, is_case1 in ((case1, True), (case2, False))
            for shape in _SHAPES
            for row in buckets[shape]
        ]
        counts, flat_sections = build_flat_sections(pointer_ts, object_ts,
                                                    decode_order)
        ctx.put("flat", (counts, flat_sections))


# ----------------------------------------------------------------------
# assemble: container framing (magic, flags, lengths, CRC)
# ----------------------------------------------------------------------


def _stage_assemble(ctx: BuildContext) -> None:
    header = ctx.require("header")
    sections = ctx.require("sections")
    header_bytes = b"".join(_U32.pack(value) for value in header)
    if ctx.version < 3:
        magic = MAGIC_COMPACT if ctx.compact else MAGIC_RAW
        ctx.put("payload", b"".join([magic, header_bytes] + sections))
        return
    lengths = b"".join(_U32.pack(len(section)) for section in sections)
    if ctx.version == 4:
        counts, flat_sections = ctx.require("flat")
        body = b"".join(
            [MAGIC_V4, bytes([0]), header_bytes, lengths,
             struct.pack("<4I", *counts)]
            + sections
            + flat_sections
        )
    else:
        body = b"".join(
            [MAGIC_V3, bytes([FLAG_COMPACT if ctx.compact else 0]),
             header_bytes, lengths]
            + sections
        )
    ctx.put("payload", body + _U32.pack(crc32(body)))


# ----------------------------------------------------------------------
# The pipeline
# ----------------------------------------------------------------------

ENCODE_STAGES: Tuple[Stage, ...] = (
    Stage("normalize", ("matrix",), ("csr", "pointed_by"), False, _stage_normalize),
    Stage("order", ("csr", "pointed_by"), ("object_order",), True, _stage_order),
    Stage("trie", ("pointed_by", "object_order"), ("pestrie",), False, _stage_trie),
    Stage("intervals", ("pestrie",), (), False, _stage_intervals),
    Stage("rectangles", ("pestrie",), ("candidates", "interval_forest"), True,
          _stage_rectangles),
    Stage("dedup", ("candidates", "interval_forest"), ("kept",), False, _stage_dedup),
    Stage("sections", ("pestrie", "candidates", "kept"), ("header", "sections"), True,
          _stage_sections),
    Stage("assemble", ("header", "sections"), ("payload",), False, _stage_assemble),
)


def run_stages(
    ctx: BuildContext,
    stages: Sequence[Stage],
    report: Optional[BuildReport] = None,
) -> None:
    """Run ``stages`` in order on ``ctx``, checking each stage's contract.

    Every stage runs under a ``stage.<name>`` span and is timed into
    ``repro_stage_seconds{stage}``; pass ``report`` to also collect its
    wall clock and peak RSS.  Any prefix of :data:`ENCODE_STAGES` is a
    valid slice, and so is a suffix whose inputs are already in ``ctx``.
    """
    registry = get_registry()
    for stage in stages:
        for key in stage.inputs:
            if key != "matrix":
                ctx.require(key)
        start = time.perf_counter()
        with trace.span("stage.%s" % stage.name):
            stage.run(ctx)
        elapsed = time.perf_counter() - start
        for key in stage.outputs:
            ctx.require(key)
        registry.histogram("repro_stage_seconds", stage=stage.name).observe(elapsed)
        if report is not None:
            report.stages.append(StageReport(
                name=stage.name,
                seconds=elapsed,
                peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            ))


def run_pipeline(
    matrix: PointsToMatrix,
    *,
    order: str = "hub",
    seed: Optional[int] = None,
    explicit_order: Optional[Sequence[int]] = None,
    compact: bool = False,
    version: int = DEFAULT_VERSION,
    jobs: Optional[int] = None,
    executor=None,
    report: Optional[BuildReport] = None,
) -> bytes:
    """Run all of :data:`ENCODE_STAGES`; returns the persistent-file bytes.

    The output is identical across executors and worker counts, and is
    pinned by the SHA-256 digests in ``tests/fixtures/encode_sha256.json``
    for every version/coding/order.  Pass ``report`` to collect per-stage
    wall clock and peak RSS.
    """
    compact = validate_version(version, compact)
    owns_executor = executor is None
    if executor is None:
        executor = make_executor(jobs)
    ctx = BuildContext(
        matrix,
        order=order,
        seed=seed,
        explicit_order=explicit_order,
        compact=compact,
        version=version,
        executor=executor,
    )
    try:
        with trace.span("encode.staged", pointers=matrix.n_pointers,
                        objects=matrix.n_objects, jobs=executor.jobs):
            run_stages(ctx, ENCODE_STAGES, report)
    finally:
        if owns_executor:
            executor.close()
    if report is not None:
        report.jobs = executor.jobs
    payload = ctx.artifacts["payload"]
    registry = get_registry()
    registry.gauge("repro_encode_parallel_jobs").set(executor.jobs)
    registry.counter("repro_encode_runs_total").inc()
    registry.gauge("repro_encode_bytes").set(len(payload))
    return payload
