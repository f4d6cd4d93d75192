"""Seeded inputs and the oracles that check every answer against them.

The programs are fixed calibrated matrices (generator seed
:data:`PROGRAM_SEED`); ``--seed`` relabels their pointer and object ids
and drives every query stream and delta script.  Relabelling keeps the
structure the system's costs depend on (fact count, equivalence classes,
hub degrees) identical across seeds, while each seed still hands the
program different bytes.  Re-seeding the generator instead moves the fact
count by 15% and ``list_aliases`` cost by 21% (inter-quartile, ten seeds
at 4000 pointers), more than any bound the ledger could hold.
"""

from __future__ import annotations

import hashlib
import random
import struct
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.bench.synthetic import SyntheticSpec, synthesize
from repro.bench.workloads import (
    IS_ALIAS,
    LIST_ALIASES,
    LIST_POINTED_BY,
    LIST_POINTS_TO,
    TraceSpec,
    generate_trace,
)
from repro.daemon import protocol
from repro.matrix.bitmap import SparseBitmap
from repro.matrix.points_to import PointsToMatrix

PROGRAM_SEED = 1
#: (pointers, objects) of the served program and of the build program.
SERVE_SHAPE = (4000, 800)
BUILD_SHAPE = (30000, 6000)
#: ``--quick`` shapes: about a tenth of the work.
QUICK_SERVE_SHAPE = (400, 80)
QUICK_BUILD_SHAPE = (3000, 600)

#: The race-detector query mix (is_alias, points_to, pointed_by, aliases).
RACE_MIX = (0.70, 0.15, 0.05, 0.10)
READER_MIX = (0.70, 0.15, 0.05, 0.0)
ZIPF = 0.8
#: Each delta edits DELTA_FACTS facts, INSERT_SHARE of them inserts.
DELTA_FACTS = 8
INSERT_SHARE = 0.6

Frame = Tuple[str, list]
DeltaOps = List[Tuple[str, int, int]]


def _stream_seed(seed: int, stream: int) -> int:
    return seed * 1_000_003 + stream


def rng(seed: int, stream: int) -> random.Random:
    """An independent generator per (seed, stream) pair."""
    return random.Random(_stream_seed(seed, stream))


def program(shape: Tuple[int, int], seed: int) -> PointsToMatrix:
    """The calibrated program of ``shape``, its ids relabelled by ``seed``."""
    n_pointers, n_objects = shape
    base = synthesize(SyntheticSpec(n_pointers=n_pointers, n_objects=n_objects,
                                    seed=PROGRAM_SEED))
    shuffler = rng(seed, 0)
    pointer_ids = list(range(n_pointers))
    object_ids = list(range(n_objects))
    shuffler.shuffle(pointer_ids)
    shuffler.shuffle(object_ids)
    matrix = PointsToMatrix(n_pointers, n_objects)
    for pointer, row in enumerate(base.rows):
        matrix.rows[pointer_ids[pointer]] = SparseBitmap(object_ids[obj] for obj in row)
    return matrix


def matrix_digest(matrix: PointsToMatrix) -> str:
    digest = hashlib.sha256(struct.pack("<II", matrix.n_pointers, matrix.n_objects))
    for row in matrix.rows:
        objects = list(row)
        digest.update(struct.pack("<I%dI" % len(objects), len(objects), *objects))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Query streams
# ----------------------------------------------------------------------


def _ops(matrix: PointsToMatrix, seed: int, stream: int, length: int,
         mix: Sequence[float]):
    spec = TraceSpec(length=length, mix=tuple(mix), locality=ZIPF,
                     seed=_stream_seed(seed, stream))
    return generate_trace(spec, range(matrix.n_pointers),
                          range(matrix.n_objects)).operations


def pair_frames(matrix: PointsToMatrix, seed: int, stream: int, count: int,
                width: int) -> List[Frame]:
    """``count`` frames of ``width`` Zipf-popular ``is_alias`` pairs."""
    ops = _ops(matrix, seed, stream, count * width, (1.0, 0.0, 0.0, 0.0))
    pairs = [operands for _, operands in ops]
    return [(IS_ALIAS, pairs[start:start + width])
            for start in range(0, count * width, width)]


def mix_frames(matrix: PointsToMatrix, seed: int, stream: int, count: int,
               width: int, mix: Sequence[float]) -> List[Frame]:
    """``count`` single-kind frames of ``width`` ops drawn from ``mix``.

    Ops are generated in trace order and grouped by kind; a frame is
    emitted when its kind has ``width`` pending ops.
    """
    pending: Dict[str, list] = {}
    frames: List[Frame] = []
    length = count * width
    while len(frames) < count:
        for kind, operands in _ops(matrix, seed, stream, length, mix):
            bucket = pending.setdefault(kind, [])
            bucket.append(operands if kind == IS_ALIAS else operands[0])
            if len(bucket) == width:
                frames.append((kind, bucket))
                pending[kind] = []
                if len(frames) == count:
                    break
        stream += 7919
    return frames


def frame_bytes(frame: Frame) -> bytes:
    """The canonical request body of a frame (fingerprints, codec timing)."""
    kind, operands = frame
    if kind == IS_ALIAS:
        return protocol.encode_is_alias(operands)
    return protocol.encode_list(_LIST_OPS[kind], operands)


_LIST_OPS = {
    LIST_ALIASES: protocol.OP_LIST_ALIASES,
    LIST_POINTS_TO: protocol.OP_LIST_POINTS_TO,
    LIST_POINTED_BY: protocol.OP_LIST_POINTED_BY,
}


def delta_script(matrix: PointsToMatrix, seed: int, count: int) -> List[DeltaOps]:
    """``count`` deltas of DELTA_FACTS edits, Zipf-biased to hot pointers.

    Deletes remove a fact the pointer holds at that point of the script,
    so every delete is effective; inserts pick a uniform object.
    """
    draw = rng(seed, 5)
    hot = list(range(matrix.n_pointers))
    draw.shuffle(hot)
    rows: Dict[int, set] = {}
    script: List[DeltaOps] = []
    for _ in range(count):
        ops: DeltaOps = []
        for _ in range(DELTA_FACTS):
            rank = int(len(hot) * draw.random() ** (1.0 + ZIPF))
            pointer = hot[min(rank, len(hot) - 1)]
            row = rows.setdefault(pointer, set(matrix.rows[pointer]))
            if row and draw.random() >= INSERT_SHARE:
                obj = draw.choice(sorted(row))
                row.discard(obj)
                ops.append(("-", pointer, obj))
            else:
                obj = draw.randrange(matrix.n_objects)
                row.add(obj)
                ops.append(("+", pointer, obj))
        script.append(ops)
    return script


def stream_digest(frames: Sequence[Frame] = (), script: Sequence[DeltaOps] = ()) -> str:
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(frame_bytes(frame))
    for ops in script:
        digest.update(protocol.encode_apply_delta(ops))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


class Oracle:
    """Table 1 answers computed from the raw matrix."""

    def __init__(self, matrix: PointsToMatrix):
        self.rows: List[FrozenSet[int]] = [frozenset(row) for row in matrix.rows]
        pointed: List[List[int]] = [[] for _ in range(matrix.n_objects)]
        for pointer, row in enumerate(self.rows):
            for obj in row:
                pointed[obj].append(pointer)
        self._pointed = pointed
        self._aliases: Dict[int, List[int]] = {}

    def answer(self, kind: str, operand):
        if kind == IS_ALIAS:
            p, q = operand
            return not self.rows[p].isdisjoint(self.rows[q])
        if kind == LIST_POINTS_TO:
            return sorted(self.rows[operand])
        if kind == LIST_POINTED_BY:
            return self._pointed[operand]
        aliases = self._aliases.get(operand)
        if aliases is None:
            found = set()
            for obj in self.rows[operand]:
                found.update(self._pointed[obj])
            found.discard(operand)
            aliases = self._aliases[operand] = sorted(found)
        return aliases

    def frame(self, frame: Frame) -> list:
        kind, operands = frame
        return [self.answer(kind, operand) for operand in operands]

    def equivalent_pair(self) -> Tuple[int, int]:
        """Two pointers with one identical non-empty points-to set."""
        first: Dict[FrozenSet[int], int] = {}
        for pointer, row in enumerate(self.rows):
            if row:
                if row in first:
                    return first[row], pointer
                first[row] = pointer
        raise ValueError("program has no equivalent pointer pair")


class EpochOracle:
    """One oracle state per epoch of a delta script (epoch 0 = the base)."""

    def __init__(self, base: Oracle, script: Sequence[DeltaOps]):
        self._base = base
        self._changed: List[Dict[int, FrozenSet[int]]] = [{}]
        for ops in script:
            changed = dict(self._changed[-1])
            for op, pointer, obj in ops:
                row = set(changed.get(pointer, base.rows[pointer]))
                if op == "+":
                    row.add(obj)
                else:
                    row.discard(obj)
                changed[pointer] = frozenset(row)
            self._changed.append(changed)

    def answer(self, epoch: int, kind: str, operand):
        changed = self._changed[epoch]
        rows = self._base.rows
        if kind == IS_ALIAS:
            p, q = operand
            return not changed.get(p, rows[p]).isdisjoint(changed.get(q, rows[q]))
        if kind == LIST_POINTS_TO:
            return sorted(changed.get(operand, rows[operand]))
        if kind == LIST_POINTED_BY:
            return sorted(
                [p for p in self._base.answer(kind, operand) if p not in changed]
                + [p for p, row in changed.items() if operand in row])
        raise ValueError("the epoch oracle does not answer %s" % kind)

    def frame(self, epoch: int, frame: Frame) -> list:
        kind, operands = frame
        return [self.answer(epoch, kind, operand) for operand in operands]


def matches(frame: Frame, answers: list, expected: list) -> bool:
    """Whether a frame's answers equal the oracle's (list order ignored)."""
    if frame[0] == IS_ALIAS:
        return answers == expected
    # Rows that already arrive sorted skip the sort: the check runs inside
    # the closed loop, where its cost delays the connection's next frame.
    return len(answers) == len(expected) and all(
        row == want or sorted(row) == want for row, want in zip(answers, expected))
