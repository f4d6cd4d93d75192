"""Hub degrees and object orders (Sections 2.2 and 5.2).

The *hub degree* of an object ``o`` is

    H_o = sqrt( Σ_{p ∈ PMT[o]} |PM[p]|² )

the L2 norm of the points-to-set sizes of the pointers pointing to ``o`` —
equivalently, a two-round iteration of the HITS hub score on the points-to
bipartite graph.  Pestrie partitions pointers using objects in *descending*
hub-degree order; Theorem 3 shows the induced uneven partition maximises the
internal-pair objective, and Comer's trie heuristic argues it also keeps the
cross-edge count low.

The ``order`` stage of ``repro.core.stages`` turns these metrics into the
construction order (descending degree, ties by ascending id); the random
and identity orders here serve the Figure 7 experiment and the worked
example.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence

from ..matrix.points_to import PointsToMatrix


def hub_degrees(matrix: PointsToMatrix) -> List[float]:
    """Definition 1 hub degree for every object of ``matrix``."""
    row_sizes = [len(row) for row in matrix.rows]
    sums = [0] * matrix.n_objects
    for pointer, row in enumerate(matrix.rows):
        weight = row_sizes[pointer] ** 2
        for obj in row:
            sums[obj] += weight
    return [math.sqrt(total) for total in sums]


def simple_degrees(matrix: PointsToMatrix) -> List[int]:
    """The naive alternative metric ``|PMT[o]|`` (pointed-by count)."""
    counts = [0] * matrix.n_objects
    for row in matrix.rows:
        for obj in row:
            counts[obj] += 1
    return counts


def random_order(matrix: PointsToMatrix, seed: Optional[int] = None) -> List[int]:
    """A uniformly random object order — the Pes_rand baseline of Figure 7."""
    order = list(range(matrix.n_objects))
    random.Random(seed).shuffle(order)
    return order


def identity_order(matrix: PointsToMatrix) -> List[int]:
    """Objects in id order; matches the paper's worked example (Table 4)."""
    return list(range(matrix.n_objects))


def validate_order(order: Sequence[int], n_objects: int) -> List[int]:
    """Check that ``order`` is a permutation of ``0..n_objects-1``."""
    order = list(order)
    if sorted(order) != list(range(n_objects)):
        raise ValueError("object order must be a permutation of 0..%d" % (n_objects - 1))
    return order


def partition_objective(matrix: PointsToMatrix, order: Sequence[int]) -> int:
    """The OPP objective ``O_π = Σ I_i²`` for object order ``π`` (Section 5.1).

    ``I_i`` is the number of pointers first claimed by the i-th object: a
    pointer belongs to the earliest object in the order it points to.
    """
    order = validate_order(order, matrix.n_objects)
    position = [0] * matrix.n_objects
    for rank, obj in enumerate(order):
        position[obj] = rank
    sizes = [0] * matrix.n_objects
    for row in matrix.rows:
        best = min((position[obj] for obj in row), default=None)
        if best is not None:
            sizes[best] += 1
    return sum(size * size for size in sizes)
