"""repro — a faithful reimplementation of Pestrie (PLDI 2014).

Persistent pointer information: compact persistence and fast querying of
points-to and alias relations, after Xiao, Zhang, Zhou, and Zhang,
*Persistent Pointer Information*, PLDI 2014.

Quickstart::

    from repro import PointsToMatrix, persist, load_index

    pm = PointsToMatrix.from_pairs(3, 2, [(0, 0), (1, 0), (2, 1)])
    persist(pm, "points_to.pes")
    index = load_index("points_to.pes")
    assert index.is_alias(0, 1)
"""

from .core import (
    PestrieIndex,
    build_pestrie,
    encode,
    index_from_bytes,
    load_index,
    persist,
)
from .matrix import (
    PointsToMatrix,
    SparseBitmap,
    object_equivalence,
    pointer_equivalence,
)
from .obs import get_registry, trace
from .serve import AliasService, ShardedIndex

__version__ = "1.0.0"

__all__ = [
    "AliasService",
    "PestrieIndex",
    "PointsToMatrix",
    "ShardedIndex",
    "SparseBitmap",
    "build_pestrie",
    "encode",
    "get_registry",
    "index_from_bytes",
    "load_index",
    "object_equivalence",
    "persist",
    "pointer_equivalence",
    "trace",
    "__version__",
]
