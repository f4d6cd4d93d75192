"""End-to-end Pestrie pipeline: matrix → persistent file → query index.

This is the facade most users want: :func:`persist` turns a points-to
matrix into a persistent file, :func:`load_index` turns a persistent file
into a query structure, and :func:`encode`/:func:`index_from_bytes` are the
in-memory equivalents.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..matrix.points_to import PointsToMatrix
from ..obs import trace
from .decoder import decode_bytes, load_payload
from .encoder import DEFAULT_VERSION
from .ioutil import atomic_write
from .query import PestrieIndex
from .stages import run_pipeline


def encode(
    matrix: PointsToMatrix,
    order: str = "hub",
    seed: Optional[int] = None,
    compact: bool = False,
    explicit_order: Optional[Sequence[int]] = None,
    version: int = DEFAULT_VERSION,
    jobs: Optional[int] = None,
) -> bytes:
    """Encode a matrix straight to persistent-file bytes.

    Runs the staged build pipeline (``repro.core.stages``); ``jobs`` > 1
    fans the parallel stages out over that many worker processes, with
    output byte-identical to the serial run.
    """
    with trace.span("encode", pointers=matrix.n_pointers, objects=matrix.n_objects):
        return run_pipeline(matrix, order=order, seed=seed,
                            explicit_order=explicit_order, compact=compact,
                            version=version, jobs=jobs)


def persist(
    matrix: PointsToMatrix,
    path: str,
    order: str = "hub",
    seed: Optional[int] = None,
    compact: bool = False,
    explicit_order: Optional[Sequence[int]] = None,
    version: int = DEFAULT_VERSION,
    jobs: Optional[int] = None,
) -> int:
    """Encode ``matrix`` and write the persistent file; return its size.

    The write is atomic (``ioutil.atomic_write``): a crash mid-write never
    leaves a torn persistent file behind.
    """
    with trace.span("persist", pointers=matrix.n_pointers, objects=matrix.n_objects):
        payload = run_pipeline(matrix, order=order, seed=seed,
                               explicit_order=explicit_order, compact=compact,
                               version=version, jobs=jobs)
        with trace.span("persist.write", path=path):
            atomic_write(path, payload)
            return len(payload)


def index_from_bytes(data: bytes, mode: str = "ptlist",
                     lazy: bool = False) -> PestrieIndex:
    """Decode persistent-file bytes into a query index.

    ``mode="segment"`` builds the low-memory segment-tree structure
    instead of the per-column rectangle lists (see :class:`PestrieIndex`).
    ``lazy=True`` validates only the container skeleton (header, table of
    contents, CRC) and defers section parsing and structure builds to the
    first query that needs them; on a ``PESTRIE4`` image the lazy path is
    the zero-copy :class:`repro.core.flat.FlatIndex`, which never rebuilds
    sections at all.
    """
    from ..store import Container  # deferred: store builds on core
    from .flat import index_for_container

    if lazy:
        return index_for_container(
            Container.from_bytes(data, allow_tail=False), mode=mode
        )
    payload = decode_bytes(data)
    with trace.span("index.build", mode=mode):
        return PestrieIndex(payload, mode=mode)


def load_index(path: str, mode: str = "ptlist", lazy: bool = False) -> PestrieIndex:
    """Load a persistent file from disk into a query index.

    Both flavours go through the mmap-backed store layer: eager loads
    materialise everything before returning (and release the mapping);
    ``lazy=True`` returns a cheap index whose structures build on first
    query — call ``index.close()`` when done with it.
    """
    from ..store import open_index  # deferred: store builds on core

    if lazy:
        return open_index(path, mode=mode)
    payload = load_payload(path)
    with trace.span("index.build", mode=mode):
        return PestrieIndex(payload, mode=mode)

