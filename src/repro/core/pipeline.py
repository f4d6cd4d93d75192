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
from .decoder import _instrumented_decode
from .encoder import DEFAULT_VERSION
from .flat import FlatIndex
from .ioutil import atomic_write
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


def index_from_bytes(data: bytes, lazy: bool = False) -> FlatIndex:
    """Open persistent-file bytes as a query index.

    The index reads ``data`` through a :class:`repro.store.Container`
    (no copy for ``bytes``).  ``lazy=True`` validates only the container
    skeleton (header, table of contents, CRC) and leaves the column work —
    checking mapped ``PESTRIE4`` columns, deriving them for older formats —
    to the first query.  The default does that work before returning, as
    an instrumented decode, so a corrupt section raises here.
    """
    from ..store import Container  # deferred: store builds on core

    if lazy:
        return FlatIndex(Container.from_bytes(data, allow_tail=False))

    def supplier():
        container = Container.from_bytes(data, allow_tail=False)
        index = FlatIndex(container)
        try:
            return index.load(), sum(container.shape_counts)
        except BaseException:
            index.close()
            raise

    return _instrumented_decode(supplier, len(data))


def load_index(path: str, lazy: bool = False) -> FlatIndex:
    """Load a persistent file from disk into a query index.

    ``lazy=True`` maps the file and defers all column work to the first
    query — call ``index.close()`` when done with it.  The default reads
    the file into bytes the index owns and builds every column before
    returning, so nothing stays mapped.
    """
    from ..store import open_index  # deferred: store builds on core

    if lazy:
        return open_index(path)
    with open(path, "rb") as stream:
        return index_from_bytes(stream.read())
