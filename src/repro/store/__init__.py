"""Unified storage layer: mmap-backed containers, lazy section access.

Every layer that opens persisted bytes — the eager decoder, the pipeline
loaders, the alias service, the delta appender, the baseline persistence,
the CLI — goes through this package.  See :mod:`repro.store.container` for
the access-layer semantics.

* :func:`open_container` — map a file, validate the skeleton once, parse
  nothing else.
* :func:`open_index` — a lazy :class:`~repro.core.flat.FlatIndex`: zero-copy
  over a ``PESTRIE4`` file's flat sections, derived at first query from an
  older file's sections.
* :func:`open_blob` — a raw mapped blob for non-Pestrie formats (BitP).
"""

from __future__ import annotations

from .container import (
    SECTION_NAMES,
    Container,
    ContainerClosedError,
    MappedBlob,
)

__all__ = [
    "Container",
    "ContainerClosedError",
    "MappedBlob",
    "SECTION_NAMES",
    "open_blob",
    "open_container",
    "open_index",
]


def open_container(path: str, allow_tail: bool = True) -> Container:
    """Map ``path`` read-only and validate its skeleton (header, TOC, CRC)."""
    return Container.open(path, allow_tail=allow_tail)


def open_index(path: str):
    """Open ``path`` as a lazy query index; nothing is parsed until queried.

    Every format is served by :class:`~repro.core.flat.FlatIndex`.  Files
    carrying appended DELTA records are rejected (serving the base while
    silently ignoring the tail would return pre-update answers) — load
    those with ``repro.delta.load_overlay(path, lazy=True)``.  Call
    ``index.close()`` when done; it releases the mapping.
    """
    from ..core.flat import FlatIndex

    container = Container.open(path, allow_tail=False)
    try:
        return FlatIndex(container)
    except BaseException:
        container.close()
        raise


def open_blob(path: str) -> MappedBlob:
    """Map a raw persisted blob (no Pestrie framing) read-only."""
    return MappedBlob(path)
