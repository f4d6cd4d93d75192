"""Pestrie persistent-file format constants (Section 3.4.2, Figure 5).

Three format versions share one logical layout (all integers little-endian):

* ``PESTRIE1`` — raw uint32 payload;
* ``PESTRIE2`` — varint/delta-compressed payload (an extension of ours);
* ``PESTRIE3`` — the hardened production format: a flags byte selecting the
  integer coding, per-section byte lengths in the header (so a reader can
  bounds-check every count before allocating) and a CRC32 trailer over the
  whole file.

The shared logical layout is:

* header: ``n_pointers``, ``n_objects``, ``n_groups`` and eight shape
  counts — Case-1/Case-2 quantities of points, vertical lines, horizontal
  lines, and full rectangles;
* the pre-order timestamp of every pointer (``ABSENT`` for pointers with
  empty points-to sets, which never enter the trie) and of every object;
* eight rectangle sections, Case-1 before Case-2 within each shape.

Splitting rectangles by shape is the paper's size trick: a degenerate
rectangle is a point (2 integers) or a line (3 integers) instead of 4.
The writer is the ``sections`` and ``assemble`` stages of
``repro.core.stages``; this module holds what writer and readers share.
"""

from __future__ import annotations

import struct
from typing import List

from .structure import Pestrie

MAGIC_RAW = b"PESTRIE1"
MAGIC_COMPACT = b"PESTRIE2"
MAGIC_V3 = b"PESTRIE3"
MAGIC_V4 = b"PESTRIE4"

#: Magic of a DELTA record appended after a complete ``PESTRIE3`` image
#: (see ``repro.delta``).  Lives here with the other magics so the decoder
#: can tell "trailing garbage" from "delta records you must decode with the
#: delta-aware loader".
MAGIC_DELTA = b"PESDELT1"

#: Magic of the epoch-stamped DELTA record variant (``repro.delta.format``):
#: same layout as ``PESDELT1`` plus a uint32 epoch after the flags byte.
MAGIC_DELTA2 = b"PESDELT2"

#: The format version new files are written in.
DEFAULT_VERSION = 3

#: ``PESTRIE3`` flags byte: bit 0 selects varint/delta integer coding.
FLAG_COMPACT = 0x01

#: Timestamp sentinel for pointers outside the trie (empty points-to set).
ABSENT = 0xFFFFFFFF

#: Every fixed-width integer in the format: little-endian uint32.
_U32 = struct.Struct("<I")


def pointer_timestamps(pestrie: Pestrie) -> List[int]:
    """Per-pointer group pre-order timestamps (``ABSENT`` when untracked)."""
    stamps = []
    for pointer in range(pestrie.n_pointers):
        group_id = pestrie.group_of_pointer[pointer]
        stamps.append(ABSENT if group_id is None else pestrie.pre_order[group_id])
    return stamps


def object_timestamps(pestrie: Pestrie) -> List[int]:
    """Per-object origin-group pre-order timestamps."""
    return [pestrie.pre_order[pestrie.group_of_object[obj]] for obj in range(pestrie.n_objects)]


def _write_varint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint; the domain is exactly ``uint32``."""
    if value < 0:
        # ``value >>= 7`` never reaches 0 for Python's arbitrary-precision
        # negatives, so this would loop forever instead of failing.
        raise ValueError("varint value must be non-negative, got %d" % value)
    if value > 0xFFFFFFFF:
        raise ValueError("varint value %d exceeds uint32 range" % value)
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def validate_version(version: int, compact: bool) -> bool:
    """Check a (version, compact) pair; return the effective compact flag."""
    if version not in (1, 2, 3, 4):
        raise ValueError("unknown Pestrie format version %r" % version)
    if version == 1 and compact:
        raise ValueError(
            "format version 1 stores raw uint32s; use version 2 or 3 for compact coding"
        )
    if version == 4 and compact:
        raise ValueError(
            "format version 4 stores raw uint32 sections so queries can run "
            "zero-copy over the mapped bytes; compact coding is not available"
        )
    return True if version == 2 else compact
