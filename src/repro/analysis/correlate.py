"""Variable correlation across analysis cycles (Section 6.2).

A persistent file maps variables to integers, so later analysis runs must
reproduce the *same* mapping to interpret it.  The paper saves, alongside
the pointer information: the IR, the variable-name-to-integer mapping, and
the call graph with its call-edge numbering.  This module implements that
archive: a directory holding

* ``program.ir``       — the IR pretty-printed back to parseable source;
* ``variables.json``   — pointer-name → row and object-name → column maps;
* ``call_edges.json``  — call-edge label → id (context naming stability);
* ``points_to.pes``    — the Pestrie persistent file itself.

``load_archive`` restores all four; ``Archive.pointer_id`` then resolves
source-level queries like ``ListPointsTo(c, p)`` against the stable ids.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, Optional

from ..core.pipeline import load_index, persist
from ..core.flat import FlatIndex
from ..matrix.points_to import PointsToMatrix
from .callgraph import CallGraph
from .ir import Program
from .parser import format_program, parse_program

_PROGRAM_FILE = "program.ir"
_VARIABLES_FILE = "variables.json"
_CALL_EDGES_FILE = "call_edges.json"
_MATRIX_FILE = "points_to.pes"


@dataclass
class Archive:
    """A loaded analysis archive: IR + naming + query index."""

    program: Program
    pointer_index: Dict[str, int]
    object_index: Dict[str, int]
    call_edge_ids: Dict[str, int]
    index: FlatIndex

    def pointer_id(self, name: str) -> int:
        return self.pointer_index[name]

    def object_id(self, name: str) -> int:
        return self.object_index[name]

    # Source-level query veneer.

    def is_alias(self, p: str, q: str) -> bool:
        return self.index.is_alias(self.pointer_index[p], self.pointer_index[q])

    def list_points_to(self, p: str) -> list:
        names = _invert(self.object_index)
        return sorted(names[obj] for obj in self.index.list_points_to(self.pointer_index[p]))

    def list_pointed_by(self, o: str) -> list:
        names = _invert(self.pointer_index)
        return sorted(names[p] for p in self.index.list_pointed_by(self.object_index[o]))

    def list_aliases(self, p: str) -> list:
        names = _invert(self.pointer_index)
        return sorted(names[q] for q in self.index.list_aliases(self.pointer_index[p]))


def _invert(index: Dict[str, int]) -> Dict[int, str]:
    return {value: key for key, value in index.items()}


def save_archive(
    directory: str,
    program: Program,
    matrix: PointsToMatrix,
    pointer_index: Dict[str, int],
    object_index: Dict[str, int],
    order: str = "hub",
    compact: bool = False,
) -> None:
    """Persist a full analysis cycle: IR, naming, call graph, pointer info.

    ``pointer_index``/``object_index`` are the name tables produced by the
    Section 6.1 transforms (or built from a :class:`SymbolTable`).
    """
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, _PROGRAM_FILE), "w") as stream:
        stream.write(format_program(program))
    with open(os.path.join(directory, _VARIABLES_FILE), "w") as stream:
        json.dump({"pointers": pointer_index, "objects": object_index}, stream)
    callgraph = CallGraph(program)
    call_edge_ids = {site.label: index for site, index in callgraph.site_ids.items()}
    with open(os.path.join(directory, _CALL_EDGES_FILE), "w") as stream:
        json.dump(call_edge_ids, stream)
    persist(matrix, os.path.join(directory, _MATRIX_FILE), order=order, compact=compact)


def load_archive(directory: str) -> Archive:
    """Reload a saved analysis cycle without re-running any analysis."""
    with open(os.path.join(directory, _PROGRAM_FILE)) as stream:
        program = parse_program(stream.read())
    with open(os.path.join(directory, _VARIABLES_FILE)) as stream:
        naming = json.load(stream)
    with open(os.path.join(directory, _CALL_EDGES_FILE)) as stream:
        call_edge_ids = json.load(stream)
    index = load_index(os.path.join(directory, _MATRIX_FILE))
    return Archive(
        program=program,
        pointer_index=naming["pointers"],
        object_index=naming["objects"],
        call_edge_ids=call_edge_ids,
        index=index,
    )


def check_correlation(first: Archive, second: Archive) -> bool:
    """True when two archives agree on every shared name's integer id —
    the invariant that makes persisted results reusable across runs."""
    for name, value in first.pointer_index.items():
        if second.pointer_index.get(name, value) != value:
            return False
    for name, value in first.object_index.items():
        if second.object_index.get(name, value) != value:
            return False
    for name, value in first.call_edge_ids.items():
        if second.call_edge_ids.get(name, value) != value:
            return False
    return True


def registry_path(directory: str) -> Optional[str]:
    """The variables.json path if ``directory`` is an archive, else None."""
    path = os.path.join(directory, _VARIABLES_FILE)
    return path if os.path.exists(path) else None
