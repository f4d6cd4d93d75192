"""The bench ledger: end-to-end and per-layer performance of the Pestrie system.

One command (``python -m ledger``) runs seven workloads, each in a fresh
process, checks every answer against the raw points-to matrix, and prints
every metric as ``name workload value unit``.  See ``ledger/README.md`` for
the metric, workload and layer definitions and for how the bounds were set.

The ledger drives the program only through its public entry points and
imports it from the ``src/`` directory of the checkout it lives in, never
from an installed copy: :func:`require_source` enforces that before any
workload module is imported.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: Root of the checkout: the directory holding ``ledger/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
#: The program source the ledger measures.
SRC = ROOT / "src"
#: Scratch space for images, sockets, daemon logs and span dumps.
WORK = ROOT / ".ledger"


def require_source() -> None:
    """Put ``src/`` first on ``sys.path`` and check ``repro`` loads from it.

    Raises :class:`SystemExit` (a non-zero exit, no result printed) when
    the checkout carries no program source, so a stripped copy of the
    benchmark fails instead of measuring whatever ``repro`` is installed.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit("ledger: no program source at %s" % (SRC / "repro"))
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    loaded = Path(repro.__file__).resolve()
    if SRC not in loaded.parents:
        raise SystemExit("ledger: repro was imported from %s, not from %s"
                         % (loaded, SRC))
