"""Daemon list responses are pinned byte for byte.

The list queries answer in a stable but unordered run order, and the wire
carries that order verbatim.  This module replays one seeded stream of
``LIST_ALIASES`` / ``LIST_POINTS_TO`` / ``LIST_POINTED_BY`` frames at a
socket daemon over a v3 and a v4 image — live, after a hot ``APPLY_DELTA``
(the overlay), and pinned with ``QUERY_AT`` to the base and to the head —
and compares the SHA-256 of every group of response bodies with the
digests in ``fixtures/list_response_sha256.json``.  A change to how an
answer is computed, cached, or encoded must leave these bytes alone.

Regenerate the fixture (only when the wire order is meant to change)::

    PYTHONPATH=src python tests/test_list_responses.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from typing import Dict

from repro.bench.synthetic import SyntheticSpec, synthesize
from repro.bench.workloads import TraceSpec, generate_trace
from repro.clients import DaemonClient
from repro.core.pipeline import persist
from repro.daemon import AliasDaemon, ThreadedDaemon, protocol
from repro.serve import AliasService

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "list_response_sha256.json")

_OPS = {
    "list_aliases": protocol.OP_LIST_ALIASES,
    "list_points_to": protocol.OP_LIST_POINTS_TO,
    "list_pointed_by": protocol.OP_LIST_POINTED_BY,
}
_FRAME_OPERANDS = 16


def _stream(matrix):
    """``{kind: [frame operands, ...]}`` from one seeded list-only trace."""
    trace = generate_trace(TraceSpec(length=360, mix=(0.0, 1.0, 1.0, 1.0), seed=3),
                           list(range(matrix.n_pointers)),
                           list(range(matrix.n_objects)))
    operands: Dict[str, list] = {kind: [] for kind in _OPS}
    for kind, args in trace.operations:
        operands[kind].append(args[0])
    return {kind: [ids[i:i + _FRAME_OPERANDS]
                   for i in range(0, len(ids), _FRAME_OPERANDS)]
            for kind, ids in operands.items()}


def _delta(matrix, stream):
    """A seeded edit script on queried ids, so dirty rows and columns show.

    Fresh facts join streamed pointers to streamed objects; deletions drop
    an existing fact of a streamed pointer.
    """
    rng = random.Random(11)
    pointers = sorted({p for kind in ("list_aliases", "list_points_to")
                       for frame in stream[kind] for p in frame})
    objects = sorted({o for frame in stream["list_pointed_by"] for o in frame})
    ops = [("+", rng.choice(pointers), rng.choice(objects)) for _ in range(10)]
    rows = [p for p in pointers if matrix.list_points_to(p)]
    for p in rng.sample(rows, 10):
        ops.append(("-", p, rng.choice(matrix.list_points_to(p))))
    return ops


def response_digests() -> Dict[str, str]:
    """``{"v<n>/<case>/<kind>": sha256 of the concatenated response bodies}``."""
    matrix = synthesize(SyntheticSpec(n_pointers=600, n_objects=150, seed=5))
    stream = _stream(matrix)
    digests: Dict[str, str] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for version in (3, 4):
            path = os.path.join(scratch, "m%d.pes" % version)
            persist(matrix, path, version=version)
            service = AliasService.from_files([path], lazy=True)
            sock = os.path.join(scratch, "d%d.sock" % version)
            runner = ThreadedDaemon(AliasDaemon(service, socket_path=sock,
                                                close_service=True)).start()
            try:
                with DaemonClient(sock) as client:
                    def digest(case, wrap=lambda body: body):
                        for kind, op in _OPS.items():
                            sha = hashlib.sha256()
                            for operands in stream[kind]:
                                body = client._exchange(
                                    wrap(protocol.encode_list(op, operands)))
                                assert body[0] == protocol.ST_OK, body
                                sha.update(body)
                            digests["v%d/%s/%s" % (version, case, kind)] = \
                                sha.hexdigest()

                    digest("live")
                    client.apply_delta(_delta(matrix, stream))
                    digest("overlay")
                    floor, head = client.versions()
                    digest("as_of_base",
                           lambda body: protocol.encode_query_at(floor, body))
                    digest("as_of_head",
                           lambda body: protocol.encode_query_at(head, body))
            finally:
                runner.stop()
    return digests


def test_list_responses_match_pinned_digests():
    with open(FIXTURE) as handle:
        pinned = json.load(handle)["digests"]
    assert response_digests() == pinned


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_list_responses.py --write")
    document = {
        "about": "SHA-256 of daemon list response bodies to a seeded frame "
                 "stream (see tests/test_list_responses.py); keys are "
                 "v<format>/<case>/<query>.",
        "digests": response_digests(),
    }
    with open(FIXTURE, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
