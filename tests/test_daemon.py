"""The daemon tier: wire protocol, asyncio server, client, worker mode.

Correctness here means three things at once: every answer that crosses
the socket matches the in-process oracle, hostile or half-dead peers
never take the daemon (or other clients) down, and a hot ``apply_delta``
under concurrent load produces zero wrong answers.
"""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.clients import DaemonClient, DaemonError
from repro.core.pipeline import encode, index_from_bytes, persist
from repro.daemon import AliasDaemon, ThreadedDaemon, protocol
from repro.daemon.protocol import (
    MAX_FRAME_BYTES,
    OP_IS_ALIAS,
    OP_LIST_ALIASES,
    OP_LIST_POINTS_TO,
    ST_BAD_REQUEST,
    ST_OK,
    ProtocolError,
)
from repro.delta import DeltaLog
from repro.obs import get_registry
from repro.serve import AliasService

from conftest import make_random_matrix
from test_serve import _apply_script

import random


# ----------------------------------------------------------------------
# Protocol unit tests (no sockets involved)
# ----------------------------------------------------------------------


class TestProtocol:
    def test_query_round_trips(self):
        pairs = [(0, 1), (7, 7), (2 ** 31, 5)]
        body = protocol.encode_is_alias(pairs)
        assert protocol.request_op(body) == OP_IS_ALIAS
        assert protocol.decode_is_alias(body) == pairs

        operands = [3, 1, 4, 1, 5]
        body = protocol.encode_list(OP_LIST_POINTS_TO, operands)
        assert protocol.decode_list(body) == operands

        ops = [("+", 1, 2), ("-", 3, 4)]
        body = protocol.encode_apply_delta(ops)
        assert protocol.decode_apply_delta(body) == ops

    def test_response_round_trips(self):
        body = protocol.encode_bools([True, False, True])
        status, payload = protocol.split_response(body)
        assert status == ST_OK
        assert protocol.decode_bools(payload, 3) == [True, False, True]

        rows = [[1, 2, 3], [], [9]]
        status, payload = protocol.split_response(protocol.encode_id_lists(rows))
        assert protocol.decode_id_lists(payload, 3) == rows

    def test_packed_rows_round_trip(self):
        rows = [[1, 2, 3], [], [9, 2 ** 32 - 1]]
        packed = [struct.pack("<%dI" % len(row), *row) for row in rows]
        body = protocol.encode_id_lists(packed)
        # Packed rows go on the wire exactly as id rows would.
        assert body == protocol.encode_id_lists(rows)
        status, payload = protocol.split_response(body)
        decoded = protocol.decode_id_lists(payload, 3)
        assert decoded == rows
        assert all(type(value) is int for row in decoded for value in row)

    def test_packed_row_must_be_whole_ids(self):
        with pytest.raises(ProtocolError, match="whole number"):
            protocol.encode_id_lists([b"\x01\x00\x00\x00\x02"])

    def test_framing_rejects_bad_lengths(self):
        with pytest.raises(ProtocolError):
            protocol.frame(b"")
        with pytest.raises(ProtocolError):
            protocol.body_length(b"\x00\x00")  # truncated prefix
        with pytest.raises(ProtocolError):
            protocol.body_length(struct.pack("<I", 0))
        with pytest.raises(ProtocolError):
            protocol.body_length(struct.pack("<I", MAX_FRAME_BYTES + 1))
        assert protocol.body_length(struct.pack("<I", 8)) == 8

    def test_request_decoders_bounds_check(self):
        with pytest.raises(ProtocolError):
            protocol.request_op(b"")
        with pytest.raises(ProtocolError):
            protocol.request_op(b"\xff")
        # Declared count disagrees with the byte length.
        lying = bytes((OP_IS_ALIAS,)) + struct.pack("<I", 10) + b"\x00" * 8
        with pytest.raises(ProtocolError):
            protocol.decode_is_alias(lying)
        truncated = bytes((OP_LIST_ALIASES,)) + b"\x01"
        with pytest.raises(ProtocolError):
            protocol.decode_list(truncated)
        bad_kind = (bytes((protocol.OP_APPLY_DELTA,)) + struct.pack("<I", 1)
                    + struct.pack("<BII", 9, 0, 0))
        with pytest.raises(ProtocolError):
            protocol.decode_apply_delta(bad_kind)

    def test_response_decoders_bounds_check(self):
        with pytest.raises(ProtocolError):
            protocol.split_response(b"")
        with pytest.raises(ProtocolError):
            protocol.decode_bools(b"\x01", expected=2)
        # A row declaring ids past the payload end.
        payload = struct.pack("<I", 5) + struct.pack("<I", 0)
        with pytest.raises(ProtocolError):
            protocol.decode_id_lists(payload, 1)
        # Trailing bytes after the last row.
        payload = struct.pack("<I", 0) + b"\x00"
        with pytest.raises(ProtocolError):
            protocol.decode_id_lists(payload, 1)
        # A row cut short inside its ids, and a payload missing a row.
        payload = struct.pack("<III", 2, 7, 8)
        with pytest.raises(ProtocolError):
            protocol.decode_id_lists(payload[:-1], 1)
        with pytest.raises(ProtocolError):
            protocol.decode_id_lists(payload, 2)
        # An over-long row: more ids than the declared count.
        with pytest.raises(ProtocolError, match="trailing"):
            protocol.decode_id_lists(payload + struct.pack("<I", 9), 1)


# ----------------------------------------------------------------------
# Server fixtures
# ----------------------------------------------------------------------


@pytest.fixture
def served(tmp_path):
    """A daemon over a persisted v4 matrix: ``(matrix, socket_path, daemon)``."""
    matrix = make_random_matrix(40, 12, density=0.18, seed=7)
    path = str(tmp_path / "m.pes")
    persist(matrix, path, version=4)
    service = AliasService.from_files([path], lazy=True)
    sock = str(tmp_path / "d.sock")
    daemon = AliasDaemon(service, socket_path=sock, http_port=0,
                         close_service=True)
    runner = ThreadedDaemon(daemon).start()
    try:
        yield matrix, sock, daemon
    finally:
        runner.stop()


def _raw_connection(sock_path):
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(5)
    sock.connect(sock_path)
    return sock


def _read_frame(sock):
    prefix = b""
    while len(prefix) < 4:
        chunk = sock.recv(4 - len(prefix))
        if not chunk:
            return None
        prefix += chunk
    length = protocol.body_length(prefix)
    body = b""
    while len(body) < length:
        chunk = sock.recv(length - len(body))
        if not chunk:
            raise ConnectionError("truncated frame")
        body += chunk
    return body


class TestDaemonQueries:
    def test_all_four_queries_match_oracle(self, served):
        matrix, sock, _daemon = served
        with DaemonClient(sock) as client:
            assert client.ping()
            pairs = [(p, q) for p in range(0, 40, 3) for q in range(0, 40, 5)]
            assert client.is_alias_batch(pairs) == [
                matrix.is_alias(p, q) for p, q in pairs
            ]
            rows = client.points_to_batch(list(range(40)))
            assert [sorted(row) for row in rows] == [
                matrix.list_points_to(p) for p in range(40)
            ]
            rows = client.list_aliases_many(list(range(0, 40, 7)))
            assert [sorted(row) for row in rows] == [
                matrix.list_aliases(p) for p in range(0, 40, 7)
            ]
            rows = client.pointed_by_batch(list(range(12)))
            assert [sorted(row) for row in rows] == [
                matrix.list_pointed_by(obj) for obj in range(12)
            ]
            assert client.is_alias(1, 2) == matrix.is_alias(1, 2)
            assert sorted(client.list_aliases(3)) == matrix.list_aliases(3)
            assert sorted(client.list_pointed_by(0)) == matrix.list_pointed_by(0)

    def test_empty_batches_short_circuit_client_side(self, served):
        _matrix, sock, _daemon = served
        with DaemonClient(sock) as client:
            assert client.is_alias_batch([]) == []
            assert client.points_to_batch([]) == []

    def test_stats_round_trip(self, served):
        matrix, sock, _daemon = served
        with DaemonClient(sock) as client:
            client.is_alias_batch([(0, 1), (2, 3)])
            stats = client.stats()
        assert stats["n_pointers"] == matrix.n_pointers
        assert stats["n_objects"] == matrix.n_objects
        assert stats["total_queries"] >= 2

    def test_out_of_range_operand_is_bad_request_and_survivable(self, served):
        matrix, sock, _daemon = served
        with DaemonClient(sock) as client:
            with pytest.raises(DaemonError) as info:
                client.is_alias_batch([(0, 10_000)])
            assert info.value.status == ST_BAD_REQUEST
            # The connection is still usable after a rejected request.
            assert client.is_alias(0, 1) == matrix.is_alias(0, 1)

    def test_apply_delta_round_trip(self, served):
        matrix, sock, _daemon = served
        log = DeltaLog()
        log.insert(1, 2)
        log.delete(0, 0)
        with DaemonClient(sock) as client:
            before = client.points_to_batch([1])[0]
            client.apply_delta(log)
            oracle = _apply_script(matrix, log)
            assert sorted(client.list_points_to(1)) == oracle.list_points_to(1)
            assert sorted(client.list_points_to(0)) == oracle.list_points_to(0)
            assert 2 in client.list_points_to(1)
        assert before == sorted(before)  # sanity: rows arrive sorted from v4


class TestProtocolRobustness:
    """Hostile peers: the daemon survives, other clients never notice."""

    def test_unknown_opcode_gets_error_frame_connection_survives(self, served):
        _matrix, sock, _daemon = served
        raw = _raw_connection(sock)
        try:
            raw.sendall(protocol.frame(b"\xfe\x01\x02"))
            status, payload = protocol.split_response(_read_frame(raw))
            assert status == ST_BAD_REQUEST
            assert b"opcode" in payload
            # Framing was intact, so the same connection keeps working.
            raw.sendall(protocol.frame(protocol.encode_ping()))
            status, _ = protocol.split_response(_read_frame(raw))
            assert status == ST_OK
        finally:
            raw.close()

    def test_oversized_length_prefix_errors_then_closes(self, served):
        _matrix, sock, _daemon = served
        raw = _raw_connection(sock)
        try:
            raw.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            status, payload = protocol.split_response(_read_frame(raw))
            assert status == ST_BAD_REQUEST
            assert b"limit" in payload
            # The stream cannot be resynchronised: the daemon hangs up.
            assert _read_frame(raw) is None
        finally:
            raw.close()

    def test_zero_length_prefix_errors_then_closes(self, served):
        _matrix, sock, _daemon = served
        raw = _raw_connection(sock)
        try:
            raw.sendall(struct.pack("<I", 0))
            status, _ = protocol.split_response(_read_frame(raw))
            assert status == ST_BAD_REQUEST
            assert _read_frame(raw) is None
        finally:
            raw.close()

    def test_lying_item_count_is_bad_request_not_crash(self, served):
        matrix, sock, _daemon = served
        raw = _raw_connection(sock)
        try:
            lying = bytes((OP_IS_ALIAS,)) + struct.pack("<I", 100) + b"\x00" * 16
            raw.sendall(protocol.frame(lying))
            status, _ = protocol.split_response(_read_frame(raw))
            assert status == ST_BAD_REQUEST
            raw.sendall(protocol.frame(protocol.encode_is_alias([(0, 1)])))
            status, payload = protocol.split_response(_read_frame(raw))
            assert status == ST_OK
            assert protocol.decode_bools(payload, 1) == [matrix.is_alias(0, 1)]
        finally:
            raw.close()

    def test_truncated_frame_then_disconnect_leaves_daemon_alive(self, served):
        matrix, sock, _daemon = served
        raw = _raw_connection(sock)
        raw.sendall(struct.pack("<I", 100) + b"partial")
        raw.close()  # mid-frame hangup
        with DaemonClient(sock) as client:
            assert client.is_alias(0, 1) == matrix.is_alias(0, 1)

    def test_disconnect_midresponse_does_not_poison_others(self, served):
        matrix, sock, _daemon = served
        pairs = [(p, q) for p in range(40) for q in range(40)]
        request = protocol.frame(protocol.encode_is_alias(pairs))
        for _ in range(5):
            raw = _raw_connection(sock)
            raw.sendall(request)
            raw.close()  # gone before (or while) the response is written
        with DaemonClient(sock) as client:
            assert client.is_alias_batch(pairs[:50]) == [
                matrix.is_alias(p, q) for p, q in pairs[:50]
            ]

    def test_garbage_flood_is_survivable(self, served):
        matrix, sock, _daemon = served
        for payload in (b"\x00" * 64, os.urandom(64), b"GET / HTTP/1.1\r\n\r\n"):
            raw = _raw_connection(sock)
            raw.sendall(payload)
            raw.close()
        with DaemonClient(sock) as client:
            assert client.ping()
            assert client.is_alias(2, 3) == matrix.is_alias(2, 3)


class _GatedBackend:
    """A Table 1 backend whose batch entry points can be held at a gate.

    Lets tests park one request inside the executor deterministically
    (``entered`` fires, ``gate`` blocks) to observe coalescing and
    admission control from outside.
    """

    def __init__(self, inner):
        self._inner = inner
        self.gate = threading.Event()
        self.entered = threading.Event()
        self.batch_calls = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def is_alias_batch(self, pairs):
        self.batch_calls += 1
        self.entered.set()
        assert self.gate.wait(10), "test gate never released"
        return self._inner.is_alias_batch(pairs)


@pytest.fixture
def gated(tmp_path):
    matrix = make_random_matrix(20, 8, density=0.25, seed=11)
    backend = _GatedBackend(index_from_bytes(encode(matrix)))
    service = AliasService(backend, cache_size=0)
    sock = str(tmp_path / "g.sock")
    daemon = AliasDaemon(service, socket_path=sock, max_pending=1)
    runner = ThreadedDaemon(daemon).start()
    try:
        yield matrix, backend, sock
    finally:
        backend.gate.set()
        runner.stop()


class TestCoalescingAndBackpressure:
    def test_identical_inflight_queries_coalesce(self, gated):
        matrix, backend, sock = gated
        pairs = [(0, 1), (2, 3), (4, 5)]
        expected = [matrix.is_alias(p, q) for p, q in pairs]
        coalesced = get_registry().counter("repro_daemon_coalesced_total")
        before = coalesced.value
        results = {}

        def query(slot):
            with DaemonClient(sock) as client:
                results[slot] = client.is_alias_batch(pairs)

        first = threading.Thread(target=query, args=(0,))
        first.start()
        assert backend.entered.wait(10)
        # The identical frame below must JOIN the parked computation — it
        # cannot run it (the gate is closed and max_pending=1 is taken).
        second = threading.Thread(target=query, args=(1,))
        second.start()
        deadline = time.time() + 10
        while coalesced.value == before and time.time() < deadline:
            time.sleep(0.01)
        assert coalesced.value == before + 1
        backend.gate.set()
        first.join(10)
        second.join(10)
        assert results == {0: expected, 1: expected}
        assert backend.batch_calls == 1

    def test_admission_control_rejects_distinct_queries_fast(self, gated):
        matrix, backend, sock = gated
        holder_result = []

        def holder():
            with DaemonClient(sock) as client:
                holder_result.append(client.is_alias_batch([(0, 1)]))

        thread = threading.Thread(target=holder)
        thread.start()
        assert backend.entered.wait(10)
        with DaemonClient(sock) as client:
            # A DIFFERENT query cannot join and cannot queue: rejected now,
            # not after the parked request finishes.
            start = time.perf_counter()
            with pytest.raises(DaemonError) as info:
                client.is_alias_batch([(2, 3)])
            assert info.value.overloaded
            assert time.perf_counter() - start < 5.0
            backend.gate.set()
            thread.join(10)
            assert holder_result == [[matrix.is_alias(0, 1)]]
            # Capacity freed: the same query now goes through.
            assert client.is_alias_batch([(2, 3)]) == [matrix.is_alias(2, 3)]


class TestHotReload:
    """apply_delta under concurrent load: zero dropped, zero wrong answers."""

    READERS = 3
    UPDATES = 8

    def test_deltas_under_concurrent_batch_readers(self, served):
        matrix, sock, _daemon = served
        touched = list(range(6))
        untouched = list(range(6, 40))
        rng = random.Random(23)
        logs, states = [], [matrix]
        for _ in range(self.UPDATES):
            log = DeltaLog()
            for _ in range(4):
                pointer, obj = rng.choice(touched), rng.randrange(12)
                if rng.random() < 0.5:
                    log.insert(pointer, obj)
                else:
                    log.delete(pointer, obj)
            logs.append(log)
            states.append(_apply_script(states[-1], log))

        base_points = {u: matrix.list_points_to(u) for u in untouched}
        ok_points = {t: {tuple(state.list_points_to(t)) for state in states}
                     for t in touched}
        ok_pairs = {(t, q): {state.is_alias(t, q) for state in states}
                    for t in touched for q in range(40)}

        failures = []
        stop = threading.Event()

        def reader(slot):
            reader_rng = random.Random(300 + slot)
            try:
                with DaemonClient(sock) as client:
                    while not stop.is_set():
                        sample_u = reader_rng.sample(untouched, 5)
                        for u, row in zip(sample_u,
                                          client.points_to_batch(sample_u)):
                            if sorted(row) != base_points[u]:
                                failures.append(("untouched points_to", u, row))
                        pairs = [(reader_rng.choice(touched),
                                  reader_rng.randrange(40)) for _ in range(6)]
                        for (t, q), answer in zip(
                                pairs, client.is_alias_batch(pairs)):
                            if answer not in ok_pairs[(t, q)]:
                                failures.append(("touched is_alias", t, q))
                        t = reader_rng.choice(touched)
                        row = client.points_to_batch([t])[0]
                        if tuple(sorted(row)) not in ok_points[t]:
                            failures.append(("touched points_to", t, row))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("reader exception", slot, repr(error)))

        def updater():
            try:
                with DaemonClient(sock) as client:
                    for index, log in enumerate(logs):
                        time.sleep(0.02)
                        client.apply_delta(log)
                        # Read-your-writes through the daemon: after the
                        # ack, answers must reflect at least this delta
                        # (and, with no later ones yet, exactly it).
                        state = states[index + 1]
                        for t in touched:
                            row = client.points_to_batch([t])[0]
                            if sorted(row) != state.list_points_to(t):
                                failures.append(
                                    ("post-ack points_to", index, t, row))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("updater exception", repr(error)))
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(self.READERS)]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)

        assert not failures, failures[:10]
        final = states[-1]
        with DaemonClient(sock) as client:
            rows = client.points_to_batch(list(range(40)))
            assert [sorted(row) for row in rows] == [
                final.list_points_to(p) for p in range(40)
            ]
            pairs = [(p, q) for p in range(40) for q in range(0, 40, 3)]
            assert client.is_alias_batch(pairs) == [
                final.is_alias(p, q) for p, q in pairs
            ]


class TestHttpPlane:
    def test_metrics_healthz_stats_and_errors(self, served):
        _matrix, sock, daemon = served
        with DaemonClient(sock) as client:
            client.is_alias_batch([(0, 1)])
        host, port = daemon.http_address
        base = "http://%s:%d" % (host, port)

        with urllib.request.urlopen(base + "/metrics") as response:
            assert response.status == 200
            assert "version=0.0.4" in response.headers["Content-Type"]
            body = response.read()
        assert b"# TYPE repro_daemon_requests_total counter" in body
        assert b"repro_daemon_connections_total" in body
        assert b"# TYPE repro_daemon_request_seconds histogram" in body

        with urllib.request.urlopen(base + "/healthz") as response:
            assert response.read() == b"ok\n"

        with urllib.request.urlopen(base + "/stats") as response:
            stats = json.loads(response.read())
        assert stats["n_pointers"] == 40

        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(base + "/nope")
        assert info.value.code == 404

        request = urllib.request.Request(base + "/metrics", data=b"x")
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 405


class TestLifecycle:
    def test_stop_closes_idle_connections_and_socket(self, tmp_path):
        matrix = make_random_matrix(10, 5, density=0.3, seed=2)
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        sock = str(tmp_path / "l.sock")
        runner = ThreadedDaemon(AliasDaemon(service, socket_path=sock)).start()
        client = DaemonClient(sock)
        assert client.ping()
        runner.stop()
        assert not os.path.exists(sock)
        with pytest.raises((ConnectionError, ProtocolError, OSError)):
            client.ping()
            client.ping()  # first call may only observe the FIN on read
        client.close()

    def test_double_start_is_rejected(self, tmp_path):
        matrix = make_random_matrix(6, 4, density=0.3, seed=4)
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        daemon = AliasDaemon(service, socket_path=str(tmp_path / "x.sock"))
        runner = ThreadedDaemon(daemon).start()
        try:
            with pytest.raises(RuntimeError):
                ThreadedDaemon(daemon).start()
        finally:
            runner.stop()

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AliasDaemon(object())  # neither socket_path nor listen_socket
        with pytest.raises(ValueError):
            AliasDaemon(object(), socket_path="/tmp/x", listen_socket=object())
        with pytest.raises(ValueError):
            AliasDaemon(object(), socket_path="/tmp/x", max_pending=0)


class TestWorkerMode:
    """Pre-fork serving through the CLI, in a real subprocess."""

    def test_workers_share_socket_and_refuse_deltas(self, tmp_path):
        matrix = make_random_matrix(30, 10, density=0.2, seed=3)
        path = str(tmp_path / "m.pes")
        persist(matrix, path, version=4)
        sock = str(tmp_path / "w.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = (os.path.join(os.path.dirname(__file__), "..", "src")
                             + os.pathsep + env.get("PYTHONPATH", ""))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "daemon", path,
             "--socket", sock, "--workers", "2"],
            env=env, stderr=subprocess.PIPE, text=True)
        try:
            deadline = time.time() + 30
            while not os.path.exists(sock):
                assert proc.poll() is None, proc.stderr.read()
                assert time.time() < deadline, "socket never appeared"
                time.sleep(0.05)
            time.sleep(0.2)  # let both workers reach accept()
            pairs = [(p, q) for p in range(30) for q in range(0, 30, 3)]
            expected = [matrix.is_alias(p, q) for p, q in pairs]
            for _ in range(3):  # several connections spread across workers
                with DaemonClient(sock) as client:
                    assert client.is_alias_batch(pairs) == expected
            with DaemonClient(sock) as client:
                with pytest.raises(DaemonError) as info:
                    client.apply_delta([("+", 0, 1)])
                assert info.value.unsupported
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not os.path.exists(sock)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# ----------------------------------------------------------------------
# Versioned frames: VERSIONS and QUERY_AT over the wire
# ----------------------------------------------------------------------


class TestVersionedProtocol:
    def test_query_at_round_trips(self):
        inner = protocol.encode_is_alias([(1, 2), (3, 4)])
        body = protocol.encode_query_at(7, inner)
        assert protocol.request_op(body) == protocol.OP_QUERY_AT
        version, decoded = protocol.decode_query_at(body)
        assert version == 7
        assert decoded == inner

    def test_query_at_rejects_bad_shapes(self):
        inner = protocol.encode_list(OP_LIST_POINTS_TO, [1])
        with pytest.raises(ProtocolError):
            protocol.encode_query_at(-1, inner)
        with pytest.raises(ProtocolError):
            protocol.encode_query_at(2 ** 32, inner)
        with pytest.raises(ProtocolError):  # only plain queries may nest
            protocol.encode_query_at(1, protocol.encode_ping())
        nested = protocol.encode_query_at(1, inner)
        with pytest.raises(ProtocolError):  # no QUERY_AT inside QUERY_AT
            protocol.encode_query_at(2, nested)
        with pytest.raises(ProtocolError):  # truncated: no inner body
            protocol.decode_query_at(bytes((protocol.OP_QUERY_AT,)) + b"\x00" * 4)
        bad = bytes((protocol.OP_QUERY_AT,)) + struct.pack("<I", 1) + \
            protocol.encode_ping()
        with pytest.raises(ProtocolError):
            protocol.decode_query_at(bad)

    def test_version_range_round_trips(self):
        payload = protocol.encode_version_range(2, 9)
        status, body = protocol.split_response(payload)
        assert status == ST_OK
        assert protocol.decode_version_range(body) == (2, 9)
        with pytest.raises(ProtocolError):
            protocol.decode_version_range(body + b"\x00")


@pytest.fixture
def versioned_served(tmp_path):
    """A daemon over a file with a 2-record stamped chain.

    Yields ``(states, socket_path, daemon)`` where ``states[k]`` is the
    ground-truth matrix at file epoch ``k``.
    """
    from repro.delta import append_delta

    matrix = make_random_matrix(30, 10, density=0.2, seed=13)
    path = str(tmp_path / "chain.pes")
    persist(matrix, path)
    rng = random.Random(13)
    states = [matrix]
    while len(states) < 3:
        log = DeltaLog()
        for _ in range(6):
            pointer, obj = rng.randrange(30), rng.randrange(10)
            if rng.random() < 0.5:
                log.insert(pointer, obj)
            else:
                log.delete(pointer, obj)
        inserts, deletes = log.net()
        if not inserts and not deletes:
            continue
        append_delta(path, log)
        states.append(_apply_script(states[-1], log))
    service = AliasService.from_files([path])
    sock = str(tmp_path / "v.sock")
    daemon = AliasDaemon(service, socket_path=sock, http_port=0,
                         close_service=True)
    runner = ThreadedDaemon(daemon).start()
    try:
        yield states, sock, daemon
    finally:
        runner.stop()


class TestVersionedFrames:
    def test_versions_and_as_of_match_every_epoch(self, versioned_served):
        states, sock, _daemon = versioned_served
        with DaemonClient(sock) as client:
            assert client.versions() == (0, 2)
            pairs = [(p, q) for p in range(0, 30, 4) for q in range(0, 30, 5)]
            pointers = list(range(30))
            for epoch, state in enumerate(states):
                assert client.is_alias_batch(pairs, as_of=epoch) == [
                    state.is_alias(p, q) for p, q in pairs
                ]
                rows = client.points_to_batch(pointers, as_of=epoch)
                assert [sorted(row) for row in rows] == [
                    state.list_points_to(p) for p in pointers
                ]
                rows = client.pointed_by_batch(list(range(10)), as_of=epoch)
                assert [sorted(row) for row in rows] == [
                    state.list_pointed_by(obj) for obj in range(10)
                ]
                assert sorted(client.list_aliases(3, as_of=epoch)) == \
                    state.list_aliases(3)

    def test_out_of_range_version_is_bad_request_and_survivable(
            self, versioned_served):
        states, sock, _daemon = versioned_served
        with DaemonClient(sock) as client:
            with pytest.raises(DaemonError) as info:
                client.is_alias(0, 1, as_of=99)
            assert info.value.status == ST_BAD_REQUEST
            # The connection keeps serving after the rejected version.
            assert client.is_alias(0, 1) == states[-1].is_alias(0, 1)

    def test_apply_delta_extends_the_version_range(self, versioned_served):
        states, sock, _daemon = versioned_served
        log = DeltaLog().insert(2, 3).delete(0, 1)
        edited = _apply_script(states[-1], log)
        with DaemonClient(sock) as client:
            client.apply_delta(log)
            assert client.versions() == (0, 3)
            assert sorted(client.list_points_to(2, as_of=3)) == \
                edited.list_points_to(2)
            # The pre-delta epoch still answers the pre-delta state.
            assert sorted(client.list_points_to(2, as_of=2)) == \
                states[-1].list_points_to(2)
            stats = client.stats()
            assert stats["version"] == 3
            assert stats["version_floor"] == 0

    def test_pinned_epoch_readers_vs_delta_stream(self, versioned_served):
        """QUERY_AT readers pinned at old epochs stay exact during deltas."""
        states, sock, _daemon = versioned_served
        rng = random.Random(99)
        logs, live = [], states[-1]
        for _ in range(3):
            log = DeltaLog()
            for _ in range(4):
                pointer, obj = rng.randrange(30), rng.randrange(10)
                if rng.random() < 0.5:
                    log.insert(pointer, obj)
                else:
                    log.delete(pointer, obj)
            logs.append(log)
            live = _apply_script(live, log)

        failures = []
        stop = threading.Event()

        def reader(slot):
            reader_rng = random.Random(400 + slot)
            try:
                with DaemonClient(sock) as client:
                    while not stop.is_set():
                        epoch = reader_rng.randrange(len(states))
                        state = states[epoch]
                        pairs = [(reader_rng.randrange(30),
                                  reader_rng.randrange(30)) for _ in range(4)]
                        answers = client.is_alias_batch(pairs, as_of=epoch)
                        if answers != [state.is_alias(p, q) for p, q in pairs]:
                            failures.append(("is_alias_batch", epoch, pairs))
                        p = reader_rng.randrange(30)
                        if sorted(client.list_points_to(p, as_of=epoch)) != \
                                state.list_points_to(p):
                            failures.append(("points_to", epoch, p))
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("reader exception", slot, repr(error)))

        def updater():
            try:
                with DaemonClient(sock) as client:
                    for log in logs:
                        time.sleep(0.02)
                        client.apply_delta(log)
            except Exception as error:  # pragma: no cover - debugging aid
                failures.append(("updater exception", repr(error)))
            finally:
                stop.set()

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(3)]
        threads.append(threading.Thread(target=updater))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not failures, failures[:10]
        with DaemonClient(sock) as client:
            floor, head = client.versions()
            assert (floor, head) == (0, 2 + len(logs))
            rows = client.points_to_batch(list(range(30)), as_of=head)
            assert [sorted(row) for row in rows] == [
                live.list_points_to(p) for p in range(30)
            ]


# ----------------------------------------------------------------------
# PR 9: TRACED/METRICS frames, request tracing, cost, introspection
# ----------------------------------------------------------------------


class TestTracedProtocol:
    def test_traced_round_trips(self):
        inner = protocol.encode_is_alias([(1, 2)])
        body = protocol.encode_traced("abc123", inner, want_cost=True)
        assert protocol.request_op(body) == protocol.OP_TRACED
        request_id, want_cost, decoded = protocol.decode_traced(body)
        assert (request_id, want_cost, decoded) == ("abc123", True, inner)
        body = protocol.encode_traced("x", inner)
        assert protocol.decode_traced(body)[1] is False

    def test_traced_rejects_bad_shapes(self):
        inner = protocol.encode_ping()
        with pytest.raises(ProtocolError):  # empty id
            protocol.encode_traced("", inner)
        with pytest.raises(ProtocolError):  # oversized id
            protocol.encode_traced("x" * 65, inner)
        with pytest.raises(ProtocolError):  # non-ascii id
            protocol.encode_traced("é", inner)
        with pytest.raises(ProtocolError):  # empty inner
            protocol.encode_traced("rid", b"")
        nested = protocol.encode_traced("rid", inner)
        with pytest.raises(ProtocolError):  # no TRACED inside TRACED
            protocol.encode_traced("rid2", nested)
        with pytest.raises(ProtocolError):  # truncated
            protocol.decode_traced(bytes((protocol.OP_TRACED,)) + b"\x00")
        # Unknown flag bits are a loud error, not silently ignored: they
        # are the extension point for future frame semantics.
        mutated = bytearray(nested)
        mutated[1] |= 0x80
        with pytest.raises(ProtocolError):
            protocol.decode_traced(bytes(mutated))

    def test_attach_and_split_cost(self):
        ok = protocol.encode_response(ST_OK, b"payload")
        cost = b'{"queries": 1}'
        extended = protocol.attach_cost(ok, cost)
        status, cost_json, payload = protocol.split_cost_response(extended)
        assert (status, cost_json, payload) == (ST_OK, cost, b"payload")
        # Non-OK responses pass through untouched (PR 7 compatibility:
        # old clients decode errors without knowing about costs).
        error = protocol.encode_response(ST_BAD_REQUEST, b"nope")
        assert protocol.attach_cost(error, cost) == error
        status, cost_json, payload = protocol.split_cost_response(error)
        assert (status, cost_json, payload) == (ST_BAD_REQUEST, b"", b"nope")

    def test_split_cost_response_bounds_check(self):
        with pytest.raises(ProtocolError):
            protocol.split_cost_response(b"")
        lying = bytes((ST_OK,)) + struct.pack("<I", 100) + b"short"
        with pytest.raises(ProtocolError):
            protocol.split_cost_response(lying)

    def test_metrics_frame(self):
        body = protocol.encode_metrics()
        assert protocol.request_op(body) == protocol.OP_METRICS


class TestRequestTracing:
    def test_traced_client_is_wire_compatible(self, served):
        matrix, sock, _daemon = served
        with DaemonClient(sock, trace_requests=True) as client:
            assert client.is_alias(0, 1) == matrix.is_alias(0, 1)
            first = client.last_request_id
            assert first and len(first) == 16
            client.ping()
            assert client.last_request_id != first  # fresh id per request

    def test_want_cost_returns_breakdown(self, served):
        _matrix, sock, _daemon = served
        with DaemonClient(sock, want_cost=True) as client:
            client.is_alias(0, 2)
            cost = client.last_cost
            assert cost["cache_misses"] == 1
            assert cost["queries"] == 1
            assert "epoch" in cost
            assert cost["seconds"] >= 0
            client.is_alias(0, 2)  # identical query: served from cache
            assert client.last_cost["cache_hits"] == 1
            assert client.last_cost["bytes_parsed"] == 0

    def test_error_responses_reach_traced_clients_unchanged(self, served):
        _matrix, sock, _daemon = served
        with DaemonClient(sock, want_cost=True) as client:
            with pytest.raises(DaemonError) as info:
                client.is_alias_batch([(0, 10_000)])
            assert info.value.status == ST_BAD_REQUEST
            assert client.last_cost is None

    def test_bad_traced_flags_are_bad_request(self, served):
        _matrix, sock, _daemon = served
        body = bytearray(protocol.encode_traced("rid", protocol.encode_ping()))
        body[1] |= 0x40
        raw = _raw_connection(sock)
        try:
            raw.sendall(protocol.frame(bytes(body)))
            status, _ = protocol.split_response(_read_frame(raw))
            assert status == ST_BAD_REQUEST
        finally:
            raw.close()

    def test_one_request_yields_connected_span_tree(self, served):
        from repro.obs import trace

        matrix, sock, _daemon = served
        with trace.capture() as spans:
            with DaemonClient(sock, trace_requests=True) as client:
                assert client.is_alias(1, 3) == matrix.is_alias(1, 3)
                rid = client.last_request_id
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, span)
        # Client side: one root span stamped with the minted id.
        assert by_name["client.request"].attrs["request_id"] == rid
        # Daemon side: the same id connects the socket-read root to the
        # service and index work that ran on the executor thread.
        daemon_span = by_name["daemon.request"]
        assert daemon_span.attrs["request_id"] == rid
        assert daemon_span.attrs["op"] == "is_alias"
        serve_span = daemon_span.find("serve.is_alias")
        assert serve_span is not None
        assert serve_span.find("index.answer") is not None

    def test_coalesced_joiner_gets_marker_cost(self, gated):
        matrix, backend, sock = gated
        pairs = [(0, 1)]
        expected = [matrix.is_alias(0, 1)]
        coalesced = get_registry().counter("repro_daemon_coalesced_total")
        before = coalesced.value
        results = {}

        def holder():
            with DaemonClient(sock) as client:  # plain PR 7 frames
                results["holder"] = client.is_alias_batch(pairs)

        def joiner():
            with DaemonClient(sock, want_cost=True) as client:
                results["joiner"] = client.is_alias_batch(pairs)
                results["cost"] = client.last_cost

        first = threading.Thread(target=holder)
        first.start()
        assert backend.entered.wait(10)
        # The traced frame's INNER body matches the parked untraced twin,
        # so it joins the computation instead of running (or rejecting).
        second = threading.Thread(target=joiner)
        second.start()
        deadline = time.time() + 10
        while coalesced.value == before and time.time() < deadline:
            time.sleep(0.01)
        backend.gate.set()
        first.join(10)
        second.join(10)
        assert results["holder"] == expected
        assert results["joiner"] == expected
        assert results["cost"] == {"coalesced": True}


class TestIntrospection:
    def test_metrics_op_exposes_every_daemon_family(self, served):
        from repro.obs import CATALOGUE

        _matrix, sock, _daemon = served
        with DaemonClient(sock) as client:
            client.is_alias_batch([(0, 1)])
            text = client.metrics()
        families = sorted(name for name in CATALOGUE
                          if name.startswith("repro_daemon_"))
        assert len(families) >= 9
        for name in families:
            assert "# TYPE %s " % name in text, name
        assert 'repro_daemon_worker_info{slot="0"} 1' in text

    def test_worker_slot_labels_the_info_gauge(self, tmp_path):
        matrix = make_random_matrix(8, 4, density=0.3, seed=5)
        service = AliasService.from_index(index_from_bytes(encode(matrix)))
        sock = str(tmp_path / "slot.sock")
        daemon = AliasDaemon(service, socket_path=sock, worker_slot=3)
        runner = ThreadedDaemon(daemon).start()
        try:
            with DaemonClient(sock) as client:
                text = client.metrics()
            assert 'repro_daemon_worker_info{slot="3"} 1' in text
        finally:
            runner.stop()

    def test_debug_events_is_a_structured_golden(self, served):
        from repro.obs import get_flight_recorder

        _matrix, sock, daemon = served
        get_flight_recorder().clear()
        with DaemonClient(sock) as client:
            client.is_alias_batch([(2, 4)])
        host, port = daemon.http_address
        base = "http://%s:%d" % (host, port)
        with urllib.request.urlopen(base + "/debug/events") as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "application/json")
            events = json.loads(response.read())
        assert isinstance(events, list) and events
        for event in events:
            # The golden structural contract: every event carries the
            # three reserved keys, seq strictly increasing.
            assert {"seq", "wall", "kind"} <= set(event)
        assert [e["seq"] for e in events] == \
            sorted(e["seq"] for e in events)
        request_events = [e for e in events if e["kind"] == "request"]
        assert request_events
        entry = request_events[-1]
        assert entry["op"] == "is_alias"
        assert entry["status"] == "ok"
        assert entry["seconds"] >= 0
        with urllib.request.urlopen(base + "/debug/events?limit=1") as response:
            assert len(json.loads(response.read())) == 1

    def test_debug_requests_shows_inflight_work(self, tmp_path):
        matrix = make_random_matrix(12, 6, density=0.3, seed=8)
        backend = _GatedBackend(index_from_bytes(encode(matrix)))
        service = AliasService(backend, cache_size=0)
        sock = str(tmp_path / "dbg.sock")
        daemon = AliasDaemon(service, socket_path=sock, http_port=0)
        runner = ThreadedDaemon(daemon).start()
        try:
            host, port = daemon.http_address
            base = "http://%s:%d" % (host, port)
            with urllib.request.urlopen(base + "/debug/requests") as response:
                assert json.loads(response.read()) == []
            result = []

            def query():
                with DaemonClient(sock, trace_requests=True) as client:
                    result.append(client.is_alias_batch([(0, 1)]))

            thread = threading.Thread(target=query)
            thread.start()
            assert backend.entered.wait(10)
            with urllib.request.urlopen(base + "/debug/requests") as response:
                inflight = json.loads(response.read())
            assert len(inflight) == 1
            assert inflight[0]["op"] == "is_alias"
            assert inflight[0]["age_ms"] >= 0
            assert len(inflight[0]["request_id"]) == 16
            backend.gate.set()
            thread.join(10)
            assert result == [[matrix.is_alias(0, 1)]]
            with urllib.request.urlopen(base + "/debug/requests") as response:
                assert json.loads(response.read()) == []
        finally:
            backend.gate.set()
            runner.stop()

    def test_debug_profile_returns_a_report(self, served):
        _matrix, sock, daemon = served
        host, port = daemon.http_address
        base = "http://%s:%d" % (host, port)
        with urllib.request.urlopen(base + "/debug/profile?seconds=0.1") \
                as response:
            body = response.read().decode()
        assert body.startswith("profile:")
        assert "samples" in body
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(base + "/debug/profile?seconds=0")
        assert info.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(base + "/debug/profile?seconds=junk")
        assert info.value.code == 400


class TestObservabilityCli:
    """`repro-pestrie metrics --socket/--url` and `top` against a daemon."""

    def test_metrics_scrapes_over_the_socket(self, served, capsys):
        from repro.cli import main as cli_main

        _matrix, sock, _daemon = served
        with DaemonClient(sock) as client:
            client.is_alias_batch([(0, 1)])
        assert cli_main(["metrics", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_daemon_requests_total counter" in out
        assert "repro_daemon_worker_info" in out

    def test_metrics_scrapes_over_http(self, served, capsys):
        from repro.cli import main as cli_main

        _matrix, _sock, daemon = served
        host, port = daemon.http_address
        assert cli_main(["metrics", "--url",
                         "http://%s:%d" % (host, port)]) == 0
        assert "repro_daemon_connections_total" in capsys.readouterr().out

    def test_top_renders_one_refresh(self, served, capsys):
        from repro.cli import main as cli_main

        _matrix, sock, daemon = served
        with DaemonClient(sock) as client:
            client.is_alias_batch([(0, 1), (2, 3)])
        host, port = daemon.http_address
        url = "http://%s:%d" % (host, port)
        assert cli_main(["top", "--socket", sock, "--url", url,
                         "--iterations", "2", "--interval", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "qps" in out and "cache" in out and "version" in out
        assert "socket:%s" % sock in out
        assert url in out
        assert "unreachable" not in out

    def test_top_without_targets_is_usage_error(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["top", "--iterations", "1"]) == 2
        assert "needs --socket" in capsys.readouterr().err
