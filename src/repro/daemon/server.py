"""The alias daemon: an asyncio network tier over :class:`AliasService`.

The paper's economics assume the index is built once and queried by many
independent clients; until now every client had to be in-process.  This
module puts a network front door on the serve layer:

* a **unix-socket binary listener** speaking the length-prefixed batch
  protocol of :mod:`repro.daemon.protocol` — each frame routes straight
  into the service's batch fast path (``is_alias_batch`` /
  ``packed_batch``), so protocol, locking, and instrumentation costs are
  paid once per frame, not once per query, and list answers reach the
  socket as the packed bytes the index joined;
* **request coalescing** — identical read-only frames in flight at the
  same time share one computation; later arrivals await the first one's
  result instead of re-running it (a delta bumps the coalesce epoch, so
  an answer computed before a reload is never handed to a request that
  arrived after it);
* **admission control** — a bounded pending-request count; when it is
  full, new query frames are refused immediately with ``OVERLOADED``
  instead of queueing without bound (fail fast, let the client back off);
* a **minimal HTTP listener** for operations: ``GET /metrics`` serves
  the process registry's Prometheus 0.0.4 exposition, ``/healthz`` a
  liveness probe, ``/stats`` the service's JSON stats snapshot, and the
  live-introspection surfaces ``/debug/events`` (the flight-recorder
  ring), ``/debug/requests`` (in-flight frames with ages), and
  ``/debug/profile?seconds=N`` (the sampling profiler);
* **request-scoped observability** — ``TRACED`` frames carry a
  client-minted request id into a ``daemon.request`` span rooted on the
  executor thread, run the service work under a per-request
  :class:`~repro.obs.QueryCost` context, and (with ``WANT_COST``) return
  the itemised cost ahead of the answer payload;
* **hot reload** — ``APPLY_DELTA`` frames go through
  :meth:`AliasService.apply_delta`: readers never pause, in-flight
  queries finish against whichever backend they captured, and the
  service's epoch-guarded cache plus the daemon's coalesce epoch keep
  every answer acknowledged after the delta consistent with it.

Query work runs on a small thread pool (``run_in_executor``) so the event
loop only parses frames and shuffles bytes; the service itself is
thread-safe, which is what makes the pool safe.  Multi-process serving
(pre-fork over the shared mmap) lives in :mod:`repro.daemon.workers`.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, Optional, Set, Tuple

from ..delta import DeltaLog
from ..obs import get_flight_recorder, get_registry, sample_profile, trace
from ..obs.cost import measure
from . import protocol
from .protocol import (
    MAX_FRAME_BYTES,
    OP_APPLY_DELTA,
    OP_IS_ALIAS,
    OP_LIST_ALIASES,
    OP_LIST_POINTED_BY,
    OP_LIST_POINTS_TO,
    OP_METRICS,
    OP_PING,
    OP_QUERY_AT,
    OP_STATS,
    OP_TRACED,
    OP_VERSIONS,
    OP_NAMES,
    QUERY_OPS,
    ST_BAD_REQUEST,
    ST_INTERNAL,
    ST_OK,
    ST_OVERLOADED,
    ST_UNSUPPORTED,
    STATUS_NAMES,
    ProtocolError,
)

_U32 = struct.Struct("<I")

#: Default bound on requests queued or executing before fast rejection.
DEFAULT_MAX_PENDING = 64

#: Worker threads answering query frames (the service is thread-safe).
DEFAULT_EXECUTOR_THREADS = 4

#: Ceiling on one HTTP request head (request line + headers).
_HTTP_HEAD_LIMIT = 8192

#: Default /debug/profile window when the query string names none.
_DEFAULT_PROFILE_SECONDS = 2.0

_REGISTRY = get_registry()

#: Marker cost payload for responses answered by joining an in-flight
#: twin computation: the joiner did no work of its own to itemise.
_COALESCED_COST = b'{"coalesced": true}'


class _RequestContext:
    """Per-request observability state peeled off a ``TRACED`` wrapper."""

    __slots__ = ("request_id", "want_cost", "start", "parent", "cost")

    def __init__(self, request_id: str, want_cost: bool, start: float, parent):
        self.request_id = request_id
        self.want_cost = want_cost
        self.start = start
        #: The loop thread's current span, re-parented across the executor
        #: boundary by ``trace.propagate`` (usually ``None`` — set when the
        #: daemon itself runs under an enclosing span).
        self.parent = parent
        self.cost = None


class AliasDaemon:
    """One daemon instance: a service, a unix socket, an optional HTTP port.

    Construct, then drive from inside a running event loop with
    :meth:`start` / :meth:`stop` (or :meth:`serve_forever`); from
    synchronous code use :class:`ThreadedDaemon` or
    :func:`repro.daemon.workers.run_daemon`.

    ``socket_path`` binds a fresh unix socket (unlinked again on stop);
    ``listen_socket`` serves an already-bound one instead (the pre-fork
    worker mode, where the parent binds before forking).  ``http_port``
    enables the HTTP listener (``0`` picks a free port; read
    :attr:`http_address` after start).  ``allow_deltas=False`` refuses
    ``APPLY_DELTA`` frames with ``UNSUPPORTED`` — a per-worker delta in
    the pre-fork mode would desynchronise the sibling processes.
    """

    def __init__(self, service, socket_path: Optional[str] = None,
                 listen_socket=None, http_host: str = "127.0.0.1",
                 http_port: Optional[int] = None, *,
                 max_pending: int = DEFAULT_MAX_PENDING,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 coalesce: bool = True,
                 allow_deltas: bool = True,
                 executor_threads: int = DEFAULT_EXECUTOR_THREADS,
                 close_service: bool = False,
                 worker_slot: int = 0):
        if (socket_path is None) == (listen_socket is None):
            raise ValueError("exactly one of socket_path/listen_socket is required")
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        self._service = service
        self.socket_path = socket_path
        self._listen_socket = listen_socket
        self.http_host = http_host
        self.http_port = http_port
        self.http_address: Optional[Tuple[str, int]] = None
        self.max_pending = max_pending
        self.max_frame_bytes = min(max_frame_bytes, MAX_FRAME_BYTES)
        self.coalesce = coalesce
        self.allow_deltas = allow_deltas
        self._executor_threads = executor_threads
        self._close_service = close_service
        self.worker_slot = worker_slot

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._http_server: Optional[asyncio.AbstractServer] = None
        self._tasks: Set[asyncio.Task] = set()
        self._writers: Set[asyncio.StreamWriter] = set()
        # Loop-confined state: only event-loop callbacks touch these.
        self._pending = 0
        self._coalesce_epoch = 0
        self._inflight: Dict[bytes, Tuple[int, asyncio.Future]] = {}
        #: In-flight request registry for /debug/requests: seq -> summary.
        self._requests: Dict[int, Dict[str, object]] = {}
        self._request_seq = 0
        self._started = False
        self._stopped = False
        self._flight = get_flight_recorder()

        self._connections_total = _REGISTRY.counter("repro_daemon_connections_total")
        self._open_connections = _REGISTRY.gauge("repro_daemon_open_connections")
        self._inflight_gauge = _REGISTRY.gauge("repro_daemon_inflight_requests")
        self._rejected = _REGISTRY.counter("repro_daemon_rejected_total")
        self._coalesced = _REGISTRY.counter("repro_daemon_coalesced_total")
        self._protocol_errors = _REGISTRY.counter("repro_daemon_protocol_errors_total")
        self._queries = _REGISTRY.counter("repro_daemon_queries_total")

    @property
    def service(self):
        return self._service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listeners; returns once both are accepting."""
        if self._started:
            raise RuntimeError("daemon already started")
        self._loop = asyncio.get_running_loop()
        self._executor = ThreadPoolExecutor(
            max_workers=self._executor_threads, thread_name_prefix="repro-daemon"
        )
        if self._listen_socket is not None:
            self._server = await asyncio.start_unix_server(
                self._on_binary_connection, sock=self._listen_socket
            )
        else:
            self._server = await asyncio.start_unix_server(
                self._on_binary_connection, path=self.socket_path
            )
        if self.http_port is not None:
            self._http_server = await asyncio.start_server(
                self._on_http_connection, self.http_host, self.http_port
            )
            self.http_address = self._http_server.sockets[0].getsockname()[:2]
        self._started = True
        # Pre-fork worker labelling: each process advertises its slot, so a
        # fleet scrape distinguishes the workers behind one shared socket.
        _REGISTRY.gauge("repro_daemon_worker_info",
                        slot=str(self.worker_slot)).set(1)
        self._flight.record("daemon_start", slot=self.worker_slot,
                            socket=self.socket_path or "<inherited>",
                            pid=os.getpid())

    async def stop(self, grace: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, release everything.

        In-flight requests get up to ``grace`` seconds to finish and write
        their responses; idle connections are then closed and any
        straggling handlers cancelled.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        for server in (self._server, self._http_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        deadline = self._loop.time() + grace
        while self._pending and self._loop.time() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):
            writer.close()
        tasks = [task for task in self._tasks if not task.done()]
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=grace)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(pending, timeout=1.0)
        self._executor.shutdown(wait=True)
        if self.socket_path is not None:
            with contextlib.suppress(OSError):
                os.unlink(self.socket_path)
        if self._close_service:
            close = getattr(self._service, "close", None)
            if close is not None:
                close()
        self._flight.record("daemon_stop", slot=self.worker_slot,
                            pid=os.getpid())

    async def serve_forever(self, stop_event: Optional[asyncio.Event] = None,
                            install_signal_handlers: bool = False) -> None:
        """Start (if needed), serve until ``stop_event`` fires, then stop."""
        import signal

        if not self._started:
            await self.start()
        event = stop_event or asyncio.Event()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                loop.add_signal_handler(signum, event.set)
        try:
            await event.wait()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # Binary protocol
    # ------------------------------------------------------------------

    async def _on_binary_connection(self, reader: asyncio.StreamReader,
                                    writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._writers.add(writer)
        self._connections_total.inc()
        self._open_connections.inc()
        try:
            await self._binary_loop(reader, writer)
        except asyncio.CancelledError:
            raise
        except Exception:
            # A connection must never take the daemon down with it.
            self._protocol_errors.inc()
        finally:
            self._open_connections.inc(-1)
            self._writers.discard(writer)
            self._tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _binary_loop(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        while True:
            try:
                prefix = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # client went away between frames: a normal close
            try:
                length = protocol.body_length(prefix, self.max_frame_bytes)
            except ProtocolError as error:
                # The stream cannot be re-synchronised past a bad length:
                # answer with an error frame, then drop the connection.
                self._protocol_errors.inc()
                with contextlib.suppress(ConnectionError):
                    writer.write(protocol.frame(
                        protocol.encode_error(ST_BAD_REQUEST, str(error))))
                    await writer.drain()
                return
            try:
                body = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError):
                self._protocol_errors.inc()
                return  # truncated mid-frame: nothing sane to answer
            response = await self._respond(bytes(body))
            try:
                writer.write(protocol.frame(response))
                await writer.drain()
            except ConnectionError:
                return  # peer vanished mid-response; other clients unaffected

    async def _respond(self, body: bytes) -> bytes:
        """One request frame in, one response body out.  Never raises."""
        start = time.perf_counter()
        ctx: Optional[_RequestContext] = None
        try:
            op = protocol.request_op(body)
            if op == OP_TRACED:
                # Peel the observability wrapper: everything downstream —
                # coalescing included — keys on the *inner* body, so traced
                # frames with unique request ids still join their untraced
                # (or differently-tagged) in-flight twins.
                request_id, want_cost, body = protocol.decode_traced(body)
                op = protocol.request_op(body)
                ctx = _RequestContext(request_id, want_cost, start,
                                      trace.current())
        except ProtocolError as error:
            self._protocol_errors.inc()
            response = protocol.encode_error(ST_BAD_REQUEST, str(error))
            self._record("unknown", response, start, ctx)
            return response
        name = OP_NAMES[op]
        seq = self._register_request(name, ctx)
        try:
            response, cost_json = await self._respond_inner(
                op, name, body, start, ctx)
        finally:
            self._requests.pop(seq, None)
        if ctx is not None and ctx.want_cost:
            response = protocol.attach_cost(response, cost_json or b"{}")
        return response

    async def _respond_inner(self, op: int, name: str, body: bytes,
                             start: float, ctx: Optional[_RequestContext]
                             ) -> Tuple[bytes, Optional[bytes]]:
        if op == OP_PING:
            response = protocol.encode_response(ST_OK)
            self._record(name, response, start, ctx)
            return response, None
        coalescable = op in QUERY_OPS and self.coalesce
        if coalescable:
            # Joining an identical in-flight computation consumes no
            # executor slot, so it is checked BEFORE admission control: a
            # saturated daemon still answers the queries it is already
            # answering.
            entry = self._inflight.get(body)
            if entry is not None and entry[0] == self._coalesce_epoch:
                self._coalesced.inc()
                self._flight.record(
                    "coalesce", op=name,
                    request_id=ctx.request_id if ctx else "")
                # shield(): a waiter's cancellation must not cancel the
                # shared computation other clients are waiting on.
                response, _ = await asyncio.shield(entry[1])
                self._record(name, response, start, ctx)
                return response, _COALESCED_COST
        if op != OP_APPLY_DELTA and self._pending >= self.max_pending:
            # Admission control: fail fast instead of queueing unboundedly.
            # Deltas are exempt — the control plane must stay reachable
            # precisely when the data plane is saturated.
            self._rejected.inc()
            self._flight.record(
                "admission_reject", op=name, pending=self._pending,
                request_id=ctx.request_id if ctx else "")
            response = protocol.encode_error(
                ST_OVERLOADED,
                "daemon at capacity (%d pending requests)" % self._pending,
            )
            self._record(name, response, start, ctx)
            return response, None
        if coalescable:
            response, cost_json = await self._coalesced_run(op, body, ctx)
        else:
            response, cost_json = await self._run(op, body, ctx)
            if op == OP_APPLY_DELTA and response[:1] == bytes((ST_OK,)):
                # Answers computed before this reload must not be handed
                # to requests that arrive after its acknowledgement.
                self._coalesce_epoch += 1
                self._flight.record(
                    "delta", coalesce_epoch=self._coalesce_epoch,
                    version=getattr(self._service, "version", 0),
                    request_id=ctx.request_id if ctx else "")
        self._record(name, response, start, ctx)
        return response, cost_json

    async def _coalesced_run(self, op: int, body: bytes,
                             ctx: Optional[_RequestContext]
                             ) -> Tuple[bytes, Optional[bytes]]:
        future = self._loop.create_future()
        self._inflight[body] = (self._coalesce_epoch, future)
        try:
            result = await self._run(op, body, ctx)
        except BaseException as error:
            if not future.done():
                future.set_exception(error)
                # The waiters consume it; nobody else should retrieve it.
                future.exception()
            raise
        finally:
            if self._inflight.get(body, (None, None))[1] is future:
                del self._inflight[body]
        future.set_result(result)
        return result

    async def _run(self, op: int, body: bytes,
                   ctx: Optional[_RequestContext]
                   ) -> Tuple[bytes, Optional[bytes]]:
        self._pending += 1
        self._inflight_gauge.inc()
        try:
            return await self._loop.run_in_executor(
                self._executor, self._execute, op, body, ctx
            )
        finally:
            self._pending -= 1
            self._inflight_gauge.inc(-1)

    def _execute(self, op: int, body: bytes,
                 ctx: Optional[_RequestContext]
                 ) -> Tuple[bytes, Optional[bytes]]:
        """Answer one frame on an executor thread, measuring if traced.

        Untraced (PR 7) requests take the bare dispatch — no span, no cost
        context, no new overhead.  Traced requests root a ``daemon.request``
        span *on this executor thread* (the loop thread's stack cannot hold
        a span across interleaved awaits) re-parented onto the loop-side
        span via ``trace.propagate``, and run the service work under a
        ``measure()`` context that the store/serve hooks feed.
        """
        if ctx is None:
            return self._dispatch(op, body), None
        wait_ms = round(1e3 * (time.perf_counter() - ctx.start), 3)
        with trace.propagate(ctx.parent):
            with trace.span("daemon.request", op=OP_NAMES[op],
                            request_id=ctx.request_id, wait_ms=wait_ms):
                with measure() as cost:
                    response = self._dispatch(op, body)
        ctx.cost = cost
        if not ctx.want_cost:
            return response, None
        cost_json = json.dumps(cost.as_dict(), sort_keys=True).encode("ascii")
        return response, cost_json

    def _dispatch(self, op: int, body: bytes) -> bytes:
        """Parse and answer one frame on an executor thread."""
        try:
            if op in (OP_IS_ALIAS, OP_LIST_ALIASES, OP_LIST_POINTS_TO,
                      OP_LIST_POINTED_BY):
                return self._answer_query(self._service, op, body)
            if op == OP_QUERY_AT:
                version, inner = protocol.decode_query_at(body)
                # A VersionUnavailableError (a ValueError) from as_of falls
                # through to the BAD_REQUEST handler below: an unanswerable
                # version is the peer's fault, not an internal error.
                snapshot = self._service.as_of(version)
                return self._answer_query(snapshot, inner[0], inner)
            if op == OP_VERSIONS:
                return protocol.encode_version_range(
                    self._service.version_floor, self._service.version
                )
            if op == OP_APPLY_DELTA:
                if not self.allow_deltas:
                    return protocol.encode_error(
                        ST_UNSUPPORTED,
                        "live deltas are disabled on this worker; compact the "
                        "base file and restart the fleet instead",
                    )
                ops = protocol.decode_apply_delta(body)
                invalidated = self._service.apply_delta(DeltaLog(ops))
                return protocol.encode_response(ST_OK, _U32.pack(invalidated))
            if op == OP_STATS:
                payload = json.dumps(self._stats_payload(), sort_keys=True)
                return protocol.encode_response(ST_OK, payload.encode("utf-8"))
            if op == OP_METRICS:
                # The /metrics HTTP body over the socket, for deployments
                # that expose no HTTP port (`repro-pestrie metrics --socket`).
                payload = _REGISTRY.to_prometheus().encode("utf-8")
                return protocol.encode_response(ST_OK, payload)
            return protocol.encode_error(ST_BAD_REQUEST,
                                         "unhandled opcode 0x%02x" % op)
        except ProtocolError as error:
            self._protocol_errors.inc()
            return protocol.encode_error(ST_BAD_REQUEST, str(error))
        except (IndexError, ValueError) as error:
            # Well-framed but unanswerable (operand out of range, delta on
            # a backend that cannot take one): the peer's fault, not ours.
            return protocol.encode_error(ST_BAD_REQUEST, str(error))
        except Exception as error:  # pragma: no cover - defensive
            return protocol.encode_error(
                ST_INTERNAL, "%s: %s" % (type(error).__name__, error)
            )

    def _answer_query(self, target, op: int, body: bytes) -> bytes:
        """Answer one query body against ``target`` (service or snapshot).

        Both :class:`~repro.serve.AliasService` and the pinned
        :class:`~repro.serve.AliasSnapshot` handles speak the same batch
        surface, so live and time-travel frames share this path.
        """
        if op == OP_IS_ALIAS:
            pairs = protocol.decode_is_alias(body)
            answers = target.is_alias_batch(pairs)
            self._queries.inc(len(pairs))
            return protocol.encode_bools(answers)
        operands = protocol.decode_list(body)
        rows = target.packed_batch(OP_NAMES[op], operands)
        self._queries.inc(len(operands))
        return protocol.encode_id_lists(rows)

    def _register_request(self, name: str,
                          ctx: Optional[_RequestContext]) -> int:
        """Track an accepted frame for /debug/requests until it answers."""
        self._request_seq += 1
        seq = self._request_seq
        self._requests[seq] = {
            "seq": seq,
            "op": name,
            "request_id": ctx.request_id if ctx is not None else "",
            "start": time.perf_counter(),
            "wall": time.time(),
        }
        return seq

    def _record(self, name: str, response: bytes, start: float,
                ctx: Optional[_RequestContext] = None) -> None:
        status = STATUS_NAMES.get(response[0], "internal") if response else "internal"
        _REGISTRY.counter("repro_daemon_requests_total", op=name, status=status).inc()
        seconds = time.perf_counter() - start
        _REGISTRY.histogram("repro_daemon_request_seconds", op=name).observe(
            seconds
        )
        if self._flight.enabled:
            cost = ctx.cost if ctx is not None else None
            self._flight.record(
                "request", op=name, status=status,
                seconds=round(seconds, 6),
                request_id=ctx.request_id if ctx is not None else "",
                cost=cost.as_dict() if cost is not None else None)

    def _stats_payload(self) -> dict:
        snapshot = self._service.stats()
        return {
            "n_pointers": self._service.n_pointers,
            "n_objects": self._service.n_objects,
            "version": self._service.version,
            "version_floor": self._service.version_floor,
            "counts": dict(snapshot.counts),
            "batched": dict(snapshot.batched),
            "cache_hits": snapshot.cache_hits,
            "cache_misses": snapshot.cache_misses,
            "cache_hit_rate": snapshot.cache_hit_rate,
            "latency_p50": dict(snapshot.latency_p50),
            "latency_p95": dict(snapshot.latency_p95),
            "total_queries": snapshot.total_queries,
        }

    # ------------------------------------------------------------------
    # HTTP (operations plane)
    # ------------------------------------------------------------------

    async def _on_http_connection(self, reader: asyncio.StreamReader,
                                  writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._tasks.add(task)
        self._writers.add(writer)
        try:
            status, content_type, payload = await self._http_response(reader)
            head = (
                "HTTP/1.1 %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %d\r\n"
                "Connection: close\r\n\r\n" % (status, content_type, len(payload))
            )
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except asyncio.CancelledError:
            raise
        except Exception:
            pass  # a broken scraper is not our problem
        finally:
            self._writers.discard(writer)
            self._tasks.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _http_response(self, reader) -> Tuple[str, str, bytes]:
        try:
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=10.0
            )
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                asyncio.TimeoutError, ConnectionError):
            return "400 Bad Request", "text/plain; charset=utf-8", b"bad request\n"
        if len(head) > _HTTP_HEAD_LIMIT:
            return "431 Request Header Fields Too Large", \
                "text/plain; charset=utf-8", b"headers too large\n"
        request_line = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = request_line.split()
        if len(parts) < 2:
            return "400 Bad Request", "text/plain; charset=utf-8", b"bad request\n"
        method, target = parts[0], parts[1]
        path, _, query = target.partition("?")
        if method != "GET":
            return "405 Method Not Allowed", "text/plain; charset=utf-8", \
                b"only GET is supported\n"
        if path == "/metrics":
            payload = _REGISTRY.to_prometheus().encode("utf-8")
            return "200 OK", "text/plain; version=0.0.4; charset=utf-8", payload
        if path == "/healthz":
            return "200 OK", "text/plain; charset=utf-8", b"ok\n"
        if path == "/stats":
            payload = await self._loop.run_in_executor(
                self._executor,
                lambda: json.dumps(self._stats_payload(), sort_keys=True).encode(),
            )
            return "200 OK", "application/json; charset=utf-8", payload
        if path == "/debug/events":
            limit = _query_int(query, "limit")
            payload = self._flight.dump_json(limit).encode("utf-8")
            return "200 OK", "application/json; charset=utf-8", payload
        if path == "/debug/requests":
            # Loop-confined read: this handler runs on the loop thread, the
            # only mutator of the registry, so the snapshot is consistent.
            now = time.perf_counter()
            rows = [
                {
                    "seq": entry["seq"],
                    "op": entry["op"],
                    "request_id": entry["request_id"],
                    "age_ms": round(1e3 * (now - entry["start"]), 3),
                    "wall": entry["wall"],
                }
                for entry in sorted(self._requests.values(),
                                    key=lambda item: item["seq"])
            ]
            payload = json.dumps(rows, sort_keys=True).encode("utf-8")
            return "200 OK", "application/json; charset=utf-8", payload
        if path == "/debug/profile":
            seconds = _query_float(query, "seconds", _DEFAULT_PROFILE_SECONDS)
            if seconds is None or seconds <= 0:
                return "400 Bad Request", "text/plain; charset=utf-8", \
                    b"seconds must be a positive number\n"
            # The sampler parks an executor thread for the window; the loop
            # keeps serving (including this endpoint's own /metrics peers).
            report = await self._loop.run_in_executor(
                self._executor, lambda: sample_profile(seconds))
            return "200 OK", "text/plain; charset=utf-8", \
                report.encode("utf-8")
        return "404 Not Found", "text/plain; charset=utf-8", \
            b"try /metrics, /healthz, /stats, /debug/events, " \
            b"/debug/requests, or /debug/profile?seconds=N\n"


def _query_params(query: str) -> Dict[str, str]:
    params: Dict[str, str] = {}
    for pair in query.split("&"):
        if "=" in pair:
            key, _, value = pair.partition("=")
            params[key] = value
    return params


def _query_int(query: str, key: str) -> Optional[int]:
    raw = _query_params(query).get(key)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return None


def _query_float(query: str, key: str, default: float) -> Optional[float]:
    raw = _query_params(query).get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        return None


class ThreadedDaemon:
    """An :class:`AliasDaemon` on its own thread with its own event loop.

    For embedding a daemon into synchronous code — tests, benchmarks, or a
    host application that is not asyncio-based.  ``start()`` blocks until
    the listeners accept; ``stop()`` drains and joins.
    """

    def __init__(self, daemon: AliasDaemon):
        import threading

        self._daemon = daemon
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._thread_main,
                                        name="repro-daemon-loop", daemon=True)

    @property
    def daemon(self) -> AliasDaemon:
        return self._daemon

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._async_main())
        except BaseException as error:  # pragma: no cover - startup failures
            self._error = error
            self._ready.set()

    async def _async_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        try:
            await self._daemon.start()
        except BaseException as error:
            self._error = error
            self._ready.set()
            return
        self._ready.set()
        await self._stop_event.wait()
        await self._daemon.stop()

    def start(self, timeout: float = 10.0) -> "ThreadedDaemon":
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("daemon did not start within %.1fs" % timeout)
        if self._error is not None:
            raise self._error
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._loop is not None and self._stop_event is not None:
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)
        self._thread.join(timeout)

    def __enter__(self) -> "ThreadedDaemon":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
