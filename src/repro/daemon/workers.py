"""Process-level daemon entry points: single-process and pre-fork serving.

The pre-fork mode is the payoff of the mmap storage layer: the parent
binds the unix socket and opens the service's one file **lazily**
(headers only, sections still unmaterialised), then forks N workers that
all inherit the listening socket and the mapped file.  The kernel load-balances
``accept()`` across the workers, and the mapped pages — the persisted
index itself — are shared read-only between every process, so N workers
cost N python heaps but only one copy of the index bytes.  This is the
"built once, queried by many independent clients" deployment the paper's
economics assume.

The one semantic narrowing: workers refuse ``APPLY_DELTA`` with
``UNSUPPORTED``.  A delta applied inside one forked worker would never
propagate to its siblings (the overlay lives in the python heap, not the
shared mapping), and a fleet where 1/N of answers reflect an edit is
worse than one that says so.  Live deltas need the single-process mode;
fleets pick up edits by compacting the base file and restarting.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import sys
from typing import List, Optional

from ..obs import get_flight_recorder, install_signal_dump
from .server import DEFAULT_MAX_PENDING, AliasDaemon

#: accept() backlog for the shared listening socket.
_BACKLOG = 128


def _serve_with_flight(daemon: AliasDaemon) -> None:
    """Run a daemon to completion with incident capture wired up.

    ``SIGUSR2`` dumps the flight recorder to stderr at any time; an
    unexpected crash of the serve loop dumps it on the way down — the
    ring's whole purpose is to still exist when the process doesn't.
    """
    install_signal_dump()
    try:
        asyncio.run(daemon.serve_forever(install_signal_handlers=True))
    except KeyboardInterrupt:
        raise
    except BaseException as error:
        flight = get_flight_recorder()
        flight.record("crash", error="%s: %s" % (type(error).__name__, error),
                      pid=os.getpid())
        flight.dump_to(reason="daemon crash: %s" % type(error).__name__)
        raise


def _bind_unix_socket(socket_path: str) -> socket.socket:
    """Bind and listen on a fresh unix socket, replacing a stale file."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        try:
            os.unlink(socket_path)
        except FileNotFoundError:
            pass
        sock.bind(socket_path)
        sock.listen(_BACKLOG)
        sock.setblocking(False)
    except BaseException:
        sock.close()
        raise
    return sock


def run_daemon(service, socket_path: str, http_port: Optional[int] = None,
               http_host: str = "127.0.0.1", *,
               max_pending: int = DEFAULT_MAX_PENDING,
               allow_deltas: bool = True,
               close_service: bool = True) -> int:
    """Serve ``service`` on ``socket_path`` until SIGINT/SIGTERM.

    The blocking single-process entry point behind ``repro-pestrie
    daemon``.  Returns a process exit code.
    """
    daemon = AliasDaemon(
        service,
        socket_path=socket_path,
        http_host=http_host,
        http_port=http_port,
        max_pending=max_pending,
        allow_deltas=allow_deltas,
        close_service=close_service,
    )
    _serve_with_flight(daemon)
    return 0


def run_workers(path: str, socket_path: str, workers: int,
                http_port: Optional[int] = None,
                http_host: str = "127.0.0.1", *,
                cache_size: int = 4096,
                max_pending: int = DEFAULT_MAX_PENDING,
                status_stream=None) -> int:
    """Pre-fork ``workers`` processes over one socket and one mapped index.

    The parent binds the socket and opens ``path`` lazily (mmap, headers
    only), forks, then supervises: SIGINT/SIGTERM fan out to the workers,
    and one worker dying unexpectedly takes the fleet down (a half-dead
    fleet silently serving at reduced capacity is an outage that hides).
    Each worker gets its own HTTP port (``http_port + slot``) so every
    process can be scraped.  Returns the worst worker exit code.
    """
    from ..serve import AliasService

    if workers < 1:
        raise ValueError("worker count must be at least 1")
    stream = status_stream if status_stream is not None else sys.stderr
    sock = _bind_unix_socket(socket_path)
    try:
        # Lazy open: only headers are decoded here, so the fork below
        # duplicates a tiny heap and the mapped index pages stay shared.
        service = AliasService.from_files([path], lazy=True,
                                          cache_size=cache_size)
    except BaseException:
        sock.close()
        os.unlink(socket_path)
        raise

    pids: List[int] = []
    for slot in range(workers):
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                daemon = AliasDaemon(
                    service,
                    listen_socket=sock,
                    http_host=http_host,
                    http_port=None if http_port is None else http_port + slot,
                    max_pending=max_pending,
                    allow_deltas=False,
                    close_service=True,
                    worker_slot=slot,
                )
                _serve_with_flight(daemon)
                status = 0
            except KeyboardInterrupt:
                status = 0
            finally:
                # Never fall back into the parent's stack: a worker exits
                # here no matter what serve_forever did.
                os._exit(status)
        pids.append(pid)
        get_flight_recorder().record("worker_spawn", slot=slot, pid=pid)

    sock.close()
    print("daemon: %d workers on %s (pids %s)"
          % (workers, socket_path, " ".join(str(pid) for pid in pids)),
          file=stream, flush=True)

    def _fan_out(signum, _frame):
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass

    previous = {
        signum: signal.signal(signum, _fan_out)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    worst = 0
    try:
        remaining = set(pids)
        while remaining:
            try:
                pid, status = os.waitpid(-1, 0)
            except InterruptedError:
                continue
            except ChildProcessError:
                break
            if pid not in remaining:
                continue
            remaining.discard(pid)
            code = os.waitstatus_to_exitcode(status)
            code = 128 - code if code < 0 else code  # killed by signal -N
            worst = max(worst, code)
            get_flight_recorder().record("worker_exit", pid=pid, code=code)
            if code != 0 and remaining:
                # One worker crashed: bring the rest down rather than
                # serving at silent fractional capacity.
                print("daemon: worker %d exited with %d; stopping fleet"
                      % (pid, code), file=stream, flush=True)
                _fan_out(signal.SIGTERM, None)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        try:
            os.unlink(socket_path)
        except OSError:
            pass
    return worst
