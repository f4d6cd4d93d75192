"""Daemon processes the ledger starts, and the proof that each one ended.

A daemon that outlives its run keeps a core busy and skews every later
run without failing anything, so :meth:`DaemonProcess.stop` reports a
surviving pid or socket file as a failure of the run instead of a warning.
"""

from __future__ import annotations

import ctypes
import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Set, Tuple

from repro.clients import DaemonClient

from . import ROOT, SRC

_PR_SET_PDEATHSIG = 1


def cpu_split() -> Tuple[Set[int], Set[int]]:
    """(load CPUs, daemon CPUs): disjoint halves of this process's CPUs.

    Pinning the load generator and the daemon apart keeps the scheduler
    from stacking them on one core for part of a run, which otherwise
    moves round trips by tens of percent from run to run.  With one CPU
    both get it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    half = max(1, len(cpus) // 2)
    return set(cpus[:half]), set(cpus[half:] or cpus)


def _daemon_child(cpus: Optional[Set[int]]) -> None:
    """Child-side set-up: its CPUs, and SIGTERM if the ledger dies first."""
    if cpus:
        os.sched_setaffinity(0, cpus)
    try:
        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    except (OSError, AttributeError):
        pass


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    status = Path("/proc/%s/status" % (pid if pid is not None else "self"))
    for line in status.read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in %s" % status)


def loadavg() -> List[float]:
    return [float(field) for field in Path("/proc/loadavg").read_text().split()[:3]]


class DaemonProcess:
    """``python -m repro.cli daemon IMAGE --socket SOCK`` as a child process.

    Paths are relative to the checkout root (the child's and the ledger's
    working directory), which keeps the socket path short whatever the
    checkout's absolute path is.
    """

    def __init__(self, image: Path, socket_path: Path, log_path: Path,
                 cpus: Optional[Set[int]] = None):
        self.image = os.path.relpath(image, ROOT)
        self.socket_path = os.path.relpath(socket_path, ROOT)
        self._log_path = log_path
        self._cpus = cpus
        self._proc: Optional[subprocess.Popen] = None

    def start(self, timeout: float = 30.0) -> "DaemonProcess":
        env = dict(os.environ, PYTHONPATH=str(SRC))
        with open(self._log_path, "ab") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "daemon", self.image,
                 "--socket", self.socket_path],
                cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log,
                stderr=log, preexec_fn=functools.partial(_daemon_child, self._cpus))
        deadline = time.monotonic() + timeout
        while True:
            if self._proc.poll() is not None:
                raise RuntimeError("daemon exited with %s before serving; see %s"
                                   % (self._proc.returncode, self._log_path))
            try:
                with DaemonClient(self.socket_path, timeout=timeout) as client:
                    client.ping()
                return self
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("daemon did not listen within %.0fs" % timeout)
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self._proc.pid)

    def stop(self, timeout: float = 10.0) -> List[str]:
        """Stop the daemon; return what survived it (empty when clean)."""
        problems: List[str] = []
        proc = self._proc
        if proc is None:
            return problems
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                problems.append("daemon %d ignored SIGTERM for %.0fs" % (proc.pid, timeout))
                proc.kill()
                try:
                    proc.wait(5.0)
                except subprocess.TimeoutExpired:
                    problems.append("daemon %d survived SIGKILL" % proc.pid)
        if os.path.exists(self.socket_path):
            problems.append("socket %s survived its daemon" % self.socket_path)
            os.unlink(self.socket_path)
        self._proc = None
        return problems
