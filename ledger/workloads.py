"""The seven workloads' untraced runs: set-up, measured phase, oracle checks.

Each runner returns the end-to-end metrics of ``metrics.END_TO_END`` and
counts every checked operation on its :class:`Run`.  Load comes from this
one process: at most two threads and two daemon connections.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bench.workloads import IS_ALIAS, LIST_ALIASES, LIST_POINTED_BY, LIST_POINTS_TO
from repro.clients import DaemonClient, DaemonError
from repro.core.pipeline import index_from_bytes, load_index
from repro.core.stages import BuildReport, run_pipeline

from . import inputs
from .inputs import EpochOracle, Frame, Oracle, matches
from .metrics import median, windowed
from .procs import DaemonProcess, vm_hwm_mb

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: Encodes per build run, whatever ``--seconds`` allows.
MIN_BUILDS = 3
#: ``serve-write``: one 8-fact delta every WRITE_PERIOD seconds, and one
#: 32-query reader frame every READ_PERIOD seconds (about a third of what
#: the daemon answers closed-loop, so writes queue behind little).
WRITE_PERIOD = 0.05
READ_PERIOD = 0.0025
#: Every PIN_EVERY-th reader frame of ``serve-write`` is pinned with as_of.
PIN_EVERY = 10
#: GIL switch interval of the load threads (the interpreter default is 5 ms).
LOAD_SWITCH_INTERVAL = 0.0005


@dataclass
class Run:
    """One workload run: its settings and everything it counted."""

    workload: str
    seed: int
    seconds: float
    quick: bool
    work: Path
    client_cls: type = DaemonClient
    #: CPUs for the daemons this run starts (None: wherever the OS puts them).
    daemon_cpus: Optional[Set[int]] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Daemon pids or socket files that outlived their stop: the run fails.
    leaks: List[str] = field(default_factory=list)
    fingerprints: Dict[str, str] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.tally(1 if ok else 0, 0 if ok else 1, what)

    def tally(self, good: int, bad: int, what: str) -> None:
        """Count ``good + bad`` operations, ``bad`` of them failed."""
        self.attempted += good + bad
        if bad:
            self.failed += bad
            if len(self.problems) < 20:
                self.problems.append(what)

    @property
    def serve_shape(self):
        return inputs.QUICK_SERVE_SHAPE if self.quick else inputs.SERVE_SHAPE

    @property
    def build_shape(self):
        return inputs.QUICK_BUILD_SHAPE if self.quick else inputs.BUILD_SHAPE

    def scaled(self, count: int) -> int:
        """A stream length, cut to a tenth under ``--quick``."""
        return max(8, count // 10) if self.quick else count


_BATCH_CALLS = {
    IS_ALIAS: "is_alias_batch",
    LIST_ALIASES: "list_aliases_many",
    LIST_POINTS_TO: "points_to_batch",
    LIST_POINTED_BY: "pointed_by_batch",
}


def ask(target, frame: Frame, as_of: Optional[int] = None) -> list:
    """One frame through the batch surface that :class:`DaemonClient` and
    :class:`~repro.serve.AliasService` share (only the client takes as_of)."""
    call = getattr(target, _BATCH_CALLS[frame[0]])
    return call(frame[1]) if as_of is None else call(frame[1], as_of=as_of)


def _wait_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def settle() -> None:
    """Collect, then freeze the ledger's own objects (oracles, streams).

    The collector then never rescans them inside the measured phase, where
    that work would be charged to the program's calls.
    """
    gc.collect()
    gc.freeze()


def client_batches(run: Run, matrix) -> List[Frame]:
    """The 32-pair batches ``cold-open-*`` clients send, one per client."""
    return inputs.pair_frames(matrix, run.seed, 1, run.scaled(500), 32)


def streams(run: Run, matrix) -> List[List[Frame]]:
    """The frames each connection of the workload sends, in order.

    ``cold-open-*`` clients each send one frame; ``build-*`` send none.
    """
    name = run.workload
    if name == "serve-pairs":
        return [inputs.pair_frames(matrix, run.seed, 10 + slot, run.scaled(2000), 128)
                for slot in range(2)]
    if name == "serve-mix":
        # One connection: with two, small frames queue behind the other
        # connection's list_aliases frames on the daemon's interpreter lock,
        # and the median flips between ~1.5 and ~5.5 ms from run to run.
        return [inputs.mix_frames(matrix, run.seed, 20, run.scaled(1600), 32,
                                  inputs.RACE_MIX)]
    if name == "serve-write":
        return [inputs.mix_frames(matrix, run.seed, 30,
                                  max(1, int(run.seconds / READ_PERIOD)), 32,
                                  inputs.READER_MIX)]
    if name.startswith("cold-open"):
        return [client_batches(run, matrix)]
    return []


def _encode(matrix, version: int, image: Path) -> bytes:
    data = run_pipeline(matrix, version=version, report=BuildReport())
    image.write_bytes(data)
    return data


# ----------------------------------------------------------------------
# build-v3 / build-v4
# ----------------------------------------------------------------------


def build(run: Run, version: int) -> Dict[str, float]:
    """Serial encodes of the build program; repeats must be byte-identical."""
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        matrix = inputs.program(run.build_shape, run.seed)
        setups.append(time.perf_counter() - start)
    run.fingerprints["program"] = inputs.matrix_digest(matrix)
    run.fingerprints["stream"] = inputs.stream_digest()
    facts = matrix.fact_count()

    times: List[float] = []
    images: List[bytes] = []
    began = time.perf_counter()
    while len(times) < MIN_BUILDS or time.perf_counter() - began < run.seconds:
        # Each encode starts from a collected heap: otherwise the previous
        # encode's garbage lands on every other sample.
        gc.collect()
        start = time.perf_counter()
        data = run_pipeline(matrix, version=version, report=BuildReport())
        times.append(time.perf_counter() - start)
        if not images or data != images[0]:
            images.append(data)
    first = images[0]
    run.tally(len(times) - len(images) + 1, len(images) - 1,
              "%d of %d v%d encodes differ from the first"
              % (len(images) - 1, len(times), version))
    index = index_from_bytes(first, lazy=True)
    try:
        run.check(index.materialize() == matrix,
                  "v%d image does not decode to the program" % version)
    finally:
        index.close()
    run.notes.update(samples=len(times), tail="max", tail_ms=1e3 * max(times),
                     setups_s=setups)
    return {
        "setup_s": median(setups),
        "peak_rss_mb": vm_hwm_mb(),
        "bytes_per_fact": len(first) / facts,
        "p50_ms": 1e3 * median(times),
        "throughput": facts * len(times) / sum(times),
    }


# ----------------------------------------------------------------------
# cold-open-v3 / cold-open-v4
# ----------------------------------------------------------------------


def cold_open(run: Run, version: int) -> Dict[str, float]:
    """One-shot clients: lazy open, one 32-pair batch, close."""
    matrix = inputs.program(run.serve_shape, run.seed)
    oracle = Oracle(matrix)
    batches = streams(run, matrix)[0]
    expected = [oracle.frame(batch) for batch in batches]
    run.fingerprints["program"] = inputs.matrix_digest(matrix)
    run.fingerprints["stream"] = inputs.stream_digest(batches)
    image = run.work / ("cold.v%d.pes" % version)

    def client(position: int) -> float:
        pairs = batches[position % len(batches)][1]
        start = time.perf_counter()
        index = load_index(str(image), lazy=True)
        try:
            answers = index.is_alias_batch(pairs)
        finally:
            index.close()
        elapsed = time.perf_counter() - start
        run.check(answers == expected[position % len(batches)],
                  "cold-open client %d answered wrongly" % position)
        return elapsed

    settle()
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        data = _encode(inputs.program(run.serve_shape, run.seed), version, image)
        client(0)
        setups.append(time.perf_counter() - start)

    settle()
    samples = []
    began = time.perf_counter()
    while time.perf_counter() - began < run.seconds:
        elapsed = client(len(samples))
        samples.append((time.perf_counter(), elapsed, 1))
    run.notes.update(samples=len(samples), setups_s=setups)
    return dict(windowed(samples, began, time.perf_counter(), 90, run.notes),
                setup_s=median(setups), peak_rss_mb=vm_hwm_mb(),
                bytes_per_fact=len(data) / matrix.fact_count())


# ----------------------------------------------------------------------
# serve-pairs / serve-mix / serve-write
# ----------------------------------------------------------------------


def _serve_setup(run: Run, first: Frame, expected: list) -> Tuple[DaemonProcess, bytes, float]:
    """Encode, write, spawn the daemon, first correct answer — SETUPS times.

    Returns the last daemon (still serving), its image and the median
    set-up time.  Earlier daemons are stopped before the image is
    rewritten, since they map it.
    """
    image = run.work / "serve.v4.pes"
    daemon: Optional[DaemonProcess] = None
    setups = []
    settle()
    try:
        for attempt in range(SETUPS):
            if daemon is not None:
                run.leaks.extend(daemon.stop())
            start = time.perf_counter()
            data = _encode(inputs.program(run.serve_shape, run.seed), 4, image)
            daemon = DaemonProcess(image, run.work / "d.sock", run.work / "daemon.log",
                                   run.daemon_cpus).start()
            with run.client_cls(daemon.socket_path) as client:
                answers = ask(client, first)
            setups.append(time.perf_counter() - start)
            run.check(matches(first, answers, expected),
                      "first answer of set-up %d is wrong" % attempt)
    except BaseException:
        if daemon is not None:
            run.leaks.extend(daemon.stop())
        raise
    run.notes["setups_s"] = setups
    return daemon, data, median(setups)


def _threads(bodies: List[Callable[[], None]], timeout: float) -> None:
    """Run ``bodies[0]`` here and the rest on threads; re-raise any error.

    A short switch interval keeps one load thread's response decoding from
    holding the other's receive for up to 5 ms, which would be charged to
    the daemon's round trip.
    """
    errors: List[BaseException] = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(LOAD_SWITCH_INTERVAL)

    def guarded(body):
        try:
            body()
        except BaseException as error:  # surfaced below, on the caller's thread
            errors.append(error)

    threads = [threading.Thread(target=guarded, args=(body,), daemon=True)
               for body in bodies[1:]]
    try:
        for thread in threads:
            thread.start()
        guarded(bodies[0])
        for thread in threads:
            thread.join(timeout)
            if thread.is_alive():
                errors.append(RuntimeError("load thread still running after %.0fs"
                                           % timeout))
    finally:
        sys.setswitchinterval(interval)
    if errors:
        raise errors[0]


def _closed_loop(run: Run, socket_path: str, sent: List[List[Frame]],
                 expected: List[list], tail: float) -> Dict[str, float]:
    """One closed-loop connection per stream, for ``run.seconds``."""
    barrier = threading.Barrier(len(sent))
    results: List[dict] = [None] * len(sent)

    def connection(slot: int) -> None:
        frames, answers_for = sent[slot], expected[slot]
        samples: List[Tuple[float, float, int]] = []
        wrong = errors = 0
        with run.client_cls(socket_path) as client:
            barrier.wait()
            began = time.perf_counter()
            deadline = began + run.seconds
            position = 0
            while time.perf_counter() < deadline:
                frame = frames[position % len(frames)]
                start = time.perf_counter()
                try:
                    answers = ask(client, frame)
                except DaemonError:
                    errors += 1
                else:
                    done = time.perf_counter()
                    samples.append((done, done - start, len(frame[1])))
                    if not matches(frame, answers, answers_for[position % len(frames)]):
                        wrong += 1
                position += 1
            ended = time.perf_counter()
        results[slot] = {"samples": samples, "wrong": wrong, "errors": errors,
                         "began": began, "ended": ended}

    settle()
    _threads([lambda slot=slot: connection(slot) for slot in range(len(sent))],
             timeout=run.seconds + 120)
    for result in results:
        bad = result["wrong"] + result["errors"]
        run.tally(len(result["samples"]) + result["errors"] - bad, bad,
                  "%d wrong answers, %d refusals on one connection"
                  % (result["wrong"], result["errors"]))
    samples = sorted(sample for result in results for sample in result["samples"])
    run.notes["samples"] = len(samples)
    return windowed(samples, min(r["began"] for r in results),
                    max(r["ended"] for r in results), tail, run.notes)


def _serve(run: Run, matrix, sent: List[List[Frame]], tail: float) -> Dict[str, float]:
    oracle = Oracle(matrix)
    expected = [[oracle.frame(frame) for frame in frames] for frames in sent]
    run.fingerprints["program"] = inputs.matrix_digest(matrix)
    run.fingerprints["stream"] = inputs.stream_digest(
        [frame for frames in sent for frame in frames])
    daemon, data, setup = _serve_setup(run, sent[0][0], expected[0][0])
    try:
        values = _closed_loop(run, daemon.socket_path, sent, expected, tail)
        values["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        run.leaks.extend(daemon.stop())
    values["setup_s"] = setup
    values["bytes_per_fact"] = len(data) / matrix.fact_count()
    return values


def serve_pairs(run: Run) -> Dict[str, float]:
    matrix = inputs.program(run.serve_shape, run.seed)
    return _serve(run, matrix, streams(run, matrix), tail=99)


def serve_mix(run: Run) -> Dict[str, float]:
    matrix = inputs.program(run.serve_shape, run.seed)
    return _serve(run, matrix, streams(run, matrix), tail=95)


def serve_write(run: Run) -> Dict[str, float]:
    """An open-loop reader beside an open-loop delta writer.

    Both are timed from when each request was due.  A closed-loop reader
    kept the daemon saturated, so each delta's latency depended on how
    many reader frames the schedulers interleaved with it, and every
    metric of this workload swung by about 30% from run to run.
    """
    matrix = inputs.program(run.serve_shape, run.seed)
    oracle = Oracle(matrix)
    frames = streams(run, matrix)[0]
    script = inputs.delta_script(matrix, run.seed, max(1, int(run.seconds / WRITE_PERIOD)))
    epochs = EpochOracle(oracle, script)
    run.fingerprints["program"] = inputs.matrix_digest(matrix)
    run.fingerprints["stream"] = inputs.stream_digest(frames, script)
    daemon, data, setup = _serve_setup(run, frames[0], epochs.frame(0, frames[0]))
    state = {"sent": 0, "acked": 0}
    writes: List[Tuple[float, float, int]] = []
    lateness = [0.0]
    reader: Dict[str, object] = {}
    barrier = threading.Barrier(2)
    rng = inputs.rng(run.seed, 31)
    try:
        with run.client_cls(daemon.socket_path) as client:
            base_epoch = client.versions()[1]

        def write() -> None:
            with run.client_cls(daemon.socket_path) as client:
                barrier.wait()
                began = time.perf_counter()
                for number, ops in enumerate(script, 1):
                    due = began + (number - 1) * WRITE_PERIOD
                    _wait_until(due)
                    lateness[0] = max(lateness[0], time.perf_counter() - due)
                    state["sent"] = number
                    client.apply_delta(ops)
                    done = time.perf_counter()
                    writes.append((done, done - due, 1))
                    state["acked"] = number

        def read() -> None:
            samples: List[Tuple[float, float, int]] = []
            wrong = 0
            with run.client_cls(daemon.socket_path) as client:
                barrier.wait()
                began = time.perf_counter()
                deadline = began + run.seconds
                position = 0
                while began + position * READ_PERIOD < deadline:
                    due = began + position * READ_PERIOD
                    _wait_until(due)
                    frame = frames[position % len(frames)]
                    low = state["acked"]
                    pinned = rng.randint(0, low) if position % PIN_EVERY == PIN_EVERY - 1 else None
                    position += 1
                    try:
                        answers = ask(client, frame, as_of=None if pinned is None
                                      else base_epoch + pinned)
                    except DaemonError:
                        wrong += 1
                        continue
                    done = time.perf_counter()
                    samples.append((done, done - due, len(frame[1])))
                    # A head read may see any delta acknowledged before it
                    # was sent, up to any delta sent before it returned.
                    high = state["sent"]
                    candidates = [pinned] if pinned is not None else range(high, low - 1, -1)
                    if not any(matches(frame, answers, epochs.frame(epoch, frame))
                               for epoch in candidates):
                        wrong += 1
                reader.update(samples=samples, wrong=wrong, attempts=position,
                              began=began, ended=time.perf_counter())

        settle()
        _threads([read, write], timeout=run.seconds + 120)
        with run.client_cls(daemon.socket_path) as client:
            head = client.versions()[1]
        peak = daemon.peak_rss_mb()
    finally:
        run.leaks.extend(daemon.stop())
    run.tally(reader["attempts"] - reader["wrong"], reader["wrong"],
              "%d reader frames refused or matched no admissible epoch" % reader["wrong"])
    run.tally(len(writes), 0, "")
    run.check(head == base_epoch + len(script),
              "daemon head %d after %d deltas from epoch %d"
              % (head, len(script), base_epoch))
    run.notes.update(samples=len(writes), reader_frames=len(reader["samples"]),
                     writer_max_lateness_ms=1e3 * lateness[0])
    values = windowed(writes, reader["began"], reader["ended"], 95, run.notes)
    reads: Dict[str, object] = {}
    read_values = windowed(reader["samples"], reader["began"], reader["ended"], 99, reads)
    values["throughput"] = read_values["throughput"]
    run.notes.update(reader_p50_ms=read_values["p50_ms"], reader_tail=reads["tail"],
                     reader_tail_ms=reads["tail_ms"])
    values.update(setup_s=setup, peak_rss_mb=peak,
                  bytes_per_fact=len(data) / matrix.fact_count())
    return values


#: name → (runner, why it is in the ledger).
WORKLOADS: Dict[str, Tuple[Callable[[Run], Dict[str, float]], str]] = {
    "build-v3": (lambda run: build(run, 3),
                 "serial core.stages encode of a 317k-fact program to v3; the only "
                 "workload where dedup and the v3 sections do the work"),
    "build-v4": (lambda run: build(run, 4),
                 "serial encode of the same program to v4, where the flat sections "
                 "stage dominates"),
    "cold-open-v3": (lambda run: cold_open(run, 3),
                     "lazy v3 open plus first batch, which builds the ptList sweep: "
                     "the path the one-query-engine change rewrites"),
    "cold-open-v4": (lambda run: cold_open(run, 4),
                     "lazy v4 open plus first batch: validate and bisect the mapped "
                     "flat sections, no rebuild"),
    "serve-pairs": (serve_pairs,
                    "socket is_alias frames of 128 Zipf pairs; overhead-bound, and the "
                    "pair space dwarfs the cache so caching is bypassed"),
    "serve-mix": (serve_mix,
                  "socket race-detector mix 70/15/5/10; answer-bound by list_aliases "
                  "and result encoding, with repeated list answers hitting the cache"),
    "serve-write": (serve_write,
                    "open-loop 8-fact deltas every 50 ms beside a reader with as_of "
                    "pins; overlay extend, invalidation and as_of run only here"),
}
