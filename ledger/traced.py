"""The traced run: one workload's inputs replayed through every layer's call.

End-to-end numbers never come from here.  This run replays the head of
the workload's own frame stream (``build-*`` have none, so they use
``is_alias`` pair frames over their program) through each layer's public
entry point in turn, times the layer, checks every answer against the
oracle, and records benchmark-owned spans with a private
:class:`repro.obs.tracing.Tracer`.  Layer self-time comes from replaying
the same frames at successive depths of the stack:

    FlatIndex (index) < OverlayIndex (overlay) < AliasService (serve)
    < codec (protocol) < daemon request (daemon) < client round trip (wire)

Each depth first replays the *next* frames of the stream as a warm-up, so
caches hold what the workload's steady state holds, never the timed
frames themselves.  The spans stay in memory and are written once, at the
end, to ``.ledger/spans/<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import functools
import gc
import json
import re
import time
from typing import Dict, Sequence, Tuple

from repro.bench.workloads import IS_ALIAS, LIST_ALIASES, LIST_POINTED_BY, LIST_POINTS_TO
from repro.clients import DaemonClient
from repro.core.pipeline import load_index
from repro.core.stages import BuildReport, run_pipeline
from repro.daemon import protocol
from repro.delta import DeltaLog, OverlayIndex
from repro.obs.tracing import Tracer
from repro.serve import AliasService

from . import WORK, inputs
from .inputs import EpochOracle, Frame, Oracle, matches
from .metrics import KINDS, PER_LAYER, STAGES, UNITS, median, percentile
from .procs import DaemonProcess
from .workloads import Run, ask, client_batches, settle, streams

#: Frames of the workload's stream timed at each depth (full run), and as
#: many again for the warm-up.
PREFIX_FRAMES = 160
#: Repeats of each cold open.
OPEN_REPEATS = 5
#: Deltas applied in process and over the socket.
DELTAS = 40
#: Pair frames alternated between a plain and a ``want_cost`` client.
OVERHEAD_FRAMES = 200
#: Per-kind index probe sizes: operands of each Table 1 kind.
PROBE = {IS_ALIAS: 2048, LIST_POINTS_TO: 512, LIST_POINTED_BY: 128, LIST_ALIASES: 64}


def _answer(index, frame: Frame) -> list:
    """A frame against a bare index, which has no list batch calls."""
    kind, operands = frame
    if kind == IS_ALIAS:
        return index.is_alias_batch(operands)
    query = getattr(index, kind)
    return [query(operand) for operand in operands]


_SAMPLE = re.compile(r'^(\w+)(?:\{([^}]*)\})? (\S+)$')


def _scrape(client) -> Dict[Tuple[str, str], float]:
    """The daemon's Prometheus text as ``{(family, labels): value}``."""
    samples = {}
    for line in client.metrics().splitlines():
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(match.group(3))
    return samples


def _query_requests(samples) -> Tuple[float, float]:
    """(seconds, count) of query frames in ``repro_daemon_request_seconds``."""
    seconds = count = 0.0
    for kind in KINDS:
        labels = 'op="%s"' % kind
        seconds += samples.get(("repro_daemon_request_seconds_sum", labels), 0.0)
        count += samples.get(("repro_daemon_request_seconds_count", labels), 0.0)
    return seconds, count


class _Spans:
    """Benchmark-owned spans: a private tracer, flattened once at the end."""

    def __init__(self):
        self.tracer = Tracer(root_capacity=1_000_000)
        self.tracer.enable()

    def span(self, name: str, request_id: str = "", **attrs):
        return self.tracer.span(name, request_id=request_id, **attrs)

    def dump(self, path) -> int:
        rows = []

        def walk(span, parent):
            ident = len(rows)
            attrs = dict(span.attrs)
            rows.append({"id": ident, "parent": parent, "name": span.name,
                         "start": span.start, "end": span.start + span.seconds,
                         "request_id": attrs.pop("request_id", ""), "attrs": attrs})
            for child in span.children:
                walk(child, ident)

        for root in self.tracer.roots():
            walk(root, None)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows, default=str))
        return len(rows)


def _pass(spans: _Spans, layer: str, frames: Sequence[Frame], call, check=None) -> float:
    """Replay ``frames`` through ``call`` once; seconds spent inside the calls."""
    total = 0.0
    with spans.span("ledger.%s" % layer, frames=len(frames)):
        for position, frame in enumerate(frames):
            start = time.perf_counter()
            answers = call(frame)
            total += time.perf_counter() - start
            if check is not None:
                check(position, frame, answers)
    return total


def traced(run: Run) -> Tuple[Dict[str, float], str]:
    """Per-layer metrics of one workload, and the table that explains them."""
    shape = run.build_shape if run.workload.startswith("build") else run.serve_shape
    matrix = inputs.program(shape, run.seed)
    oracle = Oracle(matrix)
    count = run.scaled(PREFIX_FRAMES)
    # The head of the first connection's stream; build-* send no queries, so
    # they replay pair frames over their program.
    stream = (streams(run, matrix) or [inputs.pair_frames(matrix, run.seed, 10, 2 * count,
                                                           128)])[0][:2 * count]
    timed, warm = stream[:count], stream[count:]
    expected = [oracle.frame(frame) for frame in timed]
    script = inputs.delta_script(matrix, run.seed, run.scaled(DELTAS))
    epochs = EpochOracle(oracle, script)
    run.fingerprints["program"] = inputs.matrix_digest(matrix)
    run.fingerprints["stream"] = inputs.stream_digest(stream, script)
    queries = sum(len(frame[1]) for frame in timed)
    spans = _Spans()
    values: Dict[str, float] = {}

    def check(position, frame, answers):
        run.check(matches(frame, answers, expected[position]),
                  "traced frame %d answered wrongly" % position)

    with spans.span("ledger.traced", workload=run.workload, seed=run.seed):
        images = {}
        for version in (3, 4):
            report = BuildReport()
            gc.collect()
            with spans.span("ledger.stages", version=version):
                data = run_pipeline(matrix, version=version, report=report)
            suffix = "" if version == 4 else ".v3"
            for stage in STAGES:
                values["stages.%s_s%s" % (stage, suffix)] = report.seconds(stage)
            images[version] = run.work / ("traced.v%d.pes" % version)
            images[version].write_bytes(data)

        first = client_batches(run, matrix)[0]
        settle()
        _store_layer(run, spans, images, first, oracle, values)
        split = _stack_layers(run, spans, images[4], timed, warm, expected, check,
                              matrix, oracle, first, epochs, script, values)

    spans_path = WORK / "spans" / ("%s-seed%d.json" % (run.workload, run.seed))
    run.notes.update(spans=spans.dump(spans_path),
                     spans_file=str(spans_path.relative_to(WORK.parent)),
                     timed_frames=len(timed), timed_queries=queries)
    missing = [metric.name for metric in PER_LAYER if metric.name not in values]
    if missing:
        raise RuntimeError("traced run produced no %s" % ", ".join(missing))
    return values, _table(run, values, split, len(timed), queries)


def _store_layer(run: Run, spans: _Spans, images, first: Frame, oracle: Oracle,
                 values: Dict[str, float]) -> None:
    """Lazy open and first batch per engine, and the v3 same-ES fast path."""
    want = oracle.frame(first)
    for version, first_name in ((3, "query.first_batch_ms.v3"),
                                (4, "flat.first_batch_ms.v4")):
        opens, batches = [], []
        for repeat in range(OPEN_REPEATS):
            with spans.span("ledger.store.open", version=version, repeat=repeat):
                start = time.perf_counter()
                index = load_index(str(images[version]), lazy=True)
                opened = time.perf_counter()
                try:
                    answers = index.is_alias_batch(first[1])
                    done = time.perf_counter()
                finally:
                    index.close()
            opens.append(opened - start)
            batches.append(done - opened)
            run.check(answers == want, "v%d first batch answered wrongly" % version)
        values["store.open_ms.v%d" % version] = 1e3 * median(opens)
        values[first_name] = 1e3 * median(batches)
    same_p, same_q = oracle.equivalent_pair()
    same = []
    for repeat in range(OPEN_REPEATS):
        with spans.span("ledger.query.same_es", repeat=repeat):
            start = time.perf_counter()
            index = load_index(str(images[3]), lazy=True)
            try:
                answer = index.is_alias(same_p, same_q)
                same.append(time.perf_counter() - start)
            finally:
                index.close()
        run.check(answer is True, "same-ES pair %d, %d not aliased" % (same_p, same_q))
    values["query.same_es_ms.v3"] = 1e3 * median(same)


def _index_probe(run: Run, spans: _Spans, base, matrix, oracle: Oracle,
                 values: Dict[str, float]) -> None:
    """Per-kind answer cost of the bare index on Zipf-popular operands."""
    for position, kind in enumerate(KINDS):
        mix = tuple(1.0 if other == kind else 0.0 for other in KINDS)
        width = 128 if kind == IS_ALIAS else 32
        count = max(1, run.scaled(PROBE[kind]) // width)
        frames = inputs.mix_frames(matrix, run.seed, 50 + position, count, width, mix)
        expected = [oracle.frame(frame) for frame in frames]

        def check(index, frame, answers):
            run.check(matches(frame, answers, expected[index]),
                      "index probe %s frame %d answered wrongly" % (kind, index))

        call = functools.partial(_answer, base)
        _pass(spans, "warm.index.%s" % kind, frames, call)
        total = _pass(spans, "index.%s" % kind, frames, call, check)
        values["index.answer_us_per_query.%s" % kind] = \
            1e6 * total / sum(len(frame[1]) for frame in frames)
        if kind == LIST_ALIASES:
            ids = sum(len(row) for rows in expected for row in rows)
            values["index.us_per_id.list_aliases"] = 1e6 * total / max(ids, 1)


def _codec(run: Run, frames: Sequence[Frame], answers: Sequence[list]
           ) -> Tuple[float, float, int]:
    """(client seconds, server seconds, response bytes) framing every exchange."""
    client = server = 0.0
    response_bytes = 0
    for frame, rows in zip(frames, answers):
        start = time.perf_counter()
        body = inputs.frame_bytes(frame)
        encoded = time.perf_counter()
        if frame[0] == IS_ALIAS:
            protocol.decode_is_alias(body)
            response = protocol.encode_bools(rows)
        else:
            protocol.decode_list(body)
            response = protocol.encode_id_lists(rows)
        answered = time.perf_counter()
        _, payload = protocol.split_response(response)
        if frame[0] == IS_ALIAS:
            decoded = protocol.decode_bools(payload, len(frame[1]))
        else:
            decoded = protocol.decode_id_lists(payload, len(frame[1]))
        done = time.perf_counter()
        client += (encoded - start) + (done - answered)
        server += answered - encoded
        response_bytes += len(response)
        run.check(matches(frame, decoded, rows), "codec round trip changed an answer")
    return client, server, response_bytes


def _stack_layers(run: Run, spans: _Spans, image, timed: Sequence[Frame],
                  warm: Sequence[Frame], expected, check, matrix, oracle: Oracle,
                  first: Frame, epochs: EpochOracle, script, values: Dict[str, float]
                  ) -> Dict[str, float]:
    """Index, overlay, serve, protocol, daemon, delta and obs layers.

    Returns the in-process → socket split in microseconds per query over
    one pass of the timed frames.
    """
    queries = sum(len(frame[1]) for frame in timed)
    service = AliasService.from_files([str(image)], lazy=True)
    try:
        backend = service.backend
        base = getattr(backend, "base", backend)
        seconds = {}
        for layer, call in (("index", lambda f: _answer(base, f)),
                            ("overlay", lambda f: _answer(backend, f)),
                            ("serve", lambda f: ask(service, f))):
            _pass(spans, "warm.%s" % layer, warm, call)
            service.reset_stats()
            seconds[layer] = _pass(spans, layer, timed, call, check)
        values["serve.cache_hit_ratio"] = service.stats().cache_hit_rate
        _index_probe(run, spans, base, matrix, oracle, values)

        extends = []
        overlay = OverlayIndex(base)
        for epoch, ops in enumerate(script, 1):
            with spans.span("ledger.delta.extend", epoch=epoch):
                start = time.perf_counter()
                overlay = overlay.extend(DeltaLog(ops))
                extends.append(time.perf_counter() - start)
        run.check(overlay.is_alias_batch(first[1]) == epochs.frame(len(script), first),
                  "extended overlay answered wrongly")
        values["delta.extend_ms"] = 1e3 * sum(extends) / len(extends)
    finally:
        service.close()
    values["delta.overlay_us_per_query"] = \
        1e6 * (seconds["overlay"] - seconds["index"]) / queries
    values["serve.self_us_per_query"] = 1e6 * (seconds["serve"] - seconds["overlay"]) / queries

    client_codec, server_codec, response_bytes = _codec(run, timed, expected)
    values["protocol.codec_us_per_frame"] = 1e6 * (client_codec + server_codec) / len(timed)
    values["protocol.response_bytes_per_frame"] = response_bytes / len(timed)

    _delta_layer(run, spans, image, warm, first, epochs, script, values)

    daemon = DaemonProcess(image, run.work / "t.sock", run.work / "daemon.log",
                           run.daemon_cpus).start()
    try:
        socket_s, server_s = _daemon_layer(run, spans, daemon, timed, warm, check, matrix,
                                           oracle, first, epochs, script, values)
    finally:
        run.leaks.extend(daemon.stop())
    split = {
        "index": seconds["index"],
        "overlay": seconds["overlay"] - seconds["index"],
        "serve": seconds["serve"] - seconds["overlay"],
        "in-process": seconds["serve"],
        "protocol": client_codec + server_codec,
        "daemon": server_s - seconds["serve"] - server_codec,
        "wire": socket_s - server_s - client_codec,
        "socket": socket_s,
    }
    return {layer: 1e6 * total / queries for layer, total in split.items()}


def _delta_layer(run: Run, spans: _Spans, image, warm, first: Frame,
                 epochs: EpochOracle, script, values: Dict[str, float]) -> None:
    """In-process ``apply_delta`` on a warm cache, and ``as_of`` resolution."""
    service = AliasService.from_files([str(image)], lazy=True)
    try:
        for frame in warm:
            ask(service, frame)
        head = service.version
        applies, invalidated = [], []
        for epoch, ops in enumerate(script, 1):
            with spans.span("ledger.delta.apply", epoch=epoch):
                start = time.perf_counter()
                invalidated.append(service.apply_delta(DeltaLog(ops)))
                applies.append(time.perf_counter() - start)
        resolves = []
        for epoch in range(len(script) + 1):
            with spans.span("ledger.delta.as_of", epoch=epoch):
                start = time.perf_counter()
                snapshot = service.as_of(head + epoch)
                resolves.append(time.perf_counter() - start)
            run.check(snapshot.is_alias_batch(first[1]) == epochs.frame(epoch, first),
                      "as_of(%d) answered wrongly in process" % epoch)
    finally:
        service.close()
    values["delta.apply_ms"] = 1e3 * sum(applies) / len(applies)
    values["delta.apply_p90_ms"] = 1e3 * percentile(applies, 90)
    values["delta.invalidated_per_delta"] = sum(invalidated) / len(invalidated)
    values["delta.as_of_us"] = 1e6 * median(resolves)


def _daemon_layer(run: Run, spans: _Spans, daemon: DaemonProcess, timed, warm, check,
                  matrix, oracle: Oracle, first: Frame, epochs: EpochOracle, script,
                  values: Dict[str, float]) -> Tuple[float, float]:
    """Round trips, daemon-side request time, tracing overhead and as_of reads.

    Returns (client round-trip seconds, daemon request seconds) of one
    pass of the timed frames over one connection.
    """
    with DaemonClient(daemon.socket_path) as client:
        _pass(spans, "warm.daemon", warm, lambda frame: ask(client, frame))
        before = _scrape(client)
        socket_s = 0.0
        for position, frame in enumerate(timed):
            with spans.span("ledger.daemon.frame", "%s-%d" % (run.workload, position)):
                start = time.perf_counter()
                answers = ask(client, frame)
                socket_s += time.perf_counter() - start
            check(position, frame, answers)
        after = _scrape(client)
    server_s = _query_requests(after)[0] - _query_requests(before)[0]
    answered = _query_requests(after)[1] - _query_requests(before)[1]
    values["daemon.server_ms"] = 1e3 * server_s / answered
    values["daemon.wire_ms"] = 1e3 * (socket_s - server_s) / len(timed)

    # Tracing overhead: alternate frames between a plain client and a
    # want_cost client, so both see the same cache and machine state.
    probe = inputs.pair_frames(matrix, run.seed, 60, 2 * (run.scaled(OVERHEAD_FRAMES) // 2), 128)
    spent = [0.0, 0.0]
    with DaemonClient(daemon.socket_path) as plain, \
            DaemonClient(daemon.socket_path, want_cost=True) as costed:
        for position, frame in enumerate(probe):
            side = position % 2
            client = costed if side else plain
            with spans.span("ledger.daemon.overhead", want_cost=bool(side)) as span:
                start = time.perf_counter()
                answers = client.is_alias_batch(frame[1])
                spent[side] += time.perf_counter() - start
            if side:
                # The client mints the request id inside the call.
                span.attrs["request_id"] = client.last_request_id
            run.check(answers == oracle.frame(frame), "overhead probe answered wrongly")
    values["obs.trace_overhead_frac"] = 1.0 - spent[0] / spent[1]

    with DaemonClient(daemon.socket_path) as client:
        head = client.versions()[1]
        for ops in script:
            client.apply_delta(ops)
        rtts = []
        for epoch in range(len(script) + 1):
            with spans.span("ledger.daemon.as_of", epoch=epoch):
                start = time.perf_counter()
                answers = client.is_alias_batch(first[1], as_of=head + epoch)
                rtts.append(time.perf_counter() - start)
            run.check(answers == epochs.frame(epoch, first),
                      "as_of(%d) answered wrongly over the socket" % epoch)
    values["delta.as_of_rtt_ms"] = 1e3 * median(rtts)
    return socket_s, server_s


def _table(run: Run, values: Dict[str, float], split: Dict[str, float],
           frames: int, queries: int) -> str:
    lines = ["per-layer metrics: %s, seed %d (%d timed frames, %d queries per depth)"
             % (run.workload, run.seed, frames, queries),
             "%-9s %-40s %14s  %s" % ("layer", "metric", "value", "unit")]
    for metric in PER_LAYER:
        lines.append("%-9s %-40s %14.6g  %s" % (metric.name.split(".")[0], metric.name,
                                                values[metric.name], UNITS[metric.name]))
    lines.append("in-process -> socket split, us/query over the same %d frames:" % frames)
    for layer in ("index", "overlay", "serve"):
        lines.append("  %-12s %10.3f" % (layer, split[layer]))
    lines.append("  %-12s %10.3f" % ("= in-process", split["in-process"]))
    for layer in ("protocol", "daemon", "wire"):
        lines.append("  %-12s %10.3f" % (layer, split[layer]))
    lines.append("  %-12s %10.3f   (gap %.3f = protocol + daemon + wire)"
                 % ("= socket", split["socket"], split["socket"] - split["in-process"]))
    return "\n".join(lines)
