"""Command-line interface: analyse, encode, inspect, and query.

Mirrors the workflow of the paper's released C++ artefact (a pair of
``pestrie``/``bitmap`` command-line codecs), plus the analysis frontend:

    repro-pestrie analyze  app.ir out/            # IR -> archive directory
    repro-pestrie encode   app.ir app.pes         # IR -> persistent file
    repro-pestrie info     app.pes                # header & section stats
    repro-pestrie verify   app.pes                # integrity check (CRC etc.)
    repro-pestrie query    app.pes is_alias 3 7
    repro-pestrie query    app.pes list_points_to 3
    repro-pestrie delta-append app.pes --insert 3:1 --delete 0:2
    repro-pestrie compact  app.pes                # fold DELTA records back in
    repro-pestrie bench    app.ir                 # size comparison table
    repro-pestrie serve-stats app.pes lib.pes     # service throughput/stats
    repro-pestrie daemon app.pes --socket /tmp/p.sock   # network query tier

Matrices can also be given directly as ``.pm`` text files: first line
``<n_pointers> <n_objects>``, then one ``<pointer> <object>`` fact per line.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .analysis import andersen, context_sensitive, flow_sensitive, parse_program
from .analysis.correlate import save_archive
from .analysis.transform import context_sensitive_to_matrix, flow_sensitive_to_matrix
from .baselines.bitmap_persist import BitmapPersistence
from .baselines.bzip_persist import BzipPersistence
from .core.decoder import CorruptFileError, decode_bytes, detect_format
from .core.flat import FlatIndex
from .core.pipeline import load_index, persist
from .matrix.points_to import PointsToMatrix

ANALYSES = ("andersen", "steensgaard", "flow-sensitive", "1-callsite", "2-callsite")


def load_matrix_file(path: str) -> PointsToMatrix:
    """Read a ``.pm`` text matrix: header line, then pointer/object pairs."""
    with open(path) as stream:
        header = stream.readline().split()
        if len(header) != 2:
            raise ValueError("%s: first line must be '<n_pointers> <n_objects>'" % path)
        matrix = PointsToMatrix(int(header[0]), int(header[1]))
        for line_number, line in enumerate(stream, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise ValueError("%s:%d: expected '<pointer> <object>'" % (path, line_number))
            matrix.add(int(fields[0]), int(fields[1]))
        return matrix


def save_matrix_file(matrix: PointsToMatrix, path: str) -> None:
    """Write a matrix in the ``.pm`` text format."""
    with open(path, "w") as stream:
        stream.write("%d %d\n" % (matrix.n_pointers, matrix.n_objects))
        for pointer, obj in matrix.pairs():
            stream.write("%d %d\n" % (pointer, obj))


def _matrix_from_source(path: str, analysis: str) -> PointsToMatrix:
    if path.endswith(".pm"):
        return load_matrix_file(path)
    with open(path) as stream:
        program = parse_program(stream.read())
    if analysis == "andersen":
        return andersen.analyze(program).to_matrix()
    if analysis == "steensgaard":
        from .analysis import steensgaard

        return steensgaard.analyze(program).to_matrix()
    if analysis == "flow-sensitive":
        return flow_sensitive_to_matrix(flow_sensitive.analyze(program)).matrix
    if analysis in ("1-callsite", "2-callsite"):
        k = int(analysis[0])
        return context_sensitive_to_matrix(context_sensitive.analyze(program, k=k)).matrix
    raise ValueError("unknown analysis %r" % analysis)


def cmd_encode(args: argparse.Namespace) -> int:
    matrix = _matrix_from_source(args.source, args.analysis)
    size = persist(matrix, args.output, order=args.order, compact=args.compact,
                   version=args.format_version, jobs=args.jobs)
    print("%s: %d pointers, %d objects, %d facts -> %d bytes"
          % (args.output, matrix.n_pointers, matrix.n_objects,
             matrix.fact_count(), size))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.source) as stream:
        program = parse_program(stream.read())
    result = andersen.analyze(program)
    save_archive(
        args.output,
        program,
        result.to_matrix(),
        dict(result.symbols.variable_ids),
        dict(result.symbols.site_ids),
        compact=args.compact,
    )
    print("archive written to %s/ (program.ir, variables.json, call_edges.json,"
          " points_to.pes)" % args.output.rstrip("/"))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """Header and section stats, straight from the container's TOC.

    Only the headers and the pointer-timestamp section are parsed: the
    rectangle shape breakdown comes from the eight header counts (the
    encoder classifies by degeneracy, so points/lines/full rectangles are
    header facts), and a DELTA tail is decoded record by record.  The full
    index is never built — that thoroughness lives in ``verify``.
    """
    from .core.encoder import ABSENT
    from .store import open_container

    with open_container(args.file) as container:
        print("format:       PESTRIE%d (%s ints)"
              % (container.version, "varint" if container.compact else "raw"))
        tracked = sum(1 for ts in container.section_values(0) if ts != ABSENT)
        # Header count order: per shape (point, vline, hline, rect), the
        # (case1, case2) pair.
        counts = container.shape_counts
        total = sum(counts)
        case1 = sum(counts[0::2])
        points = counts[0] + counts[1]
        lines = counts[2] + counts[3] + counts[4] + counts[5]
        print("pointers:     %d (%d tracked)" % (container.n_pointers, tracked))
        print("objects:      %d" % container.n_objects)
        print("groups (ES):  %d" % container.n_groups)
        print("rectangles:   %d (%d case-1, %d case-2)" % (total, case1, total - case1))
        print("  points:     %d" % points)
        print("  lines:      %d" % lines)
        print("  full rects: %d" % (total - points - lines))
        if container.has_tail:
            records = container.tail_records()
            inserts = sum(len(record.inserts) for record in records)
            deletes = sum(len(record.deletes) for record in records)
            print("delta:        %d record(s), +%d/-%d facts, %d bytes"
                  % (len(records), inserts, deletes,
                     container.size - container.base_size))
    print("file size:    %d bytes" % os.path.getsize(args.file))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Decode a persistent file end-to-end and report whether it is intact."""
    from .delta import decode_records, split_image

    try:
        with open(args.file, "rb") as stream:
            data = stream.read()
        version, _compact = detect_format(data)
        base, tail = split_image(data)
        payload = decode_bytes(base)
        # Building the query structure exercises the cross-consistency the
        # clients rely on, not just the byte-level checks.
        FlatIndex.from_payload(payload)
        records = []
        if tail:
            records = decode_records(data, len(base), payload.n_pointers,
                                     payload.n_objects)
    except CorruptFileError as error:
        print("%s: CORRUPT — %s" % (args.file, error), file=sys.stderr)
        return 1
    delta_note = ", %d delta record(s)" % len(records) if records else ""
    print("%s: OK (PESTRIE%d, %d pointers, %d objects, %d groups, %d rectangles%s)"
          % (args.file, version, payload.n_pointers, payload.n_objects,
             payload.n_groups, len(payload.rects), delta_note))
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    if args.as_of is not None:
        from .delta import VersionUnavailableError, load_versions

        try:
            versioned = load_versions(args.file, lazy=True)
            index = versioned.as_of(args.as_of)
        except (CorruptFileError, VersionUnavailableError) as error:
            print("%s: %s" % (args.file, error), file=sys.stderr)
            return 1
    else:
        index = _load_queryable(args.file)
    operands = [int(value) for value in args.operands]
    if args.kind == "is_alias" and len(operands) != 2:
        print("is_alias needs two pointer ids", file=sys.stderr)
        return 2
    if args.kind != "is_alias" and len(operands) != 1:
        print("%s needs one id" % args.kind, file=sys.stderr)
        return 2

    from .obs import measure

    # One measured context around the query: with a lazy open, any section
    # the answer forces is parsed *here*, so --explain attributes it.
    with measure() as cost:
        if args.kind == "is_alias":
            answer = "true" if index.is_alias(*operands) else "false"
        else:
            if args.kind == "list_points_to":
                values = index.list_points_to(operands[0])
            elif args.kind == "list_pointed_by":
                values = index.list_pointed_by(operands[0])
            else:
                values = index.list_aliases(operands[0])
            answer = " ".join(str(value) for value in sorted(values))
    print(answer)
    if args.explain:
        cost.queries = max(cost.queries, 1)
        depth = getattr(index, "generation", 0)
        cost.replay_depth = max(cost.replay_depth, depth)
        if cost.epoch is None and args.as_of is not None:
            cost.epoch = args.as_of
        print("--- cost ---")
        print(cost.render())
    return 0


def _load_queryable(path: str, lazy: bool = True):
    """Load a file into a query structure, delta-aware for PESTRIE3/4.

    Defaults to a lazy mmap-backed open: a single CLI query pays only for
    the columns that query touches (on a ``PESTRIE4`` file, none — they are
    read from the mapped bytes).  The mapping lives until
    process exit, which for a one-shot CLI invocation is the file's
    natural scope.
    """
    with open(path, "rb") as stream:
        prefix = stream.read(9)
    if detect_format(prefix)[0] >= 3:
        from .delta import load_overlay

        return load_overlay(path, lazy=lazy)
    return load_index(path, lazy=lazy)


def _parse_fact(text: str) -> tuple:
    fields = text.split(":")
    if len(fields) != 2:
        raise ValueError("fact %r must be '<pointer>:<object>'" % text)
    return int(fields[0]), int(fields[1])


def _log_from_args(args: argparse.Namespace):
    """Build the edit script: --edits file lines first, then --insert/--delete."""
    from .delta import DeltaLog

    log = DeltaLog()
    if args.edits:
        with open(args.edits) as stream:
            for line_number, line in enumerate(stream, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 3 or fields[0] not in ("+", "-"):
                    raise ValueError("%s:%d: expected '+ <pointer> <object>' or "
                                     "'- <pointer> <object>'" % (args.edits, line_number))
                if fields[0] == "+":
                    log.insert(int(fields[1]), int(fields[2]))
                else:
                    log.delete(int(fields[1]), int(fields[2]))
    for fact in args.insert or ():
        log.insert(*_parse_fact(fact))
    for fact in args.delete or ():
        log.delete(*_parse_fact(fact))
    return log


def cmd_delta_append(args: argparse.Namespace) -> int:
    """Append an edit script to a .pes file as a checksummed DELTA record."""
    from .delta import append_delta

    log = _log_from_args(args)
    if log.is_no_op():
        print("no edits given; %s unchanged" % args.file, file=sys.stderr)
        return 2
    try:
        result = append_delta(args.file, log, auto_compact_ratio=args.auto_compact)
    except CorruptFileError as error:
        print("%s: CORRUPT — %s" % (args.file, error), file=sys.stderr)
        return 1
    if result.compacted:
        print("%s: delta ratio exceeded %.2f — compacted to %d bytes"
              % (args.file, args.auto_compact, result.file_size))
    else:
        print("%s: appended %d bytes (%d record(s), %d ops) -> %d bytes"
              % (args.file, result.bytes_appended, result.record_count,
                 len(log), result.file_size))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    """Fold a file's DELTA records into a fresh base image."""
    from .delta import compact_file

    out = args.output or args.file
    try:
        size = compact_file(args.file, out=args.output, order=args.order)
    except CorruptFileError as error:
        print("%s: CORRUPT — %s" % (args.file, error), file=sys.stderr)
        return 1
    print("%s: compacted -> %s (%d bytes)" % (args.file, out, size))
    return 0


def cmd_versions(args: argparse.Namespace) -> int:
    """List the versions a file's delta chain can answer ``as_of``."""
    from .delta import load_versions

    try:
        versioned = load_versions(args.file)
    except CorruptFileError as error:
        print("%s: CORRUPT — %s" % (args.file, error), file=sys.stderr)
        return 1
    try:
        print("%s: %d record(s), versions %d..%d"
              % (args.file, versioned.record_count,
                 versioned.floor, versioned.head))
        if args.verbose:
            print("  v%-6d base image%s"
                  % (versioned.floor,
                     " (compaction watermark)" if versioned.floor else ""))
            for record in versioned.records():
                print("  v%-6d +%d -%d fact(s)"
                      % (record.epoch, len(record.inserts), len(record.deletes)))
    finally:
        versioned.close()
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import tempfile

    matrix = _matrix_from_source(args.source, args.analysis)
    directory = tempfile.mkdtemp(prefix="repro-bench-")
    rows = [
        ("pestrie", persist(matrix, os.path.join(directory, "m.pes"))),
        ("pestrie-compact", persist(matrix, os.path.join(directory, "m.pesz"), compact=True)),
        ("bitmap (PM+AM)", BitmapPersistence.encode_to_file(matrix, os.path.join(directory, "m.bitp"))),
        ("bzip (PM only)", BzipPersistence.encode_to_file(matrix, os.path.join(directory, "m.bz"))),
    ]
    if matrix.n_pointers <= args.bdd_limit:
        from .bdd import BddPersistence, encode_matrix

        rows.append(
            ("bdd (PM only)",
             BddPersistence.encode_to_file(encode_matrix(matrix), os.path.join(directory, "m.bdd")))
        )
    width = max(len(name) for name, _ in rows)
    print("%d pointers, %d objects, %d facts" % (matrix.n_pointers, matrix.n_objects,
                                                 matrix.fact_count()))
    for name, size in rows:
        print("  %-*s %10d bytes" % (width, name, size))
    return 0


def cmd_serve_stats(args: argparse.Namespace) -> int:
    """Load files into an AliasService, replay a mixed workload, print stats."""
    import time

    from .bench.workloads import IS_ALIAS, TraceSpec, generate_trace
    from .serve import AliasService

    service = AliasService.from_files([args.file], cache_size=args.cache_size)
    trace = generate_trace(
        TraceSpec(length=args.queries, seed=args.seed),
        pointers=list(range(service.n_pointers)),
        objects=list(range(service.n_objects)),
    )
    start = time.perf_counter()
    if args.batch_size > 1:
        # Serve like a real batching front-end: coalesce runs of IsAlias
        # into one batch call, everything else through the single-query API.
        pending = []
        for kind, operands in trace.operations:
            if kind == IS_ALIAS:
                pending.append(operands)
                if len(pending) >= args.batch_size:
                    service.is_alias_batch(pending)
                    pending = []
            else:
                getattr(service, kind)(*operands)
        if pending:
            service.is_alias_batch(pending)
    else:
        for kind, operands in trace.operations:
            getattr(service, kind)(*operands)
    elapsed = time.perf_counter() - start

    print("%s: %d pointers, %d objects"
          % (args.file, service.n_pointers, service.n_objects))
    print("replayed %d queries in %.3fs (%.0f queries/s, batch size %d)"
          % (len(trace), elapsed, len(trace) / max(elapsed, 1e-9), args.batch_size))
    print(service.stats().render())
    return 0


def cmd_daemon(args: argparse.Namespace) -> int:
    """Serve a .pes file over a unix socket (single process or pre-fork)."""
    from .daemon import run_daemon, run_workers
    from .serve import AliasService

    if args.workers > 1:
        return run_workers(
            args.file, args.socket, args.workers,
            http_port=args.http_port,
            cache_size=args.cache_size, max_pending=args.max_pending,
        )
    service = AliasService.from_files([args.file], lazy=True,
                                      cache_size=args.cache_size)
    try:
        print("daemon: serving %s on %s%s"
              % (args.file, args.socket,
                 "" if args.http_port is None
                 else " (http on port %d)" % args.http_port),
              file=sys.stderr, flush=True)
        return run_daemon(service, args.socket, http_port=args.http_port,
                          max_pending=args.max_pending, close_service=True)
    except BaseException:
        service.close()
        raise


def _exercise_pipeline(source: str, analysis: str, queries: int, seed: int) -> None:
    """Run one encode → delta-append → decode → query pass in a temp dir.

    Populates every metric family (build/encode, delta, decode, serve) so a
    ``metrics`` dump from this fresh process reflects a real workload.
    """
    import shutil
    import tempfile

    from .bench.workloads import TraceSpec, generate_trace
    from .delta import DeltaLog, append_delta
    from .obs import record_index_footprint
    from .serve import AliasService

    matrix = _matrix_from_source(source, analysis)
    directory = tempfile.mkdtemp(prefix="repro-metrics-")
    try:
        path = os.path.join(directory, "m.pes")
        persist(matrix, path)
        log = DeltaLog()
        log.insert(0, 0)
        append_delta(path, log, auto_compact_ratio=0.9)
        index = _load_queryable(path, lazy=False)
        record_index_footprint(index)
        service = AliasService.from_index(index)
        workload = generate_trace(
            TraceSpec(length=queries, seed=seed),
            pointers=list(range(service.n_pointers)),
            objects=list(range(service.n_objects)),
        )
        for kind, operands in workload.operations:
            getattr(service, kind)(*operands)
        if service.n_pointers >= 2:
            service.is_alias_batch([(0, 1), (1, 0), (0, 0)])
    finally:
        shutil.rmtree(directory, ignore_errors=True)


def _scrape_url(url: str, timeout: float = 5.0) -> str:
    """GET a daemon HTTP endpoint; bare host:port URLs get ``/metrics``."""
    from urllib.parse import urlparse
    from urllib.request import urlopen

    if urlparse(url).path in ("", "/"):
        url = url.rstrip("/") + "/metrics"
    with urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def cmd_metrics(args: argparse.Namespace) -> int:
    """Dump the process metrics registry, optionally after a pipeline run.

    With ``--socket`` or ``--url`` the dump comes from a *running daemon*
    (unix-socket METRICS op / HTTP ``/metrics``) instead of this process.
    """
    from .obs import get_registry

    if args.socket:
        from .clients import DaemonClient

        with DaemonClient(args.socket) as client:
            sys.stdout.write(client.metrics())
        return 0
    if args.url:
        sys.stdout.write(_scrape_url(args.url))
        return 0
    if args.source:
        _exercise_pipeline(args.source, args.analysis, args.queries, args.seed)
    registry = get_registry()
    if args.format == "prom":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(registry.to_json())
    return 0


def _top_row(label: str, stats: dict, previous: dict) -> str:
    """One worker's line of the ``top`` display, qps from counter deltas."""
    import time

    total = int(stats.get("total_queries", 0))
    now = time.perf_counter()
    qps = 0.0
    last = previous.get(label)
    if last is not None and now > last[1]:
        qps = max(0.0, (total - last[0]) / (now - last[1]))
    previous[label] = (total, now)
    counts = stats.get("counts") or {}
    busiest = max(counts, key=counts.get) if counts else ""
    p50 = 1e6 * stats.get("latency_p50", {}).get(busiest, 0.0)
    p95 = 1e6 * stats.get("latency_p95", {}).get(busiest, 0.0)
    hit_rate = 100.0 * stats.get("cache_hit_rate", 0.0)
    return "%-24s %8.0f %10d %7.1f%% %9.1f %9.1f %8d" % (
        label, qps, total, hit_rate, p50, p95, stats.get("version", 0))


def cmd_top(args: argparse.Namespace) -> int:
    """Poll running daemon(s) and render a qps/latency/cache table.

    Curses-free: each refresh clears the screen with ANSI codes when
    stdout is a terminal, and just appends otherwise (pipeable).  One
    ``--url`` per pre-fork worker (ports stack as ``http_port + slot``)
    gives the per-worker fleet view.
    """
    import json as jsonlib
    import time

    from .clients import DaemonClient, DaemonError

    targets: List[tuple] = []
    if args.socket:
        targets.append(("socket:%s" % args.socket, "socket", args.socket))
    for url in args.url or ():
        targets.append((url, "url", url))
    if not targets:
        print("top needs --socket PATH and/or --url URL", file=sys.stderr)
        return 2

    clients: dict = {}
    previous: dict = {}
    header = "%-24s %8s %10s %8s %9s %9s %8s" % (
        "worker", "qps", "queries", "cache", "p50 (us)", "p95 (us)", "version")
    refreshes = 0
    try:
        while True:
            rows = []
            for label, kind, target in targets:
                try:
                    if kind == "socket":
                        client = clients.get(target)
                        if client is None:
                            client = clients[target] = DaemonClient(target)
                        stats = client.stats()
                    else:
                        from urllib.parse import urlparse

                        url = target
                        if urlparse(url).path in ("", "/"):
                            url = url.rstrip("/") + "/stats"
                        stats = jsonlib.loads(_scrape_url(url))
                    rows.append(_top_row(label, stats, previous))
                except (OSError, ValueError, DaemonError) as error:
                    clients.pop(target, None)
                    rows.append("%-24s unreachable (%s)" % (label, error))
            if sys.stdout.isatty():
                sys.stdout.write("\x1b[2J\x1b[H")
            print(time.strftime("%H:%M:%S"), "-", len(targets), "worker(s)")
            print(header)
            for row in rows:
                print(row)
            sys.stdout.flush()
            refreshes += 1
            if args.iterations and refreshes >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    finally:
        for client in clients.values():
            client.close()


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one pipeline stage under tracing and print the phase-timing tree."""
    import shutil
    import tempfile

    from .obs import record_index_footprint, trace as tracer

    directory = None
    try:
        with tracer.capture() as spans:
            if args.stage == "decode":
                index = _load_queryable(args.file, lazy=False)
                record_index_footprint(index)
            else:
                matrix = _matrix_from_source(args.file, args.analysis)
                directory = tempfile.mkdtemp(prefix="repro-trace-")
                path = os.path.join(directory, "m.pes")
                persist(matrix, path)
                if args.stage == "pipeline":
                    index = _load_queryable(path, lazy=False)
                    record_index_footprint(index)
                    if index.n_pointers >= 2:
                        index.is_alias(0, 1)
                        index.list_points_to(0)
    finally:
        if directory is not None:
            shutil.rmtree(directory, ignore_errors=True)
    if not spans:
        print("(no spans recorded)", file=sys.stderr)
        return 1
    for span in spans:
        print(span.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pestrie",
        description="Persistent pointer information (Pestrie, PLDI 2014 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="encode IR or a .pm matrix into a .pes file")
    encode.add_argument("source", help="IR source file or .pm matrix file")
    encode.add_argument("output", help="persistent file to write")
    encode.add_argument("--analysis", choices=ANALYSES, default="andersen")
    encode.add_argument("--order", default="hub",
                        choices=("hub", "simple", "identity", "random"))
    encode.add_argument("--compact", action="store_true",
                        help="varint/delta-compressed integer coding")
    encode.add_argument("--format-version", type=int, choices=(1, 2, 3, 4), default=3,
                        help="on-disk format version (3 = checksummed PESTRIE3, "
                             "the default; 4 = PESTRIE4 with zero-copy flat query "
                             "sections; 1/2 = legacy uncheck-summed formats)")
    encode.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes for the parallel build stages "
                             "(default: serial; output is byte-identical "
                             "regardless of N)")
    encode.set_defaults(handler=cmd_encode)

    analyze = sub.add_parser("analyze", help="analyse IR into a reusable archive dir")
    analyze.add_argument("source")
    analyze.add_argument("output")
    analyze.add_argument("--compact", action="store_true")
    analyze.set_defaults(handler=cmd_analyze)

    info = sub.add_parser("info", help="show persistent-file statistics")
    info.add_argument("file")
    info.set_defaults(handler=cmd_info)

    verify = sub.add_parser(
        "verify", help="check a .pes file's integrity (checksum, bounds, invariants)"
    )
    verify.add_argument("file")
    verify.set_defaults(handler=cmd_verify)

    query = sub.add_parser("query", help="run one query against a .pes file")
    query.add_argument("file")
    query.add_argument(
        "kind",
        choices=("is_alias", "list_points_to", "list_pointed_by", "list_aliases"),
    )
    query.add_argument("operands", nargs="+")
    query.add_argument("--as-of", type=int, default=None, metavar="VERSION",
                       help="answer as of this delta-chain version (epoch) "
                            "instead of the file's head state")
    query.add_argument("--explain", action="store_true",
                       help="print the query's cost breakdown (bytes parsed, "
                            "sections materialised, replay depth, ...) after "
                            "the answer")
    query.set_defaults(handler=cmd_query)

    delta_append = sub.add_parser(
        "delta-append",
        help="append points-to fact edits to a .pes file without re-encoding",
    )
    delta_append.add_argument("file")
    delta_append.add_argument("--insert", action="append", metavar="P:O",
                              help="insert the fact 'pointer P points to object O' "
                                   "(repeatable)")
    delta_append.add_argument("--delete", action="append", metavar="P:O",
                              help="retract the fact 'pointer P points to object O' "
                                   "(repeatable)")
    delta_append.add_argument("--edits", metavar="FILE",
                              help="edit-script file: one '+ P O' or '- P O' per "
                                   "line, applied before --insert/--delete")
    delta_append.add_argument("--auto-compact", type=float, default=None,
                              metavar="RATIO",
                              help="re-encode in place once |delta|/facts exceeds "
                                   "RATIO (e.g. 0.2)")
    delta_append.set_defaults(handler=cmd_delta_append)

    compact = sub.add_parser(
        "compact", help="fold a .pes file's DELTA records into a fresh base image"
    )
    compact.add_argument("file")
    compact.add_argument("-o", "--output", default=None,
                         help="write the compacted file here (default: in place)")
    compact.add_argument("--order", default="hub",
                         choices=("hub", "simple", "identity", "random"))
    compact.set_defaults(handler=cmd_compact)

    versions = sub.add_parser(
        "versions",
        help="list the delta-chain versions a .pes file can answer as-of",
    )
    versions.add_argument("file")
    versions.add_argument("-v", "--verbose", action="store_true",
                          help="also print each version's edit counts")
    versions.set_defaults(handler=cmd_versions)

    serve_stats = sub.add_parser(
        "serve-stats",
        help="replay a mixed query workload through the AliasService and "
             "report throughput, cache hit rate, and latency quantiles",
    )
    serve_stats.add_argument("file", help=".pes file to serve")
    serve_stats.add_argument("--queries", type=int, default=10_000,
                             help="workload length (default 10000)")
    serve_stats.add_argument("--seed", type=int, default=0)
    serve_stats.add_argument("--batch-size", type=int, default=64,
                             help="IsAlias batching window; 1 disables batching")
    serve_stats.add_argument("--cache-size", type=int, default=4096,
                             help="LRU result-cache capacity; 0 disables caching")
    serve_stats.set_defaults(handler=cmd_serve_stats)

    daemon = sub.add_parser(
        "daemon",
        help="serve a .pes file to out-of-process clients over a unix socket "
             "(binary batch protocol + /metrics HTTP endpoint)",
    )
    daemon.add_argument("file", help=".pes file to serve")
    daemon.add_argument("--socket", required=True, metavar="PATH",
                        help="unix socket path to listen on")
    daemon.add_argument("--http-port", type=int, default=None, metavar="PORT",
                        help="also serve GET /metrics, /healthz, /stats on "
                             "this localhost port (0 picks a free port)")
    daemon.add_argument("--workers", type=int, default=1,
                        help="pre-fork this many worker processes over the "
                             "shared mmap (disables live deltas; default 1)")
    daemon.add_argument("--cache-size", type=int, default=4096,
                        help="per-process LRU result-cache capacity")
    daemon.add_argument("--max-pending", type=int, default=64,
                        help="admission-control bound on in-flight request "
                             "frames before fast OVERLOADED rejection")
    daemon.set_defaults(handler=cmd_daemon)

    bench = sub.add_parser("bench", help="compare encoding sizes on one input")
    bench.add_argument("source")
    bench.add_argument("--analysis", choices=ANALYSES, default="andersen")
    bench.add_argument("--bdd-limit", type=int, default=5000,
                       help="skip the BDD encoding above this pointer count")
    bench.set_defaults(handler=cmd_bench)

    metrics = sub.add_parser(
        "metrics",
        help="dump the telemetry registry (optionally after running the "
             "encode -> delta -> decode -> query pipeline on an input)",
    )
    metrics.add_argument("source", nargs="?", default=None,
                         help="IR source or .pm matrix to run the pipeline on "
                              "first; omit to dump the (mostly empty) registry")
    metrics.add_argument("--format", default="json", choices=("json", "prom"),
                         help="JSON snapshot or Prometheus text exposition 0.0.4")
    metrics.add_argument("--analysis", choices=ANALYSES, default="andersen")
    metrics.add_argument("--queries", type=int, default=1000,
                         help="workload length replayed through the service")
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--socket", default=None, metavar="PATH",
                         help="scrape a running daemon over its unix socket "
                              "(Prometheus text; ignores source/--format)")
    metrics.add_argument("--url", default=None, metavar="URL",
                         help="scrape a running daemon's HTTP /metrics "
                              "endpoint (bare host:port URLs get /metrics "
                              "appended)")
    metrics.set_defaults(handler=cmd_metrics)

    top = sub.add_parser(
        "top",
        help="live polling view of running daemon(s): qps, latency "
             "quantiles, cache hit rate, and MVCC version per worker",
    )
    top.add_argument("--socket", default=None, metavar="PATH",
                     help="poll a daemon over its unix socket")
    top.add_argument("--url", action="append", metavar="URL",
                     help="poll a daemon's HTTP /stats endpoint; repeat once "
                          "per pre-fork worker (ports are http_port + slot)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default 2)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N refreshes (0 = run until ^C)")
    top.set_defaults(handler=cmd_top)

    trace = sub.add_parser(
        "trace",
        help="run one pipeline stage under span tracing and print the "
             "hierarchical phase-timing tree",
    )
    trace.add_argument("stage", choices=("encode", "decode", "pipeline"),
                       help="encode: source -> .pes; decode: .pes -> index; "
                            "pipeline: encode then decode then query")
    trace.add_argument("file", help=".pm/IR source (encode, pipeline) or "
                                    ".pes file (decode)")
    trace.add_argument("--analysis", choices=ANALYSES, default="andersen")
    trace.set_defaults(handler=cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, ValueError) as error:
        print("error: %s" % error, file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
