"""The metric catalogue: every family the pipeline is expected to emit.

One place names every metric family, its type, and its help string, for
three consumers: the registry (help/type text on first use), the docs
(``docs/OBSERVABILITY.md`` lists exactly these), and the ``metrics-smoke``
CI guard (which fails when an exported snapshot is missing a family).

Naming conventions
------------------
* every family is prefixed ``repro_``;
* counters end in ``_total``, byte gauges in ``_bytes``, timing
  histograms in ``_seconds``;
* label keys are lowercase: ``kind`` (Table 1 query kind), ``case``
  (rectangle case), ``result`` (``ok``/``corrupt``), ``service``
  (per-``ServiceStats`` instance id), ``name`` (span name), ``op`` (daemon request opcode) and ``status``
  (daemon response status).
"""

from __future__ import annotations

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: ``name -> (type, help)`` for every family the instrumentation emits.
CATALOGUE = {
    # --- construction (core/builder.py) -------------------------------
    "repro_build_runs_total": (COUNTER, "Pestrie constructions performed."),
    "repro_build_groups_total": (COUNTER, "Equivalence-set groups created across all builds."),
    "repro_build_seconds": (HISTOGRAM, "Wall time of one Pestrie construction pass."),
    # --- staged pipeline (core/stages.py) -----------------------------
    "repro_stage_seconds": (HISTOGRAM, "Wall time of one staged-pipeline stage, by stage name."),
    "repro_encode_parallel_jobs": (GAUGE, "Worker processes of the most recent staged encode (1 = serial)."),
    # --- rectangle dedup (core/stages.py) ----------------------------
    "repro_encode_rectangles_total": (COUNTER, "Rectangles stored, by case label."),
    "repro_encode_rect_pruned_total": (COUNTER, "Candidate rectangles discarded by the Theorem 2 corner test."),
    # --- serialisation (core/stages.py) -------------------------------
    "repro_encode_runs_total": (COUNTER, "Persistent images serialised."),
    "repro_encode_bytes": (GAUGE, "Size of the most recently serialised persistent image."),
    # --- decoding (core/decoder.py) -----------------------------------
    "repro_decode_total": (COUNTER, "Persistent-image decode attempts, by result."),
    "repro_decode_seconds": (HISTOGRAM, "Wall time of one successful decode."),
    "repro_decode_bytes": (GAUGE, "Size of the most recently decoded image."),
    "repro_decode_rectangles": (GAUGE, "Rectangles in the most recently decoded image."),
    "repro_decode_intact": (GAUGE, "1 when the most recent decode verified clean, 0 after a corrupt input."),
    "repro_index_footprint_bytes": (GAUGE, "Measured memory footprint of the most recently inspected query index."),
    # --- storage layer (store/container.py) ---------------------------
    "repro_store_open_containers": (GAUGE, "Containers and mapped blobs currently open."),
    "repro_store_bytes_mapped": (GAUGE, "Bytes currently mmap-ped by open containers/blobs (in-memory images excluded)."),
    "repro_store_bytes_parsed_total": (COUNTER, "Section bytes actually parsed into Python values (lazy materialisation)."),
    "repro_store_sections_materialized_total": (COUNTER, "Sections materialised on first touch, by section name."),
    # --- delta overlay (delta/overlay.py, delta/persist.py) -----------
    "repro_delta_appends_total": (COUNTER, "DELTA records durably appended."),
    "repro_delta_append_seconds": (HISTOGRAM, "Wall time of one durable delta append."),
    "repro_delta_compactions_total": (COUNTER, "Full re-encodes folding a DELTA chain into a fresh base."),
    "repro_delta_compact_seconds": (HISTOGRAM, "Wall time of one compaction re-encode."),
    "repro_delta_records": (GAUGE, "DELTA records trailing the base after the last append/compact."),
    "repro_delta_net_ops": (GAUGE, "Net overlay edits after the last overlay build/extend."),
    "repro_delta_ratio": (GAUGE, "|delta| / base facts after the last ratio computation."),
    "repro_delta_compaction_headroom": (GAUGE, "Distance from the current delta ratio to the compaction trigger."),
    "repro_delta_overlay_extends_total": (COUNTER, "Overlay generations composed (OverlayIndex.extend / construction)."),
    "repro_delta_contested_scans_total": (COUNTER, "Deletion-contested is_alias fallbacks that scanned a base row."),
    # --- serve layer (serve/service.py, stats.py) ---------------------
    "repro_serve_queries_total": (COUNTER, "Queries served, by service instance and kind."),
    "repro_serve_batched_queries_total": (COUNTER, "Queries served through the batch APIs."),
    "repro_serve_latency_seconds": (HISTOGRAM, "Per-query service latency (batch calls contribute the per-query average)."),
    "repro_serve_cache_hits_total": (COUNTER, "Result-cache hits, by service instance."),
    "repro_serve_cache_misses_total": (COUNTER, "Result-cache misses, by service instance."),
    "repro_serve_slow_queries_total": (COUNTER, "Queries exceeding the slow-query threshold."),
    # --- result cache (serve/cache.py) --------------------------------
    "repro_cache_evictions_total": (COUNTER, "LRU result-cache capacity evictions."),
    "repro_cache_invalidated_total": (COUNTER, "Result-cache entries dropped by targeted invalidation."),
    # --- daemon (daemon/server.py) ------------------------------------
    "repro_daemon_connections_total": (COUNTER, "Binary-protocol connections accepted by the daemon."),
    "repro_daemon_open_connections": (GAUGE, "Binary-protocol connections currently open."),
    "repro_daemon_requests_total": (COUNTER, "Daemon request frames answered, by op and response status."),
    "repro_daemon_request_seconds": (HISTOGRAM, "Wall time from frame receipt to response body, by op."),
    "repro_daemon_queries_total": (COUNTER, "Individual Table 1 queries answered over the wire (a batch frame counts each query)."),
    "repro_daemon_rejected_total": (COUNTER, "Request frames refused by admission control (OVERLOADED)."),
    "repro_daemon_coalesced_total": (COUNTER, "Query frames answered by joining an identical in-flight computation."),
    "repro_daemon_protocol_errors_total": (COUNTER, "Malformed frames, bad lengths, and mid-frame disconnects."),
    "repro_daemon_inflight_requests": (GAUGE, "Request frames currently executing or awaiting an executor thread."),
    "repro_daemon_worker_info": (GAUGE, "1 for the serving daemon process, labelled by pre-fork worker slot (slot 0 = single-process)."),
    # --- tracing (obs/tracing.py) -------------------------------------
    "repro_trace_span_seconds": (HISTOGRAM, "Span durations recorded while tracing is enabled, by span name."),
    # --- flight recorder (obs/flight.py) ------------------------------
    "repro_flight_events_total": (COUNTER, "Flight-recorder events captured, by event kind."),
}


def metric_type(name: str) -> str:
    """The catalogued type of ``name`` (``KeyError`` for unknown families)."""
    return CATALOGUE[name][0]


def metric_help(name: str) -> str:
    return CATALOGUE[name][1]
