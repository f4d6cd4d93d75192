"""repro.obs — process-wide telemetry: metrics, tracing, diagnostics.

Five parts, all thread-safe and shared by every layer of the pipeline:

* a **metrics registry** (:func:`get_registry`) of counters, gauges, and
  log-bucket histograms, exportable as JSON and Prometheus text
  exposition — the ``repro-pestrie metrics`` subcommand;
* **span tracing** (:data:`trace`) producing a hierarchical phase-timing
  tree over the matrix → builder → encoder → persist → decode → overlay →
  service pipeline — the ``repro-pestrie trace`` subcommand — with
  :meth:`Tracer.current`/:meth:`Tracer.propagate` carrying span context
  across thread-pool boundaries;
* **per-query cost accounting** (:func:`measure`/:class:`QueryCost`):
  a thread-local context the store/delta/serve layers feed, attributing
  bytes parsed, sections materialised, cache outcomes, replay depth, and
  the MVCC epoch to one query — ``repro-pestrie query --explain``;
* the **flight recorder** (:func:`get_flight_recorder`): an always-on
  bounded ring of structured events dumped on demand, on ``SIGUSR2``,
  and on daemon crash;
* **diagnostics**: the bounded :class:`SlowQueryLog` behind
  :class:`~repro.serve.AliasService` (entries carry epoch + cost), the
  sampling profiler behind ``/debug/profile``, and structure-health
  gauge helpers.

Telemetry observes; it never alters behaviour or persisted bytes.  The
whole layer can be switched off with :func:`set_enabled` (metrics) and is
off by default for tracing; see ``docs/OBSERVABILITY.md`` for the metric
catalogue, label conventions, and measured overhead.
"""

from .catalogue import CATALOGUE
from .cost import (
    QueryCost,
    add_parsed_bytes,
    add_section,
    current_cost,
    measure,
    note_cache_hit,
    note_cache_miss,
    note_epoch,
    note_replay_depth,
)
from .diagnostics import (
    DEFAULT_SLOW_CAPACITY,
    DEFAULT_SLOW_THRESHOLD,
    SlowQuery,
    SlowQueryLog,
    record_delta_health,
    record_index_footprint,
)
from .flight import (
    DEFAULT_FLIGHT_CAPACITY,
    FlightRecorder,
    get_flight_recorder,
    install_signal_dump,
)
from .profiler import MAX_PROFILE_SECONDS, sample_profile
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    log_buckets,
    set_enabled,
)
from .tracing import Span, Tracer, trace

__all__ = [
    "CATALOGUE",
    "Counter",
    "DEFAULT_BUCKETS",
    "DEFAULT_FLIGHT_CAPACITY",
    "DEFAULT_SLOW_CAPACITY",
    "DEFAULT_SLOW_THRESHOLD",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MAX_PROFILE_SECONDS",
    "MetricsRegistry",
    "QueryCost",
    "SlowQuery",
    "SlowQueryLog",
    "Span",
    "Tracer",
    "add_parsed_bytes",
    "add_section",
    "current_cost",
    "get_flight_recorder",
    "get_registry",
    "install_signal_dump",
    "log_buckets",
    "measure",
    "note_cache_hit",
    "note_cache_miss",
    "note_epoch",
    "note_replay_depth",
    "record_delta_health",
    "record_index_footprint",
    "sample_profile",
    "set_enabled",
    "trace",
]
