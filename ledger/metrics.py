"""Metric names, units and directions, plus the order statistics they use.

The bounds live in ``BENCHMARK.json`` alone; ``test_ledger`` checks that
the names, units and directions there match the ones defined here.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, NamedTuple, Sequence, Tuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str


#: Reported by every workload's untraced run (README: "End-to-end metrics").
END_TO_END = (
    Metric("setup_s", "s", "lower"),
    Metric("peak_rss_mb", "MiB", "lower"),
    Metric("bytes_per_fact", "B/fact", "lower"),
    Metric("p50_ms", "ms", "lower"),
    Metric("throughput", "1/s", "higher"),
)

STAGES = ("normalize", "order", "trie", "intervals", "rectangles", "dedup",
          "sections", "assemble")
KINDS = ("is_alias", "list_points_to", "list_pointed_by", "list_aliases")

#: Reported by every workload's traced run (README: "Per-layer metrics").
PER_LAYER = (
    tuple(Metric("stages.%s_s%s" % (stage, suffix), "s", "lower")
          for suffix in ("", ".v3") for stage in STAGES)
    + (
        Metric("store.open_ms.v3", "ms", "lower"),
        Metric("store.open_ms.v4", "ms", "lower"),
        Metric("query.first_batch_ms.v3", "ms", "lower"),
        Metric("flat.first_batch_ms.v4", "ms", "lower"),
        Metric("query.same_es_ms.v3", "ms", "lower"),
        Metric("protocol.codec_us_per_frame", "us/frame", "lower"),
        Metric("protocol.response_bytes_per_frame", "B/frame", "lower"),
        Metric("daemon.server_ms", "ms", "lower"),
        Metric("daemon.wire_ms", "ms", "lower"),
        Metric("serve.self_us_per_query", "us/query", "lower"),
        Metric("serve.cache_hit_ratio", "fraction", "higher"),
    )
    + tuple(Metric("index.answer_us_per_query.%s" % kind, "us/query", "lower")
            for kind in KINDS)
    + (
        Metric("index.us_per_id.list_aliases", "us/id", "lower"),
        Metric("delta.overlay_us_per_query", "us/query", "lower"),
        Metric("delta.apply_ms", "ms", "lower"),
        Metric("delta.apply_p90_ms", "ms", "lower"),
        Metric("delta.extend_ms", "ms", "lower"),
        Metric("delta.invalidated_per_delta", "entries/delta", "lower"),
        Metric("delta.as_of_us", "us", "lower"),
        Metric("delta.as_of_rtt_ms", "ms", "lower"),
        Metric("obs.trace_overhead_frac", "fraction", "lower"),
    )
)

UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def windowed(samples: Sequence[Tuple[float, float, int]], began: float, ended: float,
             tail: float, notes: Dict[str, object], windows: int = 5) -> Dict[str, float]:
    """``p50_ms`` and ``throughput`` as medians over time windows.

    ``samples`` are ``(finish time, latency seconds, work units)``.  The
    measured phase is cut into ``windows`` equal spans; each metric is the
    median of its per-window values, so a burst of interference from
    outside the benchmark moves one window, not the result.  The
    ``tail``-th percentile goes to ``notes``: it is reported, not gated.
    """
    width = (ended - began) / windows
    buckets: List[List[Tuple[float, int]]] = [[] for _ in range(windows)]
    for finish, latency, work in samples:
        slot = min(max(int((finish - began) / width), 0), windows - 1)
        buckets[slot].append((latency, work))
    filled = [bucket for bucket in buckets if bucket]
    latencies = [[latency for latency, _ in bucket] for bucket in filled]
    notes.update(tail="p%g" % tail,
                 tail_ms=1e3 * median([percentile(values, tail) for values in latencies]))
    return {
        "p50_ms": 1e3 * median([median(values) for values in latencies]),
        "throughput": median([sum(work for _, work in bucket) / width
                              for bucket in buckets]),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")


def as_metrics(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """``{name: value}`` → the ``{name: {"value", "unit"}}`` result shape."""
    return {name: {"value": value, "unit": UNITS[name]}
            for name, value in values.items()}


def metric_lines(workload: str, values: Dict[str, float]) -> List[str]:
    """One ``name workload value unit`` line per metric."""
    return ["%s %s %.6g %s" % (name, workload, value, UNITS[name])
            for name, value in values.items()]
