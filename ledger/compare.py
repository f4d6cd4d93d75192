"""``compare``: two sets of ledger runs, judged against the benchmark's bounds.

For every metric × workload it reports each set's median and spread
(inter-quartile distance over median).  A metric whose second-set median
is worse than the first's by more than its bound is ``regressed``; one
whose spread in either set exceeds its bound is ``unresolved``, because
such a set cannot tell a move from noise.  Runs are only comparable when
they measured the same inputs, so every (workload, seed) present in both
sets must carry identical fingerprints, and both sets must cover the same
seeds.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from .metrics import median, spread

Key = Tuple[str, str]  # (workload, metric)


def load_bounds(path: Path) -> Dict[str, Tuple[float, str]]:
    """``{metric: (bound, better)}`` from a BENCHMARK.json."""
    spec = json.loads(path.read_text())
    return {entry["name"]: (entry["bound"], entry["better"])
            for entry in spec["end_to_end"]}


def _fingerprints(runs: Sequence[dict]) -> Dict[Tuple[str, int], dict]:
    table = {}
    for run in runs:
        for name, record in run["workloads"].items():
            table[(name, record["seed"])] = record["fingerprints"]
    return table


def check_comparable(first: Sequence[dict], second: Sequence[dict]) -> List[str]:
    """Reasons the two sets measured different inputs (empty when comparable)."""
    reasons = []
    left, right = _fingerprints(first), _fingerprints(second)
    if set(left) != set(right):
        reasons.append("the sets cover different (workload, seed) pairs: %s vs %s"
                       % (sorted(left), sorted(right)))
    for key in sorted(set(left) & set(right)):
        if left[key] != right[key]:
            reasons.append("%s seed %d: fingerprints differ" % key)
    return reasons


def _samples(runs: Sequence[dict]) -> Dict[Key, List[float]]:
    samples: Dict[Key, List[float]] = {}
    for run in runs:
        for name, record in run["workloads"].items():
            for metric, entry in record["metrics"].items():
                samples.setdefault((name, metric), []).append(entry["value"])
    return samples


def compare(first: Sequence[dict], second: Sequence[dict],
            bounds: Dict[str, Tuple[float, str]]) -> List[dict]:
    """One row per metric × workload present in both sets."""
    left, right = _samples(first), _samples(second)
    rows = []
    for key in sorted(set(left) & set(right)):
        workload, metric = key
        a, b = median(left[key]), median(right[key])
        spread_a, spread_b = spread(left[key]), spread(right[key])
        row = {"workload": workload, "metric": metric, "median_a": a,
               "spread_a": spread_a, "median_b": b, "spread_b": spread_b}
        if metric not in bounds:
            row["status"] = "no bound"
        else:
            bound, better = bounds[metric]
            worse = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
            row.update(bound=bound, worse_by=worse)
            if max(spread_a, spread_b) > bound:
                row["status"] = "unresolved"
            elif worse > bound:
                row["status"] = "regressed"
            else:
                row["status"] = "ok"
        rows.append(row)
    return rows


def render(rows: Sequence[dict]) -> str:
    lines = ["%-13s %-20s %12s %7s %12s %7s %7s %7s  %s"
             % ("workload", "metric", "median A", "IQR A", "median B", "IQR B",
                "worse", "bound", "status")]
    for row in rows:
        bounded = "bound" in row
        lines.append("%-13s %-20s %12.6g %6.1f%% %12.6g %6.1f%% %7s %7s  %s" % (
            row["workload"], row["metric"], row["median_a"], 100 * row["spread_a"],
            row["median_b"], 100 * row["spread_b"],
            "%+.1f%%" % (100 * row["worse_by"]) if bounded else "-",
            "%.0f%%" % (100 * row["bound"]) if bounded else "-",
            row["status"]))
    return "\n".join(lines)
