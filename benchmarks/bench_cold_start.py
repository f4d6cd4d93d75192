"""Cold start: open-to-first-query latency and peak memory, eager vs lazy.

The storage layer's pitch is that opening a persisted file costs the header
validation, and a query pays only for the structures it touches.  This
bench measures, on one synthetic program sized past the largest Table 2
subject, four cold-start scenarios against the same ``PESTRIE3`` file:

* ``eager``  — ``load_index(path)``: full decode + every query column
  derived, then the first ``is_alias``;
* ``lazy, same-ES query`` — ``load_index(path, lazy=True)`` answering the
  same question: two pointers in one equivalence set resolve from the
  timestamp columns alone, so the rectangle columns are never derived.
  This is the gated scenario — the lazy answer must arrive before the
  eager path finishes decoding;
* ``lazy, cross-ES query`` — the lazy worst case: the first query needs
  the slab columns, so it derives the same columns the eager load builds
  (parity within noise, reported but not gated);
* ``lazy open only`` — header + table-of-contents + CRC validation alone,
  the cost paid by ``info``-style tools that never query;
* ``flat, same/cross-ES query`` — the same two questions against a
  ``PESTRIE4`` encoding of the same program, answered by the zero-copy
  :class:`~repro.core.flat.FlatIndex` straight from the mapped sections.
  The cross-ES case is the headline: where the ``PESTRIE3`` lazy path must
  derive the slab columns for its first cross-set answer, the ``PESTRIE4``
  file already holds them, so the gate requires it to come in under a
  quarter of the deriving cross-ES time (and in single-digit milliseconds
  at full scale).

Latency is min-of-repeats with the scenarios interleaved, so scheduler
drift hits every side equally; peak memory is ``tracemalloc`` over one
fresh run of each scenario.  ``make bench-smoke`` runs this gate in CI.
"""

import os
import time

from repro.bench.harness import Table, traced_memory
from repro.bench.synthetic import SyntheticSpec, synthesize
from repro.core.pipeline import encode, load_index

from conftest import write_result

SMOKE = bool(os.environ.get("BENCH_SMOKE"))
N_POINTERS = 600 if SMOKE else 4000
N_OBJECTS = 150 if SMOKE else 800
REPEATS = 5 if SMOKE else 7


def _equivalent_pair(matrix):
    """Two distinct pointers with identical points-to sets.

    Identical rows merge into one equivalence set during construction, so
    the pair shares a PES and ``is_alias`` resolves it from the timestamp
    sections alone.  The synthetic generator clusters pointers into classes
    (Figure 1's 18.5% distinct-set ratio), so such a pair always exists.
    """
    first_with = {}
    for p in range(matrix.n_pointers):
        if not matrix.rows[p]:
            continue
        key = frozenset(matrix.rows[p])
        if key in first_with:
            return first_with[key], p
        first_with[key] = p
    raise AssertionError("synthetic program has no equivalent pointer pair")


def _cross_pair(matrix):
    """The first and last tracked pointers — almost surely different sets."""
    tracked = [p for p in range(matrix.n_pointers) if matrix.rows[p]]
    return tracked[0], tracked[-1]


def test_cold_start(tmp_path):
    matrix = synthesize(SyntheticSpec(n_pointers=N_POINTERS, n_objects=N_OBJECTS,
                                      seed=21))
    path = str(tmp_path / "cold.pes")
    data = encode(matrix)
    with open(path, "wb") as stream:
        stream.write(data)
    flat_path = str(tmp_path / "cold_v4.pes")
    flat_data = encode(matrix, version=4)
    with open(flat_path, "wb") as stream:
        stream.write(flat_data)
    same_p, same_q = _equivalent_pair(matrix)
    cross_p, cross_q = _cross_pair(matrix)

    def eager():
        return load_index(path).is_alias(same_p, same_q)

    def lazy_same_es():
        index = load_index(path, lazy=True)
        try:
            return index.is_alias(same_p, same_q)
        finally:
            index.close()

    def lazy_cross_es():
        index = load_index(path, lazy=True)
        try:
            return index.is_alias(cross_p, cross_q)
        finally:
            index.close()

    def lazy_open_only():
        load_index(path, lazy=True).close()
        return None

    def flat_same_es():
        index = load_index(flat_path, lazy=True)
        try:
            return index.is_alias(same_p, same_q)
        finally:
            index.close()

    def flat_cross_es():
        index = load_index(flat_path, lazy=True)
        try:
            return index.is_alias(cross_p, cross_q)
        finally:
            index.close()

    scenarios = (("eager decode + first is_alias", eager),
                 ("lazy open + same-ES is_alias", lazy_same_es),
                 ("lazy open + cross-ES is_alias", lazy_cross_es),
                 ("lazy open only", lazy_open_only),
                 ("flat v4 open + same-ES is_alias", flat_same_es),
                 ("flat v4 open + cross-ES is_alias", flat_cross_es))

    # Interleave the repeats so clock drift cannot favour one scenario.
    latency = {label: float("inf") for label, _ in scenarios}
    answers = {}
    for _ in range(REPEATS):
        for label, runner in scenarios:
            start = time.perf_counter()
            answers[label] = runner()
            latency[label] = min(latency[label], time.perf_counter() - start)

    peaks = {}
    for label, runner in scenarios:
        with traced_memory() as stats:
            runner()
        peaks[label] = stats["peak_bytes"]

    table = Table(
        title="Unified storage — cold start, %d pointers / %d objects (%d bytes)"
              % (N_POINTERS, N_OBJECTS, len(data)),
        columns=("Scenario", "open-to-answer ms", "peak KiB"),
        note="min of %d interleaved repeats; peak is tracemalloc over one "
             "fresh run (decoded structures included, mmap pages excluded)."
             % REPEATS,
    )
    for label, _ in scenarios:
        table.add(**{"Scenario": label,
                     "open-to-answer ms": 1e3 * latency[label],
                     "peak KiB": peaks[label] / 1024.0})
    write_result("cold_start.txt", table.render())

    # Same file, same question, same answer (and the pair really is an alias).
    assert answers["eager decode + first is_alias"] is True
    assert answers["lazy open + same-ES is_alias"] is True
    assert answers["flat v4 open + same-ES is_alias"] is True
    eager_index = load_index(path)
    cross_answer = eager_index.is_alias(cross_p, cross_q)
    assert answers["lazy open + cross-ES is_alias"] == cross_answer
    assert answers["flat v4 open + cross-ES is_alias"] == cross_answer

    # The acceptance gate: the lazy open answers its first query long before
    # the eager path finishes decoding, and a query that needs only the
    # timestamp columns never pays for the slab columns (latency or memory).
    gated = latency["lazy open + same-ES is_alias"]
    baseline = latency["eager decode + first is_alias"]
    assert gated < baseline, latency
    assert latency["lazy open only"] < 0.1 * baseline, latency
    assert peaks["lazy open + same-ES is_alias"] < 0.5 * peaks["eager decode + first is_alias"], peaks
    assert peaks["lazy open only"] < 0.1 * peaks["eager decode + first is_alias"], peaks

    # The zero-copy gate: a v4 file's first *cross*-ES answer must not pay
    # for deriving the slab columns — under a quarter of the deriving lazy
    # path, single-digit milliseconds at full scale, and near-zero heap
    # (its query structure is the mapped file, not Python objects).
    flat_cross = latency["flat v4 open + cross-ES is_alias"]
    assert flat_cross < 0.25 * latency["lazy open + cross-ES is_alias"], latency
    if not SMOKE:
        assert flat_cross < 0.010, latency
    assert peaks["flat v4 open + cross-ES is_alias"] < 0.25 * peaks["eager decode + first is_alias"], peaks
