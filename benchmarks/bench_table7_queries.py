"""Table 7 — query time, decode time, and query-structure memory.

Paper findings this bench checks at scale:

* IsAlias: PesP beats BitP (geomean 1.6×) and the demand-driven approach
  (2.9×); BitP is O(n) per probe, PesP O(log n);
* ListAliases: PesP ≈ BitP (both precomputed/output-linear), demand-driven
  is orders of magnitude slower even with its equivalence-class cache —
  123.6× in the paper's client;
* ListPointsTo: PesP is far faster than decoding a BDD (1609.6× in the
  paper);
* decoding a persistent file takes seconds, versus hours for the original
  points-to analysis.

The aliasing-pairs client (Section 7.1.1) is run exactly as described:
conflicting load/store base pointers, Method 1 (IsAlias enumeration)
against Method 2 (ListAliases).
"""

from repro.bench.harness import Table, geometric_mean, sample_pairs, timed
from repro.clients.race import (
    aliasing_pairs_bulk,
    aliasing_pairs_by_is_alias,
    aliasing_pairs_by_list_aliases,
)

from conftest import DECODE_RUNS, write_result

#: Workload caps so pure Python finishes; sampling is deterministic.
PAIR_LIMIT = 12_000
ALIAS_QUERY_LIMIT = 600
POINTS_TO_LIMIT = 1_500
BDD_POINTS_TO_LIMIT = 200


def _pair_workload(encoded):
    return sample_pairs(encoded.subject.base_pointers, PAIR_LIMIT)


def test_table7_isalias_and_listaliases(encoded_suite, benchmark):
    table = Table(
        title="Table 7a — IsAlias / ListAliases time (seconds per workload)",
        columns=("Program", "#pairs", "IsAlias PesP", "IsAlias BitP", "IsAlias Demand",
                 "#queries", "ListAliases PesP", "ListAliases BitP", "ListAliases Demand"),
        note="Paper geomeans: PesP 1.6x faster than BitP and 2.9x faster than Demand on IsAlias.",
    )
    ratios_bitp = []
    ratios_demand = []
    list_ratios_demand = []
    for encoded in encoded_suite.values():
        pairs = _pair_workload(encoded)
        queries = encoded.subject.base_pointers[:ALIAS_QUERY_LIMIT]

        def run_pairs(backend):
            def body():
                is_alias = backend.is_alias
                return sum(1 for p, q in pairs if is_alias(p, q))
            return timed(body)

        def run_aliases(backend):
            def body():
                list_aliases = backend.list_aliases
                return sum(len(list_aliases(p)) for p in queries)
            return timed(body)

        pes_pairs = run_pairs(encoded.pestrie)
        bitp_pairs = run_pairs(encoded.bitp)
        demand_pairs = run_pairs(encoded.demand)
        # Answers must agree before their times mean anything.
        assert pes_pairs.result == bitp_pairs.result == demand_pairs.result

        pes_list = run_aliases(encoded.pestrie)
        bitp_list = run_aliases(encoded.bitp)
        demand_list = run_aliases(encoded.demand)
        assert pes_list.result == bitp_list.result
        # The demand client is universe-restricted to base pointers (as in
        # the paper's race detector), so its counts are a subset; verify
        # one query in full.
        assert demand_list.result <= pes_list.result
        universe = set(encoded.subject.base_pointers)
        probe = queries[0]
        assert sorted(encoded.demand.list_aliases(probe)) == sorted(
            q for q in encoded.pestrie.list_aliases(probe) if q in universe
        )

        ratios_bitp.append(bitp_pairs.seconds / pes_pairs.seconds)
        ratios_demand.append(demand_pairs.seconds / pes_pairs.seconds)
        list_ratios_demand.append(demand_list.seconds / max(pes_list.seconds, 1e-9))

        table.add(
            Program=encoded.name,
            **{
                "#pairs": len(pairs),
                "IsAlias PesP": pes_pairs.seconds,
                "IsAlias BitP": bitp_pairs.seconds,
                "IsAlias Demand": demand_pairs.seconds,
                "#queries": len(queries),
                "ListAliases PesP": pes_list.seconds,
                "ListAliases BitP": bitp_list.seconds,
                "ListAliases Demand": demand_list.seconds,
            },
        )
    summary = (
        "geomean speedups over PesP-IsAlias: BitP %.2fx, Demand %.2fx; "
        "Demand-ListAliases/PesP-ListAliases %.1fx"
        % (
            geometric_mean(ratios_bitp),
            geometric_mean(ratios_demand),
            geometric_mean(list_ratios_demand),
        )
    )
    table.note = (table.note or "") + "\n" + summary + (
        "\nNote: at 1/100 scale points-to sets are tiny, so per-query set"
        " intersection is cheap and demand IsAlias can win; the crossover"
        " with set size is measured in bench_scaling_crossover.py."
    )
    write_result("table7_queries.txt", table.render())

    # The output-linear ListAliases advantage is scale-free and must hold.
    assert geometric_mean(list_ratios_demand) > 1.0

    sample = encoded_suite["antlr"]
    sample_pairs_list = _pair_workload(sample)[:2000]
    benchmark(
        lambda: sum(1 for p, q in sample_pairs_list if sample.pestrie.is_alias(p, q))
    )


def test_table7_listpointsto_and_bdd(encoded_suite, benchmark):
    table = Table(
        title="Table 7b — ListPointsTo time (seconds per workload)",
        columns=("Program", "#queries", "PesP", "BDD", "BDD/PesP"),
        note="Paper: BDD is 1609.6x slower on ListPointsTo (antlr: 43.2s vs 0.03s).",
    )
    ratios = []
    for encoded in encoded_suite.values():
        queries = encoded.subject.base_pointers[:POINTS_TO_LIMIT]
        pes = timed(lambda: [encoded.pestrie.list_points_to(p) for p in queries])
        if encoded.bdd is not None:
            bdd_queries = queries[:BDD_POINTS_TO_LIMIT]
            bdd = timed(lambda: [encoded.bdd.list_points_to(p) for p in bdd_queries])
            pes_same = timed(
                lambda: [encoded.pestrie.list_points_to(p) for p in bdd_queries]
            )
            for p in bdd_queries[:50]:
                assert sorted(encoded.pestrie.list_points_to(p)) == encoded.bdd.list_points_to(p)
            ratio = bdd.seconds / max(pes_same.seconds, 1e-9)
            ratios.append(ratio)
            table.add(
                Program=encoded.name,
                **{"#queries": len(queries), "PesP": pes.seconds, "BDD": bdd.seconds,
                   "BDD/PesP": ratio},
            )
        else:
            table.add(Program=encoded.name, **{"#queries": len(queries), "PesP": pes.seconds,
                                               "BDD": "-", "BDD/PesP": "-"})
    table.note = (table.note or "") + "\ngeomean BDD/PesP here: %.1fx" % geometric_mean(ratios)
    write_result("table7_pointsto.txt", table.render())
    assert geometric_mean(ratios) > 1.0, "decoding a BDD must cost more than Pestrie lookup"

    sample = encoded_suite["antlr"]
    base = sample.subject.base_pointers[:100]
    benchmark(lambda: [sample.pestrie.list_points_to(p) for p in base])


def test_table7_decode_time_and_memory(encoded_suite, benchmark):
    from repro.core.pipeline import load_index

    table = Table(
        title="Table 7c — persistence decoding time and query memory",
        columns=("Program", "Decode PesP (s)", "± PesP (s)", "Decode BitP (s)",
                 "± BitP (s)", "Memory PesP (MB)", "Memory BitP (MB)"),
        note="Decode: median of %d runs; ± is their max - min.\n"
             "Paper: decoding takes seconds while the original analyses took hours."
             % DECODE_RUNS,
    )
    for encoded in encoded_suite.values():
        table.add(
            Program=encoded.name,
            **{
                "Decode PesP (s)": encoded.pes_decode_seconds,
                "± PesP (s)": encoded.pes_decode_spread,
                "Decode BitP (s)": encoded.bitp_decode_seconds,
                "± BitP (s)": encoded.bitp_decode_spread,
                "Memory PesP (MB)": encoded.pestrie.memory_footprint() / 1e6,
                "Memory BitP (MB)": encoded.bitp.memory_footprint() / 1e6,
            },
        )
    write_result("table7_decode.txt", table.render())

    sample = encoded_suite["samba"]
    benchmark.pedantic(lambda: load_index(sample.pes_path), rounds=3, iterations=1)


def test_section_7_1_1_race_client(encoded_suite, benchmark):
    """The aliasing-pairs client: Method 1 (IsAlias) vs Method 2
    (ListAliases), both on the Pestrie index, plus the demand baseline."""
    table = Table(
        title="Section 7.1.1 — aliasing-pairs client for the race detector",
        columns=("Program", "#base ptrs", "Demand IsAlias (s)", "PesP IsAlias (s)",
                 "PesP ListAliases (s)", "PesP bulk (s)",
                 "ListAliases speedup vs demand"),
        note="Paper headline: ListAliases is 123.6x faster than the demand-driven pair generation.",
    )
    speedups = []
    for name in ("antlr", "luindex", "bloat", "chart"):
        encoded = encoded_suite[name]
        base = encoded.subject.base_pointers[:400]
        demand_t = timed(lambda: aliasing_pairs_by_is_alias(encoded.demand, base))
        pes_is = timed(lambda: aliasing_pairs_by_is_alias(encoded.pestrie, base))
        pes_list = timed(lambda: aliasing_pairs_by_list_aliases(encoded.pestrie, base))
        pes_bulk = timed(lambda: aliasing_pairs_bulk(encoded.pestrie, base))
        assert demand_t.result == pes_is.result == pes_list.result == pes_bulk.result
        speedup = demand_t.seconds / max(pes_list.seconds, 1e-9)
        speedups.append(speedup)
        table.add(
            Program=name,
            **{
                "#base ptrs": len(base),
                "Demand IsAlias (s)": demand_t.seconds,
                "PesP IsAlias (s)": pes_is.seconds,
                "PesP ListAliases (s)": pes_list.seconds,
                "PesP bulk (s)": pes_bulk.seconds,
                "ListAliases speedup vs demand": speedup,
            },
        )
    table.note = (table.note or "") + "\ngeomean speedup here: %.1fx" % geometric_mean(speedups)
    write_result("section711_client.txt", table.render())
    assert geometric_mean(speedups) > 1.0

    encoded = encoded_suite["antlr"]
    base = encoded.subject.base_pointers[:200]
    benchmark(lambda: aliasing_pairs_by_list_aliases(encoded.pestrie, base))
