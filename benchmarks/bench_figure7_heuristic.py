"""Figure 7 — hub-degree heuristic vs random object order (Pes_rand).

Paper: against the hub-ordered PesP, the random-order Pes_rand takes 3.2×
longer to decode, 1.8× longer on IsAlias, 5.3× longer to construct, and
produces 5.9× larger files — all because random order creates many more
cross edges and small rectangles.
"""

import os

from repro.bench.harness import Table, geometric_mean, sample_pairs, timed
from repro.core.builder import build_pestrie
from repro.core.pipeline import load_index, persist

from conftest import write_result

PAIR_LIMIT = 6_000

#: One random order per subject, fixed for reproducibility.
RAND_SEED = 9


def test_figure7_hub_vs_random_order(encoded_suite, benchmark, artefact_dir):
    table = Table(
        title="Figure 7 — Pes_rand / PesP ratios (higher = hub order wins)",
        columns=("Program", "size ratio", "construct ratio", "decode ratio",
                 "IsAlias ratio", "cross edges rand", "cross edges hub"),
        note="Paper averages: size 5.9x, construction 5.3x, decode 3.2x, IsAlias 1.8x.",
    )
    size_ratios, construct_ratios, decode_ratios, query_ratios = [], [], [], []
    for encoded in encoded_suite.values():
        matrix = encoded.subject.matrix
        rand_path = os.path.join(artefact_dir, encoded.name + ".rand.pes")
        rand_construct = timed(
            lambda: persist(matrix, rand_path, order="random", seed=RAND_SEED)
        )
        rand_decode = timed(lambda: load_index(rand_path))
        rand_index = rand_decode.result

        pairs = sample_pairs(encoded.subject.base_pointers, PAIR_LIMIT)
        hub_query = timed(
            lambda: sum(1 for p, q in pairs if encoded.pestrie.is_alias(p, q))
        )
        rand_query = timed(lambda: sum(1 for p, q in pairs if rand_index.is_alias(p, q)))
        assert hub_query.result == rand_query.result, "orders must agree semantically"

        hub_edges = build_pestrie(matrix, order="hub").stats()["cross_edges"]
        rand_edges = build_pestrie(matrix, order="random", seed=RAND_SEED).stats()[
            "cross_edges"
        ]

        size_ratio = rand_construct.result / encoded.pes_size
        construct_ratio = rand_construct.seconds / max(encoded.pes_construct_seconds, 1e-9)
        decode_ratio = rand_decode.seconds / max(encoded.pes_decode_seconds, 1e-9)
        query_ratio = rand_query.seconds / max(hub_query.seconds, 1e-9)
        size_ratios.append(size_ratio)
        construct_ratios.append(construct_ratio)
        decode_ratios.append(decode_ratio)
        query_ratios.append(query_ratio)
        table.add(
            Program=encoded.name,
            **{
                "size ratio": size_ratio,
                "construct ratio": construct_ratio,
                "decode ratio": decode_ratio,
                "IsAlias ratio": query_ratio,
                "cross edges rand": rand_edges,
                "cross edges hub": hub_edges,
            },
        )
    summary = (
        "geomeans here: size %.2fx, construct %.2fx, decode %.2fx, IsAlias %.2fx"
        % (
            geometric_mean(size_ratios),
            geometric_mean(construct_ratios),
            geometric_mean(decode_ratios),
            geometric_mean(query_ratios),
        )
    )
    table.note = (table.note or "") + "\n" + summary
    write_result("figure7.txt", table.render())

    # The paper's core heuristic claim: random order persists bigger files.
    assert geometric_mean(size_ratios) > 1.0

    sample = encoded_suite["php"]
    benchmark.pedantic(
        lambda: build_pestrie(sample.subject.matrix, order="hub"),
        rounds=2,
        iterations=1,
    )
