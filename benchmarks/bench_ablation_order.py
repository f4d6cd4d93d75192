"""Ablation — object-order heuristics (justifying Section 5.2's choice).

The paper argues for the Definition 1 hub degree over the naive pointed-by
count via Theorem 3 (uneven partitions maximise internal pairs) and
Comer's trie heuristic.  This ablation measures all four orders on every
subject: cross-edge count, internal pairs, stored rectangles, and file
size — quantities the paper reasons about but does not tabulate.
"""

from repro.bench.harness import Table, geometric_mean
from repro.core.hub import partition_objective
from repro.core.stages import ENCODE_STAGES, BuildContext, run_stages

from conftest import write_result

ORDERS = ("hub", "simple", "identity", "random")


def _measure(matrix, order):
    ctx = BuildContext(matrix, order=order, seed=1)
    run_stages(ctx, ENCODE_STAGES)
    pestrie = ctx.artifacts["pestrie"]
    stats = pestrie.stats()
    return {
        "cross_edges": stats["cross_edges"],
        "internal_pairs": stats["internal_pairs"],
        "rectangles": sum(ctx.artifacts["kept"]),
        "size": len(ctx.artifacts["payload"]),
        "objective": partition_objective(matrix, pestrie.object_order),
    }


def test_ablation_object_orders(encoded_suite, benchmark):
    table = Table(
        title="Ablation — object order vs encoding quality",
        columns=("Program", "Order", "cross edges", "internal pairs", "rectangles",
                 "size (KB)", "OPP objective"),
        note="hub = Definition 1; simple = pointed-by count; random seed fixed.",
    )
    per_order_sizes = {order: [] for order in ORDERS}
    per_order_objectives = {order: [] for order in ORDERS}
    subjects = ("postgreSQL", "antlr", "luindex", "sunflow")
    for name in subjects:
        matrix = encoded_suite[name].subject.matrix
        for order in ORDERS:
            result = _measure(matrix, order)
            per_order_sizes[order].append(result["size"])
            per_order_objectives[order].append(result["objective"])
            table.add(
                Program=name,
                Order=order,
                **{
                    "cross edges": result["cross_edges"],
                    "internal pairs": result["internal_pairs"],
                    "rectangles": result["rectangles"],
                    "size (KB)": result["size"] / 1024,
                    "OPP objective": result["objective"],
                },
            )
    write_result("ablation_order.txt", table.render())

    # Shape: the hub order must produce smaller files than random order
    # (the core Section 5.2 claim), subject by subject.
    for hub_size, rand_size in zip(per_order_sizes["hub"], per_order_sizes["random"]):
        assert hub_size <= rand_size * 1.1

    # Theorem 3 direction: hub ordering should win the OPP objective more
    # often than random does.
    hub_wins = sum(
        1
        for hub, rand in zip(per_order_objectives["hub"], per_order_objectives["random"])
        if hub >= rand
    )
    assert hub_wins >= len(subjects) // 2

    matrix = encoded_suite["antlr"].subject.matrix
    benchmark.pedantic(lambda: _measure(matrix, "hub"), rounds=2, iterations=1)
