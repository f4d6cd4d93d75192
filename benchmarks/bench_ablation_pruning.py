"""Ablation — Theorem 2 redundant-rectangle pruning on/off.

The paper prunes every rectangle whose corner is covered by a stored one
(Theorem 2 guarantees full enclosure).  This ablation quantifies what the
encoder's dedup stage buys: stored-rectangle count and the resulting
persistent file size when every candidate is kept instead.
"""

from repro.bench.harness import Table, geometric_mean
from repro.core.stages import ENCODE_STAGES, BuildContext, run_stages

from conftest import write_result


def _sizes(matrix):
    """Kept and pruned counts, and the file size with and without pruning."""
    ctx = BuildContext(matrix, order="hub")
    run_stages(ctx, ENCODE_STAGES[:6])  # normalize → … → dedup
    kept = ctx.artifacts["kept"]
    run_stages(ctx, ENCODE_STAGES[6:])
    size_pruned = len(ctx.artifacts["payload"])
    # Pruning off: store every candidate, as if no corner test had run.
    ctx.put("kept", bytearray(b"\x01" * len(kept)))
    run_stages(ctx, ENCODE_STAGES[6:])
    return sum(kept), len(kept) - sum(kept), size_pruned, len(ctx.artifacts["payload"])


def test_ablation_pruning(encoded_suite, benchmark):
    table = Table(
        title="Ablation — Theorem 2 pruning",
        columns=("Program", "kept rects", "pruned rects", "size pruned (KB)",
                 "size unpruned (KB)", "size saving"),
    )
    savings = []
    for name in ("samba", "php", "antlr", "chart", "fop"):
        matrix = encoded_suite[name].subject.matrix
        kept, pruned, size_pruned, size_unpruned = _sizes(matrix)
        saving = size_unpruned / size_pruned
        savings.append(saving)
        table.add(
            Program=name,
            **{
                "kept rects": kept,
                "pruned rects": pruned,
                "size pruned (KB)": size_pruned / 1024,
                "size unpruned (KB)": size_unpruned / 1024,
                "size saving": saving,
            },
        )
    table.note = "geomean size saving from pruning: %.2fx" % geometric_mean(savings)
    write_result("ablation_pruning.txt", table.render())

    # Pruning must never enlarge the file.
    assert all(saving >= 1.0 for saving in savings)

    matrix = encoded_suite["antlr"].subject.matrix
    benchmark.pedantic(
        lambda: run_stages(BuildContext(matrix), ENCODE_STAGES[:6]),
        rounds=2,
        iterations=1,
    )
