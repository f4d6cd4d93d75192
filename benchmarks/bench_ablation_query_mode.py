"""Ablation — query-structure choice: ptList slabs vs one segment tree.

Section 4 builds per-column rectangle lists (``ptList``) — stored as flat
slab columns that share one entry run per range of columns with the same
stabbing set (:class:`~repro.core.flat.FlatIndex`) — trading memory for
O(log R) point queries.  The construction-time segment tree could answer
``IsAlias`` instead at O(log² n) while storing every rectangle exactly
once (:class:`~repro.core.segment_tree.SegmentIndex`).  The paper keeps
the lists and reports their memory in Table 7; this ablation measures both
sides of that trade on our subjects.

The like-for-like memory unit is *stored rectangle entries*: the ptList
holds one per slab a rectangle (or its mirror) stabs, the tree one per
rectangle.  The byte columns are reported too, but they are not the same
kind of byte: ptList bytes are packed ``uint32`` columns, segment bytes are
Python heap (nodes, lists, ``Rect`` objects).
"""

from repro.bench.harness import Table, geometric_mean, sample_pairs, timed
from repro.core.decoder import load_payload
from repro.core.pipeline import load_index
from repro.core.segment_tree import SegmentIndex

from conftest import write_result

PAIR_LIMIT = 8_000


def test_query_mode_trade(encoded_suite, benchmark):
    table = Table(
        title="Ablation — ptList vs segment-tree query structure",
        columns=("Program", "entries ptList", "entries segment",
                 "mem ptList (MB)", "mem segment (MB)",
                 "IsAlias ptList (s)", "IsAlias segment (s)",
                 "build ptList (s)", "build segment (s)"),
        note="ptList: O(log R) queries, one entry per stabbed slab (packed columns); "
             "segment: O(log^2 n), one entry per rectangle (Python heap).",
    )
    entry_ratios = []
    time_ratios = []
    for name in ("samba", "postgreSQL", "antlr", "chart", "tomcat", "fop"):
        encoded = encoded_suite[name]
        ptlist_build = timed(lambda: load_index(encoded.pes_path))
        segment_build = timed(lambda: SegmentIndex(load_payload(encoded.pes_path)))
        ptlist = ptlist_build.result
        segment = segment_build.result

        pairs = sample_pairs(encoded.subject.base_pointers, PAIR_LIMIT)
        ptlist_time = timed(lambda: sum(1 for p, q in pairs if ptlist.is_alias(p, q)))
        segment_time = timed(lambda: sum(1 for p, q in pairs if segment.is_alias(p, q)))
        assert ptlist_time.result == segment_time.result

        entry_ratios.append(
            ptlist.stored_entries() / max(segment.stored_entries(), 1)
        )
        time_ratios.append(segment_time.seconds / max(ptlist_time.seconds, 1e-9))
        table.add(
            Program=name,
            **{
                "entries ptList": ptlist.stored_entries(),
                "entries segment": segment.stored_entries(),
                "mem ptList (MB)": ptlist.memory_footprint() / 1e6,
                "mem segment (MB)": segment.memory_footprint() / 1e6,
                "IsAlias ptList (s)": ptlist_time.seconds,
                "IsAlias segment (s)": segment_time.seconds,
                "build ptList (s)": ptlist_build.seconds,
                "build segment (s)": segment_build.seconds,
            },
        )
    table.note = (table.note or "") + (
        "\ngeomeans: ptList/segment stored entries %.2fx, segment/ptList IsAlias time %.2fx"
        % (geometric_mean(entry_ratios), geometric_mean(time_ratios))
    )
    write_result("ablation_query_mode.txt", table.render())

    encoded = encoded_suite["antlr"]
    segment = SegmentIndex(load_payload(encoded.pes_path))
    pairs = sample_pairs(encoded.subject.base_pointers, 2000)
    benchmark(lambda: sum(1 for p, q in pairs if segment.is_alias(p, q)))
