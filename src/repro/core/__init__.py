"""Pestrie core: the staged encoder, persistence, and queries."""

from .builder import ORDER_CHOICES, build_pestrie, resolve_order
from .decoder import CorruptFileError, PestriePayload, decode_bytes, detect_format, load_payload
from .encoder import ABSENT, DEFAULT_VERSION
from .ioutil import atomic_write
from .hub import (
    hub_degrees,
    identity_order,
    partition_objective,
    random_order,
    simple_degrees,
)
from .named import NamedIndex, stem_of
from .trie import StandardTrie, lemma_3_holds
from .intervals import assign_intervals, contains, cross_edge_interval, group_interval
from .pipeline import encode, index_from_bytes, load_index, persist
from .query import PestrieIndex
from .reachability import pointed_by, points_to, verify_theorem_1, xi_reachable_groups
from .segment_tree import Rect
from .stages import (
    ENCODE_STAGES,
    BuildContext,
    BuildReport,
    ProcessExecutor,
    SerialExecutor,
    Stage,
    StageReport,
    make_executor,
    run_pipeline,
    run_stages,
)
from .structure import CrossEdge, Group, Pestrie

__all__ = [
    "ABSENT",
    "DEFAULT_VERSION",
    "ENCODE_STAGES",
    "ORDER_CHOICES",
    "BuildContext",
    "BuildReport",
    "CorruptFileError",
    "CrossEdge",
    "Group",
    "NamedIndex",
    "StandardTrie",
    "Pestrie",
    "PestrieIndex",
    "PestriePayload",
    "ProcessExecutor",
    "Rect",
    "SerialExecutor",
    "Stage",
    "StageReport",
    "assign_intervals",
    "atomic_write",
    "build_pestrie",
    "contains",
    "cross_edge_interval",
    "decode_bytes",
    "detect_format",
    "encode",
    "group_interval",
    "hub_degrees",
    "lemma_3_holds",
    "stem_of",
    "identity_order",
    "index_from_bytes",
    "load_index",
    "load_payload",
    "make_executor",
    "partition_objective",
    "persist",
    "pointed_by",
    "points_to",
    "random_order",
    "resolve_order",
    "run_pipeline",
    "run_stages",
    "simple_degrees",
    "verify_theorem_1",
    "xi_reachable_groups",
]
