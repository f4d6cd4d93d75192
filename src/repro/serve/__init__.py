"""repro.serve — the high-throughput alias query service layer.

Production front-end over one decoded Pestrie index: a thread-safe
instrumented service with batch APIs and a bounded LRU result cache
(:class:`AliasService`), and the statistics objects behind the
``repro-pestrie serve-stats`` CLI subcommand.
"""

from .cache import LRUCache
from .service import AliasService, AliasSnapshot
from .stats import QUERY_KINDS, ServiceStats, StatsSnapshot

__all__ = [
    "AliasService",
    "AliasSnapshot",
    "LRUCache",
    "QUERY_KINDS",
    "ServiceStats",
    "StatsSnapshot",
]
