"""Fully dynamic connectivity and 2-edge connectivity.

Two paired structures per index: a spanning forest with parent
pointers and subtree sizes (depth kept low by placement heuristics),
and a disjoint-set forest in which a vertex leaves its set by taking a
fresh record, so membership can change one vertex at a time.  Queries
are near-constant-time set lookups; updates are local tree surgery.
"""

from .connectivity import ConnectivityIndex
from .disjoint_set import DisjointSetForest
from .errors import (
    AlreadyRoot,
    DuplicateEdge,
    DynConnError,
    EdgeAbsent,
    HasReplacements,
    InvariantError,
    IsRoot,
    KTooLarge,
    MissingTimestamps,
    NotMember,
    NotRoot,
    OutOfRange,
    ParseError,
    RepUnderflow,
    SelfLoop,
)
from .graph import DynamicGraph
from .spanning_forest import DeleteKind, DeletionOutcome, InsertKind, SpanningForest
from .two_edge import SizedDisjointSet, TwoEdgeForest, TwoEdgeIndex
from .workload import (
    EdgeStream,
    FuzzOutcome,
    MetricsReport,
    WorkloadEvent,
    build_index,
    load_edge_file,
    parse_edge_stream,
    random_edge_stream,
    run_fuzz,
    run_random_cycle,
    run_sliding_window,
)

__version__ = "0.1.0"

__all__ = [
    "ConnectivityIndex",
    "TwoEdgeIndex",
    "DynamicGraph",
    "SpanningForest",
    "TwoEdgeForest",
    "DisjointSetForest",
    "SizedDisjointSet",
    "InsertKind",
    "DeleteKind",
    "DeletionOutcome",
    "EdgeStream",
    "WorkloadEvent",
    "MetricsReport",
    "FuzzOutcome",
    "parse_edge_stream",
    "load_edge_file",
    "random_edge_stream",
    "build_index",
    "run_random_cycle",
    "run_sliding_window",
    "run_fuzz",
    "DynConnError",
    "OutOfRange",
    "SelfLoop",
    "DuplicateEdge",
    "EdgeAbsent",
    "AlreadyRoot",
    "IsRoot",
    "NotRoot",
    "NotMember",
    "HasReplacements",
    "RepUnderflow",
    "InvariantError",
    "KTooLarge",
    "MissingTimestamps",
    "ParseError",
]
