"""Query runtime: physical plans and the stratified distributed executor."""

from repro.runtime.executor import (
    ExecOptions,
    FailureSpec,
    QueryExecutor,
    QueryResult,
)
from repro.runtime.plan import (
    PApply,
    PCollect,
    PFeedback,
    PFilter,
    PFixpoint,
    PFused,
    PGroupBy,
    PJoin,
    PNode,
    PProject,
    PRehash,
    PScan,
    PUnion,
    PhysicalPlan,
)

__all__ = [
    "QueryExecutor",
    "QueryResult",
    "ExecOptions",
    "FailureSpec",
    "PhysicalPlan",
    "PNode",
    "PScan",
    "PFeedback",
    "PFilter",
    "PProject",
    "PApply",
    "PJoin",
    "PGroupBy",
    "PRehash",
    "PUnion",
    "PFixpoint",
    "PFused",
    "PCollect",
]
