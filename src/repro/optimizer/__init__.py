"""Cost-based query optimization (Section 5 of the paper)."""

from repro.optimizer.cost import (
    CostEstimator,
    Estimate,
    EstimationPruned,
)
from repro.optimizer.exchanges import add_exchanges
from repro.optimizer.explain import explain
from repro.optimizer.fusion import (
    FusionDecision,
    fuse_plan,
)
from repro.optimizer.logical import (
    LAggCall,
    LApply,
    LFeedback,
    LFilter,
    LFixpoint,
    LGroupBy,
    LJoin,
    LNode,
    LProject,
    LRehash,
    LScan,
)
from repro.optimizer.physical import lower
from repro.optimizer.planner import (
    Optimizer,
    OptimizerReport,
    normalize_filter_ranks,
    push_filter_into_join,
    push_pre_aggregation,
)
from repro.optimizer.stats import StatisticsCatalog, TableStats, analyze_table

__all__ = [
    "Optimizer",
    "OptimizerReport",
    "CostEstimator",
    "Estimate",
    "EstimationPruned",
    "StatisticsCatalog",
    "TableStats",
    "analyze_table",
    "add_exchanges",
    "explain",
    "lower",
    "FusionDecision",
    "fuse_plan",
    "normalize_filter_ranks",
    "push_filter_into_join",
    "push_pre_aggregation",
    "LNode",
    "LScan",
    "LFeedback",
    "LFilter",
    "LProject",
    "LApply",
    "LJoin",
    "LGroupBy",
    "LAggCall",
    "LFixpoint",
    "LRehash",
]
