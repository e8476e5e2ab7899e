"""The cost-based optimizer: top-down enumeration with branch-and-bound.

Implements the Section 5 techniques:

* **Expensive-predicate ordering** (Section 5.1) — stacked filters are
  normalized into ascending *rank* order, rank = (selectivity − 1) / cost
  per tuple [Hellerstein & Stonebraker's predicate migration]: cheap or
  highly selective predicates run first.
* **UDF/join interleaving** — filters directly above a join may be pushed
  to the side their columns come from; both placements are enumerated and
  costed (pushing an expensive, unselective UDF below a reducing join is
  the classic loss the System-R push-all heuristic suffers).
* **Join commutation** — build on the smaller side.
* **UDA pre-aggregation pushdown** (Section 5.2) — composable aggregates
  grow a partial (combiner) instance below the repartitioning exchange and
  a final instance above it; the alternative is costed, not assumed.
* **Branch-and-bound** — candidates are costed against the best complete
  plan so far; estimation aborts as soon as a partial cost exceeds it.
* **Recursive-query costing** (Section 5.3) lives in
  :mod:`repro.optimizer.cost` and is exercised through every estimate of a
  plan containing a fixpoint.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.common.errors import PlanValidationError
from repro.common.schema import Field, SQLType
from repro.operators.expressions import ColumnRef
from repro.optimizer.cost import CostEstimator, EstimationPruned
from repro.optimizer.exchanges import add_exchanges
from repro.optimizer.logical import (
    LAggCall,
    LFilter,
    LGroupBy,
    LJoin,
    LNode,
    LProject,
    LRehash,
)
from repro.optimizer.stats import StatisticsCatalog

_MAX_ALTERNATIVES_PER_NODE = 12
_MAX_CANDIDATES = 128


@dataclass
class OptimizerReport:
    """What the optimizer did, for explain output and tests."""

    candidates_considered: int = 0
    candidates_pruned: int = 0
    best_cost: float = float("inf")
    chosen: Optional[LNode] = None


class Optimizer:
    """Optimizes logical plans against a cluster's statistics."""

    def __init__(self, cluster: Cluster,
                 stats: Optional[StatisticsCatalog] = None):
        self.cluster = cluster
        self.stats = stats or StatisticsCatalog(cluster.catalog)
        self.estimator = CostEstimator(
            self.stats, cluster.cost, len(cluster.alive_workers()))

    # ------------------------------------------------------------------
    def optimize(self, root: LNode) -> LNode:
        plan, _ = self.optimize_with_report(root)
        return plan

    def optimize_with_report(self, root: LNode):
        root = normalize_filter_ranks(root, self.estimator)
        candidates = self._alternatives(root)
        report = OptimizerReport()
        best: Optional[LNode] = None
        best_cost = float("inf")
        for candidate in candidates[:_MAX_CANDIDATES]:
            report.candidates_considered += 1
            with_exchanges = add_exchanges(candidate)
            try:
                cost = self.estimator.plan_cost(
                    with_exchanges,
                    budget=best_cost if best is not None else None)
            except EstimationPruned:
                report.candidates_pruned += 1
                continue
            if cost >= best_cost:
                report.candidates_pruned += 1
                continue
            best, best_cost = with_exchanges, cost
        if best is None:
            raise PlanValidationError("optimizer produced no viable plan")
        report.best_cost = best_cost
        report.chosen = best
        return best, report

    # ------------------------------------------------------------------
    def _alternatives(self, node: LNode) -> List[LNode]:
        """Bottom-up enumeration of bounded transformation combinations."""
        child_lists = [self._alternatives(c) for c in node.children]
        results: List[LNode] = []
        for combo in itertools.islice(itertools.product(*child_lists), 32):
            rebuilt = node.with_children(list(combo)) if combo else node
            results.append(rebuilt)
            results.extend(self._local_transforms(rebuilt))
            if len(results) >= _MAX_ALTERNATIVES_PER_NODE:
                break
        return results[:_MAX_ALTERNATIVES_PER_NODE]

    def _local_transforms(self, node: LNode) -> List[LNode]:
        out: List[LNode] = []
        if isinstance(node, LJoin) and node.handler_factory is None \
                and node.condition is not None:
            out.append(node.swapped())
        if isinstance(node, LFilter) and isinstance(node.children[0], LJoin):
            pushed = push_filter_into_join(node)
            out.extend(pushed)
        if isinstance(node, LGroupBy):
            pre = push_pre_aggregation(node)
            if pre is not None:
                out.append(pre)
            both_sides = push_preagg_through_multiplicative_join(node)
            if both_sides is not None:
                out.append(both_sides)
        return out


# ---------------------------------------------------------------------------
# Transformations
# ---------------------------------------------------------------------------

def normalize_filter_ranks(node: LNode, estimator: CostEstimator) -> LNode:
    """Reorder stacked filters by ascending rank (Section 5.1).

    rank(p) = (selectivity(p) - 1) / cost_per_tuple(p); the most negative
    rank (cheap and selective) runs first, i.e. lowest in the stack.
    """
    children = [normalize_filter_ranks(c, estimator) for c in node.children]
    node = node.with_children(children) if children else node
    if not isinstance(node, LFilter):
        return node
    stack: List[LFilter] = []
    cursor: LNode = node
    while isinstance(cursor, LFilter):
        stack.append(cursor)
        cursor = cursor.children[0]
    if len(stack) < 2:
        return node

    def rank(f: LFilter) -> float:
        sel = estimator.selectivity_of(f)
        cost = max(estimator.predicate_cost(f), 1e-12)
        return (sel - 1.0) / cost

    # Ascending rank runs first: the head of the ordered list sits at the
    # bottom of the rebuilt stack (wrapped first).
    ordered = sorted(stack, key=rank)
    rebuilt = cursor
    for f in ordered:
        rebuilt = LFilter(rebuilt, f.predicate, f.selectivity,
                          f.cost_per_tuple)
    return rebuilt


def push_filter_into_join(node: LFilter) -> List[LNode]:
    """Push a filter to whichever join input supplies all its columns."""
    join = node.children[0]
    assert isinstance(join, LJoin)
    if join.handler_factory is not None:
        return []
    columns = node.predicate.columns()
    out: List[LNode] = []
    if columns and all(join.left.schema.has(c) for c in columns):
        filtered_left = LFilter(join.left, node.predicate,
                                node.selectivity, node.cost_per_tuple)
        out.append(join.with_children([filtered_left, join.right]))
    if columns and all(join.right.schema.has(c) for c in columns):
        filtered_right = LFilter(join.right, node.predicate,
                                 node.selectivity, node.cost_per_tuple)
        out.append(join.with_children([join.left, filtered_right]))
    return out


def push_pre_aggregation(node: LGroupBy) -> Optional[LNode]:
    """Grow a combiner below the exchange (Section 5.2).

    Requires every aggregate to be composable with a pre-aggregator; the
    heuristic of the paper — at most one pre-aggregation per UDA, pushed
    maximally — is satisfied by construction (one partial, directly below
    the rehash this group-by needs).
    """
    if node.pre_aggregated:
        return None
    if isinstance(node.children[0], (LRehash,)):
        return None
    partial_aggs: List[LAggCall] = []
    final_aggs: List[LAggCall] = []
    for i, agg in enumerate(node.aggs):
        template = agg.aggregator_factory()
        if not getattr(template, "composable", False):
            return None
        pre = template.pre_aggregator()
        partial_factory = (
            (lambda f=agg.aggregator_factory: f().pre_aggregator() or f())
            if pre is not None else agg.aggregator_factory)
        partial_col = f"_p{i}"
        partial_aggs.append(LAggCall(
            f"{agg.name}_partial", partial_factory, agg.args,
            out_fields=[Field(partial_col, SQLType.ANY)],
            composable=True))
        final_factory = (lambda f=agg.aggregator_factory:
                         f().final_aggregator())
        final_aggs.append(LAggCall(
            agg.name, final_factory, [ColumnRef(partial_col)],
            out_fields=list(agg.out_fields), composable=agg.composable))
    partial = LGroupBy(node.children[0], node.keys, partial_aggs,
                       pre_aggregated=True,
                       clear_each_stratum=node.clear_each_stratum)
    # The keys lead the partial's output, so the final group-by keys on
    # its first columns.  Exchange placement puts the rehash (a gather,
    # for a keyless aggregate) between the two wherever the partials need it.
    return LGroupBy(partial, range(len(node.keys)), final_aggs,
                    clear_each_stratum=node.clear_each_stratum)


def push_preagg_through_multiplicative_join(node: LGroupBy
                                            ) -> Optional[LNode]:
    """Pre-aggregate *both* inputs of a non key-FK join (Section 5.2).

    "There is a certain special case where we might wish to perform
    pre-aggregation on both inputs to a join that is not on a key-foreign
    key relationship.  Here we would ordinarily have m tuples for each
    group from the left input join with n tuples from the group on the
    right — but if both are pre-aggregated, we will under-estimate the
    final result.  If the user specifies an optional multiply function,
    REX will perform this pre-aggregation, and will compensate for the
    under-estimate by multiplying the inputs by the cardinality of the
    group on the opposite join input."

    Applies when the group-by sits directly on a plain equi-join and groups
    exactly by the join key, every aggregate is composable *and* supplies a
    ``multiply`` function, and each aggregate's argument columns come
    entirely from one join side.  The rewrite:

        GroupBy[k; agg(x)](R ⋈_k S)
          ->  Project[k, multiply(partial, count_other)](
                GroupBy[k; agg(x), count(*)](R)
                  ⋈_k GroupBy[k; count(*)](S))

    The count(*) additions are "handled transparently by the optimizer",
    exactly as the paper says.
    """
    from repro.operators.expressions import FuncCall, TupleField
    from repro.udf.base import udf as make_udf
    from repro.udf.builtins import Count

    if node.pre_aggregated or len(node.keys) != 1:
        return None
    join = node.children[0]
    if (not isinstance(join, LJoin) or join.handler_factory is not None
            or join.condition is None):
        return None
    lpos, rpos = join.condition
    # The group key must be the join key (either side's column of it).
    if node.keys[0] not in (lpos, len(join.left.schema) + rpos):
        return None

    # Classify each aggregate by the side its argument columns live on.
    sides = []
    for agg in node.aggs:
        template = agg.aggregator_factory()
        multiply = getattr(template, "multiply", None)
        if not getattr(template, "composable", False) or multiply is None:
            return None
        if template.pre_aggregator() is not None:
            # Pair-state partials (avg) need bespoke multiply handling;
            # keep to plain value partials here.
            return None
        columns = [c for a in agg.args for c in a.columns()]
        if not columns:
            return None
        if all(join.left.schema.has(c) for c in columns):
            sides.append(0)
        elif all(join.right.schema.has(c) for c in columns):
            sides.append(1)
        else:
            return None

    def side_groupby(child: LNode, key_pos: int, aggs_here):
        calls = list(aggs_here)
        calls.append(LAggCall("count", lambda: Count(count_star=True), [],
                              out_fields=[Field(f"_cnt_{id(child)}",
                                                SQLType.INTEGER)],
                              composable=True))
        return LGroupBy(child, [key_pos], calls)

    left_aggs = []
    right_aggs = []
    partial_cols = []
    for i, (agg, side) in enumerate(zip(node.aggs, sides)):
        col = f"_m{i}"
        partial_cols.append((col, agg, side))
        call = LAggCall(f"{agg.name}_side", agg.aggregator_factory,
                        agg.args, out_fields=[Field(col, SQLType.ANY)],
                        composable=True)
        (left_aggs if side == 0 else right_aggs).append(call)

    left_gb = side_groupby(join.left, lpos, left_aggs)
    right_gb = side_groupby(join.right, rpos, right_aggs)
    left_cnt = left_gb.schema[len(left_gb.schema) - 1].name
    right_cnt = right_gb.schema[len(right_gb.schema) - 1].name
    # Each side group-by's key leads its output.
    joined = LJoin(left_gb, right_gb, (0, 0))

    items = []
    key_field = node.schema[0]
    items.append((ColumnRef(left_gb.schema[0].qualified), key_field))
    for col, agg, side in partial_cols:
        template = agg.aggregator_factory()
        multiply = template.multiply
        opposite_cnt = right_cnt if side == 0 else left_cnt

        @make_udf(name=f"multiply_{col}", out_types=["Double"])
        def compensate(value, n, _m=multiply):
            return _m(value, n)

        items.append((FuncCall(compensate,
                               [ColumnRef(col), ColumnRef(opposite_cnt)]),
                      agg.out_fields[0]))
    return LProject(joined, items)
