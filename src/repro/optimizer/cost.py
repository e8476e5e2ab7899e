"""Cost estimation over logical plans (Section 5).

Every node gets an :class:`Estimate` — output cardinality, average row
width, and a cumulative :class:`~repro.cluster.costs.ResourceUsage` vector.
Plan cost is the overlap-combined wall time of the per-worker share of that
vector ("the lowest value that allows both subplans to execute in parallel
while the combined utilization for any resource remains under 100%").

Recursive queries are costed by the paper's iterative scheme (Section 5.3):
optimize the base case, feed its output estimate into the recursive case,
re-estimate, and repeat — capping each iteration's input at the previous
stage's size and stopping at an estimated-empty Δ or a cap, because "our
focus is on recursive algorithms that converge".  Cardinalities and costs
are additionally clamped to the previous step's values to prevent the
divergence the paper warns about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.costs import CostModel, ResourceUsage
from repro.common.errors import PlanError
from repro.operators.expressions import FuncCall
from repro.optimizer.logical import (
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
from repro.optimizer.stats import StatisticsCatalog

#: Default selectivity for predicates we cannot analyze (System R's 1/3).
_DEFAULT_SELECTIVITY = 1.0 / 3.0
#: Convergence shrink factor assumed per recursive iteration.
_DELTA_SHRINK = 0.7
_MAX_ESTIMATED_ITERATIONS = 30


class EstimationPruned(Exception):
    """Raised mid-estimation when a partial plan already exceeds the
    branch-and-bound budget (Section 5's top-down pruning)."""


@dataclass
class Estimate:
    rows: float
    row_bytes: float
    usage: ResourceUsage

    def copy(self) -> "Estimate":
        return Estimate(self.rows, self.row_bytes, self.usage.copy())


class CostEstimator:
    """Bottom-up estimation with a feedback-cardinality context."""

    def __init__(self, stats: StatisticsCatalog, cost_model: CostModel,
                 num_workers: int):
        self.stats = stats
        self.cost = cost_model
        self.workers = max(1, num_workers)
        self._budget: Optional[float] = None

    # -- public ----------------------------------------------------------
    def plan_cost(self, node: LNode, budget: Optional[float] = None) -> float:
        """Estimated wall-clock seconds for the whole plan.

        With a ``budget``, estimation raises :class:`EstimationPruned` as
        soon as any partial plan's lower-bound cost exceeds it — the
        branch-and-bound pruning of Section 5.
        """
        self._budget = budget
        try:
            est = self.estimate(node)
        finally:
            self._budget = None
        # "The optimizer uses, for each operator, the lowest combined cost
        # estimate across all nodes: this in essence estimates the
        # worst-case completion time" — with heterogeneous calibration the
        # slowest node's relative CPU speed bounds the barrier.
        slowest = min((self.cost.cpu_factor(n) for n in
                       range(self.workers)), default=1.0)
        per_worker = ResourceUsage(
            cpu=est.usage.cpu / self.workers / max(slowest, 1e-9),
            disk=est.usage.disk / self.workers,
            net_in=est.usage.net_in / self.workers,
            net_out=est.usage.net_out / self.workers,
        )
        return per_worker.combined_time(self.cost.overlap)

    def estimate(self, node: LNode,
                 feedback: Optional[Dict[str, Estimate]] = None) -> Estimate:
        est = self._estimate(node, feedback)
        if self._budget is not None:
            # A subtree's peak usage divided across workers lower-bounds
            # the final wall time (more operators only add cost).
            lower_bound = est.usage.peak() / self.workers
            if lower_bound > self._budget:
                raise EstimationPruned()
        return est

    def _estimate(self, node: LNode,
                  feedback: Optional[Dict[str, Estimate]] = None) -> Estimate:
        feedback = feedback or {}
        if isinstance(node, LScan):
            return self._scan(node)
        if isinstance(node, LFeedback):
            est = feedback.get(node.cte_name)
            if est is None:
                est = Estimate(rows=1.0, row_bytes=24.0,
                               usage=ResourceUsage())
            est = est.copy()
            # Feedback deposit + re-injection costs a tuple's worth of CPU.
            est.usage.cpu += est.rows * self.cost.cpu_tuple_cost
            return est
        if isinstance(node, LFilter):
            return self._filter(node, feedback)
        if isinstance(node, LProject):
            child = self.estimate(node.children[0], feedback)
            child.usage.cpu += child.rows * self.cost.cpu_tuple_cost
            child.row_bytes = max(8.0, child.row_bytes * 0.9)
            return child
        if isinstance(node, LApply):
            child = self.estimate(node.children[0], feedback)
            child.usage.cpu += (child.rows
                                * self.cost.udf_cost_per_tuple(batched=True))
            # Productivity: table-valued functions fan out.
            child.rows *= max(getattr(node.udf, "selectivity", 1.0), 0.0)
            return child
        if isinstance(node, LRehash):
            return self._rehash(node, feedback)
        if isinstance(node, LJoin):
            return self._join(node, feedback)
        if isinstance(node, LGroupBy):
            return self._groupby(node, feedback)
        if isinstance(node, LFixpoint):
            return self._fixpoint(node)
        raise PlanError(f"cannot estimate {type(node).__name__}")

    # -- per-operator rules ------------------------------------------------
    def _scan(self, node: LScan) -> Estimate:
        ts = self.stats.table(node.table)
        usage = ResourceUsage()
        usage.disk += ts.rows * ts.avg_row_bytes / self.cost.disk_bandwidth
        usage.cpu += ts.rows * self.cost.cpu_tuple_cost
        return Estimate(rows=float(ts.rows), row_bytes=ts.avg_row_bytes,
                        usage=usage)

    def selectivity_of(self, node: LFilter) -> float:
        if node.selectivity is not None:
            return node.selectivity
        if isinstance(node.predicate, FuncCall):
            return getattr(node.predicate.udf, "selectivity",
                           _DEFAULT_SELECTIVITY)
        return _DEFAULT_SELECTIVITY

    def predicate_cost(self, node: LFilter) -> float:
        """Per-tuple evaluation cost (UDF predicates pay invocation).

        Zero-argument cost-hint shapes (Section 5.1) scale the default UDC
        invocation cost."""
        if node.cost_per_tuple is not None:
            return node.cost_per_tuple
        extra = 0.0
        for expr in _walk_expr(node.predicate):
            if isinstance(expr, FuncCall):
                hint = getattr(expr.udf, "cost_hint", None)
                scale = hint() if callable(hint) and _arity0(hint) else 1.0
                extra += self.cost.udf_cost_per_tuple(batched=True) * scale
        return self.cost.cpu_tuple_cost + extra

    def _filter(self, node: LFilter,
                feedback: Dict[str, Estimate]) -> Estimate:
        child = self.estimate(node.children[0], feedback)
        child.usage.cpu += child.rows * self.predicate_cost(node)
        child.rows *= self.selectivity_of(node)
        return child

    def _rehash(self, node: LRehash,
                feedback: Dict[str, Estimate]) -> Estimate:
        child = self.estimate(node.children[0], feedback)
        fanout = self.workers if node.broadcast else 1
        remote_fraction = (self.workers - 1) / self.workers
        nbytes = child.rows * child.row_bytes * fanout * remote_fraction
        child.usage.net_out += nbytes / self.cost.net_bandwidth
        child.usage.net_in += nbytes / self.cost.net_bandwidth
        child.usage.cpu += child.rows * (self.cost.cpu_tuple_cost
                                         + self.cost.hash_op_cost)
        if node.broadcast:
            child.rows *= self.workers
        return child

    def _join(self, node: LJoin, feedback: Dict[str, Estimate]) -> Estimate:
        left = self.estimate(node.left, feedback)
        right = self.estimate(node.right, feedback)
        usage = ResourceUsage()
        usage.add(left.usage)
        usage.add(right.usage)
        per_tuple = self.cost.cpu_tuple_cost + self.cost.hash_op_cost
        usage.cpu += (left.rows + right.rows) * per_tuple
        if node.handler_factory is not None:
            usage.cpu += right.rows * self.cost.udf_cost_per_tuple()
            # A handler fans each mutable delta out across the matching
            # immutable bucket (e.g. one diff per out-edge).
            fanout = max(1.0, left.rows / max(right.rows, 1.0))
            rows = right.rows * fanout
            width = 16.0
        elif node.condition is None:
            rows = left.rows * right.rows
            width = left.row_bytes + right.row_bytes
        else:
            lpos, rpos = node.condition
            l_distinct = self._distinct(node.left, lpos, left.rows)
            r_distinct = self._distinct(node.right, rpos, right.rows)
            rows = left.rows * right.rows / max(l_distinct, r_distinct, 1.0)
            width = left.row_bytes + right.row_bytes
        return Estimate(rows=rows, row_bytes=width, usage=usage)

    def _distinct(self, node: LNode, pos: int, rows: float) -> float:
        if isinstance(node, LScan):
            name = node.schema[pos].name
            return float(self.stats.table(node.table).distinct_of(name))
        return max(1.0, rows)

    def _groupby(self, node: LGroupBy,
                 feedback: Dict[str, Estimate]) -> Estimate:
        child = self.estimate(node.children[0], feedback)
        usage = child.usage
        per_tuple = self.cost.cpu_tuple_cost + self.cost.hash_op_cost
        usage.cpu += child.rows * per_tuple
        if node.keys:
            key_distinct = self._distinct(node.children[0], node.keys[0],
                                          child.rows)
            groups = min(child.rows, float(key_distinct))
        else:
            groups = 1.0
        if node.pre_aggregated:
            # A combiner on each worker holds up to `groups` per worker.
            groups = min(child.rows, groups * self.workers)
        return Estimate(rows=groups, row_bytes=child.row_bytes,
                        usage=usage)

    def _fixpoint(self, node: LFixpoint) -> Estimate:
        base = self.estimate(node.children[0])
        usage = base.usage.copy()
        feedback_est = Estimate(rows=base.rows, row_bytes=base.row_bytes,
                                usage=ResourceUsage())
        prev_rows = base.rows
        prev_cost = math.inf
        total_rows = base.rows
        for _ in range(_MAX_ESTIMATED_ITERATIONS):
            step = self.estimate(node.children[1],
                                 {node.cte_name: feedback_est})
            # Clamp: cardinality never grows across iterations (converging
            # algorithms + duplicate elimination), cost never exceeds the
            # previous step (divergence guard, Section 5.3).
            out_rows = min(step.rows * _DELTA_SHRINK, prev_rows)
            step_cost = min(step.usage.total(), prev_cost)
            scale = (step_cost / step.usage.total()
                     if step.usage.total() > 0 else 0.0)
            usage.cpu += step.usage.cpu * scale
            usage.disk += step.usage.disk * scale
            usage.net_in += step.usage.net_in * scale
            usage.net_out += step.usage.net_out * scale
            if out_rows < 1.0:
                break
            prev_rows = out_rows
            prev_cost = step_cost
            total_rows = max(total_rows, out_rows)
            feedback_est = Estimate(rows=out_rows, row_bytes=base.row_bytes,
                                    usage=ResourceUsage())
        return Estimate(rows=total_rows, row_bytes=base.row_bytes,
                        usage=usage)


def _walk_expr(expr):
    yield expr
    for attr in ("left", "right", "base"):
        child = getattr(expr, attr, None)
        if child is not None:
            yield from _walk_expr(child)
    for child in getattr(expr, "operands", ()) or ():
        yield from _walk_expr(child)
    for child in getattr(expr, "args", ()) or ():
        yield from _walk_expr(child)


def _arity0(fn) -> bool:
    try:
        import inspect

        return len(inspect.signature(fn).parameters) == 0
    except (TypeError, ValueError):
        return False
