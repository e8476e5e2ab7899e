"""Seeded buggy-operator corpus for the runtime sanitizer (REX200-series).

Each case plants one specific bug class from the paper's runtime
invariants into an otherwise-working query and runs it end-to-end under
``sanitize='full'`` (or, for the schedule race, under the determinism
checker).  The acceptance criterion is that every case is caught by a
*distinct* REX2xx check:

* ``rex200`` — a delta-aware applyFunction emits DELETE annotations for
  rows that were never inserted (an illegal annotation, Definition 1).
* ``rex201`` — a Sum UDA keeps a hidden call counter on ``self`` and
  silently drops every 7th δ-update; the incremental state diverges from
  independent re-aggregation of the same delta stream.
* ``rex203`` — a rehash sender "forgets" to flush one destination's
  buffer when stratum punctuation passes, leaving delta residue across
  the barrier.
* ``rex204`` — checkpoint replicas are corrupted in place between
  replication and a node failure; recovery restores rows that no longer
  match their pre-failure fingerprints.
* ``rex205`` — a first-arrival-wins UDA makes the query result a
  function of message delivery order; the schedule perturbation checker
  flags the race and minimizes it to the feeding exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.cluster import Cluster
from repro.common.deltas import Delta, DeltaOp
from repro.datasets import dbpedia_like
from repro.net.network import Message
from repro.operators.exchange import RehashSender
from repro.runtime import (
    ExecOptions,
    PApply,
    PFeedback,
    PFixpoint,
    PGroupBy,
    PJoin,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.runtime.executor import FailureSpec
from repro.udf.aggregates import AggregateSpec, Aggregator
from repro.udf.builtins import Sum

GRAPH_SCHEMA = ["srcId:Integer", "destId:Integer"]


def _graph_cluster(n_vertices: int = 60, degree: float = 4.0,
                   nodes: int = 4, seed: int = 13) -> Cluster:
    cluster = Cluster(nodes)
    cluster.create_table("graph", GRAPH_SCHEMA,
                         dbpedia_like(n_vertices, avg_out_degree=degree,
                                      seed=seed),
                         "srcId", replication=2)
    return cluster


# ---------------------------------------------------------------------------
# Buggy operators
# ---------------------------------------------------------------------------

class FlakySum(Sum):
    """Drops every 7th δ-update it folds, counting calls on ``self``.

    The bug class: a UDA whose behaviour depends on hidden per-instance
    state rather than purely on ``(state, delta)``.  The sanitizer's
    independent replay of the same delta stream lands on different call
    counts, so the replayed aggregate diverges from the live one
    (REX201) — exactly the kind of handler no static check can see.
    """

    name = "flaky_sum"

    def __init__(self):
        super().__init__()
        self._calls = 0

    def agg_state(self, state, delta, value, old_value=None):
        if delta.op is DeltaOp.UPDATE:
            self._calls += 1
            if self._calls % 7 == 0:
                return state  # silently dropped
        return super().agg_state(state, delta, value, old_value)


class FirstValue(Aggregator):
    """First-arrival-wins: the canonical order-dependent UDA (REX205)."""

    name = "first_value"

    def init_state(self):
        return {"value": None, "seen": False}

    def agg_state(self, state, delta, value, old_value=None):
        if delta.op is DeltaOp.INSERT and not state["seen"]:
            state["value"] = value
            state["seen"] = True
        return state

    def agg_result(self, state):
        return state["value"]


def _bogus_delete_udf(delta: Delta) -> List[Delta]:
    """Delta-aware applyFunction forwarding each insert *plus* a DELETE
    annotation for a row that never existed (illegal, Definition 1)."""
    if delta.op is DeltaOp.INSERT:
        return [delta, Delta(DeltaOp.DELETE, (delta.row[0], -999))]
    return [delta]


def _broken_on_punctuation(self, punct, port: int = 0) -> None:
    """RehashSender.on_punctuation that skips one destination's flush."""
    for dst in sorted(self._buffers)[:-1]:
        self._flush(dst)
    for dst in self.ctx.snapshot.live_nodes():
        self.ctx.cluster.network.send(Message(
            src=self.ctx.node_id, dst=dst,
            exchange=self.exchange, punct=punct,
        ))


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def _pagerank_plan_with_sum(sum_factory: Callable[[], Aggregator],
                            tol: float = 0.01) -> PhysicalPlan:
    """The Figure 1 PageRank plan with the Sum aggregator swappable."""
    from repro.algorithms.pagerank import (PRAgg, PRFixpointHandler,
                                           _project_damping)

    src_key = lambda r: (r[0],)
    recursive = PProject.over(
        PGroupBy(
            key_fn=src_key,
            specs_factory=lambda: [AggregateSpec(sum_factory(),
                                                 output="prsum")],
            children=(PRehash(key_fn=src_key, children=(
                PJoin(left_key=src_key, right_key=src_key,
                      handler_factory=lambda: PRAgg(tol), handler_side=1,
                      children=(PScan("graph"), PFeedback())),
            )),),
        ),
        _project_damping,
    )
    base = PProject.over(PScan("graph"), lambda r: (r[0], 1.0))
    return PhysicalPlan(PFixpoint(
        key_fn=src_key, semantics="keyed",
        while_handler_factory=lambda: PRFixpointHandler(tol),
        children=(base, recursive),
    ))


def _first_value_plan() -> PhysicalPlan:
    group_key = lambda r: (r[0],)
    return PhysicalPlan(PGroupBy(
        key_fn=group_key,
        specs_factory=lambda: [AggregateSpec(
            FirstValue(), arg=lambda r: r[1], output="first")],
        children=(PRehash.by(PScan("obs"), group_key),),
    ))


# ---------------------------------------------------------------------------
# Cases
# ---------------------------------------------------------------------------

@dataclass
class Case:
    name: str
    code: str                 # the distinct REX2xx code that must fire
    run: Callable[[], object]  # -> DiagnosticReport


def _run_rex200():
    """Bogus DELETE annotations flow into a group-by's state."""
    cluster = Cluster(4)
    rows = [(i % 8, float(i)) for i in range(64)]
    cluster.create_table("items", ["k:Integer", "v:Double"], rows, "k")
    key = lambda r: (r[0],)
    plan = PhysicalPlan(PGroupBy(
        key_fn=key,
        specs_factory=lambda: [AggregateSpec(
            Sum(), arg=lambda r: r[1], output="total")],
        children=(PRehash.by(
            PApply(udf_factory=lambda: _bogus_delete_udf,
                   arg_fn=lambda r: r, delta_aware=True,
                   children=(PScan("items"),)),
            key),),
    ))
    result = QueryExecutor(cluster, ExecOptions(sanitize="full")).execute(plan)
    return result.sanitizer.report


def _run_rex201():
    """PageRank with the hidden-self-state FlakySum.

    absint is off here on purpose: the polarity proofs downgrade shadow
    replay to assertion mode on proven groups, and this case pins the
    replay machinery itself — the maximal-checking configuration is
    sanitize='full' + absint=False.
    """
    cluster = _graph_cluster()
    plan = _pagerank_plan_with_sum(FlakySum)
    opts = ExecOptions(sanitize="full", max_strata=60, absint=False)
    result = QueryExecutor(cluster, opts).execute(plan)
    return result.sanitizer.report


def _run_rex203():
    """PageRank with a sender that leaves one buffer unflushed."""
    cluster = _graph_cluster()
    plan = _pagerank_plan_with_sum(Sum)
    orig = RehashSender.on_punctuation
    RehashSender.on_punctuation = _broken_on_punctuation
    try:
        opts = ExecOptions(sanitize="full", max_strata=60)
        result = QueryExecutor(cluster, opts).execute(plan)
    finally:
        RehashSender.on_punctuation = orig
    return result.sanitizer.report


def _run_rex204():
    """PageRank with checkpoint replicas corrupted before a failure."""
    cluster = _graph_cluster()
    plan = _pagerank_plan_with_sum(Sum)

    def corrupt(stratum: int, executor) -> bool:
        if stratum == 9:
            # Poison every replica entry in place.  Keys re-replicated by
            # later strata heal, so this must land near convergence (the
            # Δ-set at stratum 10 is ~2 of 60 keys) for the poison to
            # survive until the failure.
            for wp in executor.worker_plans.values():
                for key, row in list(wp.checkpoint_entries.items()):
                    wp.checkpoint_entries[key] = (row[0], row[1] + 1000.0)
        return False

    opts = ExecOptions(sanitize="full", max_strata=60,
                       termination=corrupt,
                       failure=FailureSpec(after_stratum=10))
    result = QueryExecutor(cluster, opts).execute(plan)
    return result.sanitizer.report


def _run_rex205():
    """First-arrival-wins UDA under the schedule perturbation checker."""
    from repro.analysis.determinism import check_determinism

    rows = [(i % 10, i) for i in range(200)]

    def run_query(perturb):
        cluster = Cluster(4)
        cluster.create_table("obs", ["g:Integer", "v:Integer"], rows, "v")
        opts = ExecOptions(perturb=perturb)
        return QueryExecutor(cluster, opts).execute(_first_value_plan())

    outcome = check_determinism(run_query, perturbations=3, seed=0)
    return outcome.report


CASES = [
    Case("illegal-delete-annotation", "REX200", _run_rex200),
    Case("hidden-state-uda", "REX201", _run_rex201),
    Case("unflushed-sender-buffer", "REX203", _run_rex203),
    Case("corrupted-checkpoint", "REX204", _run_rex204),
    Case("order-dependent-uda", "REX205", _run_rex205),
]
