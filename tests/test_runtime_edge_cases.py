"""Executor edge cases: empty inputs, unions, deletes, options."""

import pytest

from repro.algorithms import make_start_table, run_sssp, sssp_reference
from repro.cluster import Cluster
from repro.common import OptionsError, insert
from repro.runtime import (
    ExecOptions,
    FailureSpec,
    PFeedback,
    PFilter,
    PFixpoint,
    PGroupBy,
    PJoin,
    PProject,
    PRehash,
    PScan,
    PUnion,
    PhysicalPlan,
    QueryExecutor,
)
from repro.udf import AggregateSpec, Sum


class TestEmptyInputs:
    def test_empty_table_scan(self):
        cluster = Cluster(3)
        cluster.create_table("t", ["id:Integer"], [], "id")
        result = QueryExecutor(cluster).execute(PhysicalPlan(PScan("t")))
        assert result.rows == []
        assert result.metrics.num_iterations == 1

    def test_empty_aggregation(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["id:Integer", "v:Integer"], [], "id")
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (r[0],),
            specs_factory=lambda: [AggregateSpec(Sum(), arg=lambda r: r[1])],
            children=(PScan("t"),)))
        result = QueryExecutor(cluster).execute(plan)
        assert result.rows == []

    def test_filter_eliminating_everything(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["id:Integer"], [(1,), (2,)], "id")
        plan = PhysicalPlan(PFilter(predicate=lambda r: False,
                                    children=(PScan("t"),)))
        result = QueryExecutor(cluster).execute(plan)
        assert result.rows == []

    def test_recursion_with_empty_base_terminates_immediately(self):
        cluster = Cluster(2)
        cluster.create_table("edges", ["s:Integer", "d:Integer"],
                             [(0, 1)], "s")
        cluster.create_table("start", ["v:Integer"], [], "v")
        vkey = lambda r: (r[0],)
        plan = PhysicalPlan(PFixpoint(
            key_fn=vkey, semantics="set",
            children=(
                PRehash(key_fn=vkey, children=(PScan("start"),)),
                PRehash(key_fn=vkey, children=(
                    PProject(row_fn=lambda r: (r[2],), children=(
                        PJoin(left_key=vkey, right_key=vkey,
                              handler_side=None,
                              children=(PFeedback(), PScan("edges"))),
                    )),
                )),
            )))
        result = QueryExecutor(cluster).execute(plan)
        assert result.rows == []
        assert result.metrics.num_iterations == 1


class TestUnionPlans:
    def test_union_of_two_scans(self):
        cluster = Cluster(3)
        cluster.create_table("a", ["x:Integer"], [(1,), (2,)], "x")
        cluster.create_table("b", ["x:Integer"], [(2,), (3,)], "x")
        plan = PhysicalPlan(PUnion(children=(PScan("a"), PScan("b"))))
        result = QueryExecutor(cluster).execute(plan)
        assert sorted(result.rows) == [(1,), (2,), (2,), (3,)]  # bag union

    def test_union_feeding_aggregate(self):
        cluster = Cluster(2)
        cluster.create_table("a", ["x:Integer"], [(i,) for i in range(5)],
                             "x")
        cluster.create_table("b", ["x:Integer"], [(i,) for i in range(5)],
                             "x")
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (),
            specs_factory=lambda: [AggregateSpec(Sum(), arg=lambda r: r[0])],
            children=(PRehash(key_fn=lambda r: (), children=(
                PUnion(children=(PScan("a"), PScan("b"))),)),)))
        result = QueryExecutor(cluster).execute(plan)
        assert result.rows == [(20,)]


class TestOptions:
    @pytest.mark.parametrize("field, value", [
        ("recovery", "bogus"),
        ("feedback_mode", "partial"),
        ("sanitize", "some"),
        ("max_strata", 0),
        ("checkpoint_replication", -1),
        ("failure", FailureSpec(after_stratum=-1)),
    ])
    def test_bad_value_rejected_at_construction(self, field, value):
        """A bad value fails when the options are built, typed, before an
        executor or cluster sees it (``recovery="bogus"`` used to run
        incremental recovery)."""
        with pytest.raises(OptionsError, match=f"ExecOptions.{field}"):
            ExecOptions(**{field: value})

    def test_failure_on_unknown_node_rejected_before_stratum_0(self):
        """A crash of a node the cluster does not have fails typed before
        any stratum runs (it used to die with ``KeyError: 99`` after two
        strata), and the cluster answers the next query."""
        edges = [(i, i + 1) for i in range(12)] + [(0, 6), (3, 9)]
        cluster = Cluster(4)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId", replication=2)
        make_start_table(cluster, 0)
        with pytest.raises(OptionsError, match="node 99"):
            run_sssp(cluster, options=ExecOptions(
                failure=FailureSpec(after_stratum=2, node=99)))
        dists, metrics = run_sssp(cluster)
        assert {v: d for v, (_, d) in dists.items()} == {
            v: float(d) for v, d in sssp_reference(edges, 0).items()}
        assert metrics.num_iterations > 2

    def test_checkpointing_disabled_sends_less(self):
        cluster1 = Cluster(3)
        cluster1.create_table("edges", ["s:Integer", "d:Integer"],
                              [(i, i + 1) for i in range(20)], "s")
        cluster1.create_table("start", ["v:Integer"], [(0,)], "v")
        vkey = lambda r: (r[0],)

        def reach_plan():
            return PhysicalPlan(PFixpoint(
                key_fn=vkey, semantics="set",
                children=(
                    PRehash(key_fn=vkey, children=(PScan("start"),)),
                    PRehash(key_fn=vkey, children=(
                        PProject(row_fn=lambda r: (r[2],), children=(
                            PJoin(left_key=vkey, right_key=vkey,
                                  handler_side=None,
                                  children=(PFeedback(), PScan("edges"))),
                        )),
                    )),
                )))

        with_ckpt = QueryExecutor(cluster1).execute(reach_plan())
        cluster2 = Cluster(3)
        cluster2.create_table("edges", ["s:Integer", "d:Integer"],
                              [(i, i + 1) for i in range(20)], "s")
        cluster2.create_table("start", ["v:Integer"], [(0,)], "v")
        without = QueryExecutor(
            cluster2,
            ExecOptions(checkpoint_replication=1)).execute(reach_plan())
        assert sorted(with_ckpt.rows) == sorted(without.rows)
        assert without.metrics.total_bytes() < with_ckpt.metrics.total_bytes()

    def test_result_rows_metric(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["id:Integer"], [(i,) for i in range(7)],
                             "id")
        result = QueryExecutor(cluster).execute(PhysicalPlan(PScan("t")))
        assert result.metrics.result_rows == 7


class TestUnkeyedTableFailure:
    @pytest.mark.parametrize("victim", range(4))
    def test_incremental_recovery_fails_loudly_whichever_node_dies(
            self, victim):
        """Round-robin rows have no key, so ownership cannot be asked of
        the ring: recovery used to look up the owner of ``None``, and
        unless that happened to be the victim its rows silently vanished
        (wrong distances, no error)."""
        from repro.algorithms import make_start_table, run_sssp
        from repro.common.errors import RecoveryError
        from repro.datasets import dbpedia_like
        from repro.runtime import FailureSpec

        cluster = Cluster(4)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             dbpedia_like(120, avg_out_degree=4, seed=17))
        make_start_table(cluster, 0)
        options = ExecOptions(
            failure=FailureSpec(after_stratum=2, node=victim),
            recovery="incremental")
        with pytest.raises(RecoveryError, match="graph has no replicas"):
            run_sssp(cluster, options=options)


class TestDeletePropagationToSink:
    def test_groupby_delete_reaches_result(self):
        """A group emptied in a later stratum must vanish from the final
        result (deletion flows through collect to the requestor)."""
        from repro.common.deltas import Delta, DeltaOp
        from repro.runtime.plan import PNode
        import dataclasses

        # Simulate via direct operator wiring inside one worker.
        from repro.cluster import Cluster as C
        from repro.operators import ExecContext, GroupBy, Collect, ResultSink
        from repro.common.punctuation import Punctuation

        cluster = C(1)
        snapshot = cluster.ring.snapshot()
        ctx = ExecContext(cluster.worker(0), cluster=cluster,
                          snapshot=snapshot)
        sink = ResultSink(cluster.network, exchange="c", expected_workers=1)
        collect = Collect(exchange="c")
        gb = GroupBy(key_fn=lambda r: (r[0],),
                     specs=[AggregateSpec(Sum(), arg=lambda r: r[1])])
        collect.add_input(gb)
        gb.open(ctx)
        collect.open(ctx)

        gb.receive(insert(("a", 5)))
        gb.on_punctuation(Punctuation.end_of_stratum(0))
        from repro.common import delete

        gb.receive(delete(("a", 5)))
        gb.on_punctuation(Punctuation.end_of_query(1))
        cluster.network.drain()
        assert sink.rows() == []
        assert sink.done
