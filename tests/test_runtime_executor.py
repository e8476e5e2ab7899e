"""Integration tests: hand-built physical plans on the simulated cluster."""

import pytest

from repro.cluster import Cluster
from repro.common import insert
from repro.common.errors import PlanError
from repro.runtime import (
    ExecOptions,
    PCollect,
    PFeedback,
    PFilter,
    PFixpoint,
    PGroupBy,
    PJoin,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.udf import AggregateSpec, Count, Min, Sum
from repro.udf.aggregates import WhileDeltaHandler


def make_cluster(n=4, **table_kwargs):
    cluster = Cluster(n)
    return cluster


class TestNonRecursive:
    def test_scan_collect_returns_all_rows(self):
        cluster = make_cluster()
        rows = [(i, i * 10) for i in range(50)]
        cluster.create_table("t", ["id:Integer", "v:Integer"], rows, "id")
        plan = PhysicalPlan(PScan("t"))
        result = QueryExecutor(cluster).execute(plan)
        assert sorted(result.rows) == rows

    def test_filter_aggregate_matches_direct_computation(self):
        """The Figure 4 query shape: WHERE + global SUM/COUNT."""
        cluster = make_cluster()
        rows = [(i, i % 7, float(i % 13)) for i in range(200)]
        cluster.create_table("lineitem",
                             ["k:Integer", "linenumber:Integer", "tax:Double"],
                             rows, "k")
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (0,),
            specs_factory=lambda: [
                AggregateSpec(Sum(), arg=lambda r: r[2], output="s"),
                AggregateSpec(Count(), arg=lambda r: r[0], output="c"),
            ],
            children=(PRehash(key_fn=lambda r: (0,), children=(
                PFilter(predicate=lambda r: r[1] > 1, children=(PScan("lineitem"),)),
            )),),
        ))
        result = QueryExecutor(cluster).execute(plan)
        expect = [r for r in rows if r[1] > 1]
        assert len(result.rows) == 1
        key, s, c = result.rows[0]
        assert s == pytest.approx(sum(r[2] for r in expect))
        assert c == len(expect)

    def test_grouped_aggregate_across_rehash(self):
        cluster = make_cluster(3)
        rows = [(i, i % 5, i) for i in range(100)]
        cluster.create_table("t", ["id:Integer", "g:Integer", "v:Integer"],
                             rows, "id")
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (r[1],),
            specs_factory=lambda: [AggregateSpec(Sum(), arg=lambda r: r[2])],
            children=(PRehash(key_fn=lambda r: (r[1],),
                              children=(PScan("t"),)),),
        ))
        result = QueryExecutor(cluster).execute(plan)
        expected = {}
        for _, g, v in rows:
            expected[g] = expected.get(g, 0) + v
        assert sorted(result.rows) == sorted((g, s) for g, s in expected.items())

    def test_distributed_hash_join(self):
        cluster = make_cluster(3)
        cluster.create_table("r", ["a:Integer", "x:Integer"],
                             [(i, i * 2) for i in range(30)], "a")
        cluster.create_table("s", ["a:Integer", "y:Integer"],
                             [(i % 10, i) for i in range(40)], None)
        key = lambda r: (r[0],)
        plan = PhysicalPlan(PJoin(
            left_key=key, right_key=key, handler_factory=None,
            children=(
                PScan("r"),                       # already partitioned by a
                PRehash(key_fn=key, children=(PScan("s"),)),
            ),
        ))
        result = QueryExecutor(cluster).execute(plan)
        expected = [(i % 10, (i % 10) * 2, i % 10, i) for i in range(40)]
        assert sorted(result.rows) == sorted(expected)

    def test_metrics_populated(self):
        cluster = make_cluster()
        cluster.create_table("t", ["id:Integer"], [(i,) for i in range(20)], "id")
        result = QueryExecutor(cluster).execute(PhysicalPlan(PScan("t")))
        m = result.metrics
        assert m.num_iterations == 1
        assert m.total_seconds() > 0
        assert m.iterations[0].tuples_processed > 0
        assert m.result_rows == 20

    def test_single_node_cluster_works(self):
        cluster = make_cluster(1)
        cluster.create_table("t", ["id:Integer"], [(i,) for i in range(5)], "id")
        result = QueryExecutor(cluster).execute(PhysicalPlan(PScan("t")))
        assert sorted(result.rows) == [(i,) for i in range(5)]


def reachability_plan():
    """Transitive reachability from vertex 0 — a canonical fixpoint query.

    base: start(v) ; recursive: Δ(v) ⋈ edges(src=v) -> (dst) -> rehash -> fp
    """
    vkey = lambda r: (r[0],)
    return PhysicalPlan(PFixpoint(
        key_fn=vkey,
        semantics="set",
        children=(
            PRehash(key_fn=vkey, children=(PScan("start"),)),
            PRehash(key_fn=vkey, children=(
                PProject(row_fn=lambda r: (r[2],), children=(
                    PJoin(left_key=vkey, right_key=vkey, handler_factory=None,
                          handler_side=None,
                          children=(
                              PFeedback(),
                              PScan("edges"),
                          )),
                )),
            )),
        ),
    ))


class TestRecursive:
    def edges(self):
        # Two chains and a cycle; vertices 100+ unreachable.
        return [(0, 1), (1, 2), (2, 3), (3, 1), (0, 10), (10, 11),
                (100, 101), (101, 102)]

    def load(self, cluster):
        cluster.create_table("edges", ["src:Integer", "dst:Integer"],
                             self.edges(), "src")
        cluster.create_table("start", ["v:Integer"], [(0,)], "v")

    def test_reachability_converges_to_correct_set(self):
        cluster = make_cluster(4)
        self.load(cluster)
        result = QueryExecutor(cluster).execute(reachability_plan())
        assert sorted(r[0] for r in result.rows) == [0, 1, 2, 3, 10, 11]

    def test_same_result_on_any_cluster_size(self):
        """Determinism across degrees of parallelism (stratified model)."""
        outputs = []
        for n in (1, 2, 5):
            cluster = make_cluster(n)
            self.load(cluster)
            result = QueryExecutor(cluster).execute(reachability_plan())
            outputs.append(sorted(result.rows))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_iteration_metrics_track_deltas(self):
        cluster = make_cluster(2)
        self.load(cluster)
        result = QueryExecutor(cluster).execute(reachability_plan())
        m = result.metrics
        # Frontier: {0}, {1,10}, {2,11}, {3}, {} (cycle back to 1 is dup)
        assert m.delta_series()[0] == 1
        assert m.delta_series()[-1] == 0
        assert m.num_iterations >= 4

    def test_max_strata_bounds_execution(self):
        cluster = make_cluster(2)
        self.load(cluster)
        opts = ExecOptions(max_strata=2)
        result = QueryExecutor(cluster, opts).execute(reachability_plan())
        assert result.metrics.num_iterations == 2

    def test_explicit_termination_condition(self):
        cluster = make_cluster(2)
        self.load(cluster)
        opts = ExecOptions(termination=lambda stratum, ex: stratum >= 1)
        result = QueryExecutor(cluster, opts).execute(reachability_plan())
        assert result.metrics.num_iterations == 2


class _MonotoneMin(WhileDeltaHandler):
    """Admit (v, dist) only when dist improves — shortest-path refinement."""

    def update(self, rel, delta):
        key = (delta.row[0],)
        cur = rel.get(key)
        if cur is None or delta.row[1] < cur[1]:
            rel[key] = delta.row
            return [insert(delta.row)]
        return []


def sssp_plan():
    vkey = lambda r: (r[0],)
    return PhysicalPlan(PFixpoint(
        key_fn=vkey,
        while_handler_factory=_MonotoneMin,
        children=(
            PRehash(key_fn=vkey, children=(PScan("start"),)),
            PRehash(key_fn=vkey, children=(
                PProject(row_fn=lambda r: (r[3], r[1] + 1), children=(
                    PJoin(left_key=vkey, right_key=vkey, handler_factory=None,
                          handler_side=None,
                          children=(PFeedback(), PScan("edges"))),
                )),
            )),
        ),
    ))


class TestWhileHandlerRecursion:
    def test_sssp_distances(self):
        cluster = make_cluster(3)
        cluster.create_table("edges", ["src:Integer", "dst:Integer"],
                             [(0, 1), (1, 2), (0, 2), (2, 3)], "src")
        cluster.create_table("start", ["v:Integer", "d:Integer"], [(0, 0)], "v")
        result = QueryExecutor(cluster).execute(sssp_plan())
        dists = dict(result.rows)
        assert dists == {0: 0, 1: 1, 2: 1, 3: 2}


class TestPlanValidation:
    def test_two_fixpoints_rejected(self):
        inner = PFixpoint(key_fn=lambda r: (r[0],), children=(
            PScan("t"), PFeedback()))
        with pytest.raises(PlanError):
            PhysicalPlan(PFixpoint(key_fn=lambda r: (r[0],),
                                   children=(inner, PFeedback())))

    def test_feedback_without_fixpoint_rejected(self):
        with pytest.raises(PlanError):
            PhysicalPlan(PFeedback())

    def test_fixpoint_needs_two_children(self):
        with pytest.raises(PlanError):
            PhysicalPlan(PFixpoint(key_fn=lambda r: (r[0],),
                                   children=(PScan("t"),)))

    def test_recursive_branch_needs_feedback(self):
        with pytest.raises(PlanError):
            PhysicalPlan(PFixpoint(key_fn=lambda r: (r[0],),
                                   children=(PScan("t"), PScan("u"))))

    def test_tables_listed(self):
        plan = reachability_plan()
        assert plan.tables() == ["edges", "start"]
        assert plan.is_recursive
