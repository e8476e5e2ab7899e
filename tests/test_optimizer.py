"""Tests for statistics, cost estimation, and the plan transformations."""

import pytest

from repro.cluster import Cluster
from repro.common.schema import Field, SQLType
from repro.operators.expressions import BinaryOp, ColumnRef, FuncCall, Literal
from repro.optimizer import (
    CostEstimator,
    LAggCall,
    LFilter,
    LFixpoint,
    LGroupBy,
    LJoin,
    LRehash,
    LScan,
    Optimizer,
    StatisticsCatalog,
    add_exchanges,
    analyze_table,
    explain,
    lower,
    normalize_filter_ranks,
    push_pre_aggregation,
)
from repro.optimizer.logical import LFeedback, LProject
from repro.rql import RQLSession
from repro.runtime import QueryExecutor
from repro.udf import Sum, udf


def make_cluster():
    cluster = Cluster(4)
    cluster.create_table("big", ["id:Integer", "g:Integer", "v:Double"],
                         [(i, i % 10, float(i)) for i in range(2000)], "id")
    cluster.create_table("small", ["g:Integer", "name:Varchar"],
                         [(i, f"g{i}") for i in range(10)], "g")
    return cluster


def scan(cluster, name):
    table = cluster.catalog.get(name)
    return LScan(name, table.schema, table.key_index)


class TestStatistics:
    def test_analyze_counts_rows_and_distincts(self):
        cluster = make_cluster()
        stats = analyze_table(cluster.catalog.get("big"))
        assert stats.rows == 2000
        assert stats.distinct["id"] == 2000
        assert stats.distinct["g"] == 10
        assert stats.avg_row_bytes > 0

    def test_statistics_catalog_caches(self):
        cluster = make_cluster()
        cat = StatisticsCatalog(cluster.catalog)
        assert cat.table("big") is cat.table("big")
        assert cat.table("big").rows == 2000

    def test_unknown_column_defaults_to_rowcount(self):
        cluster = make_cluster()
        stats = analyze_table(cluster.catalog.get("big"))
        assert stats.distinct_of("nope") == 2000


class TestCostEstimation:
    def estimator(self, cluster):
        return CostEstimator(StatisticsCatalog(cluster.catalog),
                             cluster.cost, 4)

    def test_scan_estimate(self):
        cluster = make_cluster()
        est = self.estimator(cluster).estimate(scan(cluster, "big"))
        assert est.rows == 2000
        assert est.usage.disk > 0

    def test_filter_reduces_cardinality(self):
        cluster = make_cluster()
        node = LFilter(scan(cluster, "big"),
                       BinaryOp(">", ColumnRef("v"), Literal(10.0)))
        est = self.estimator(cluster).estimate(node)
        assert est.rows < 2000

    def test_join_uses_distinct_counts(self):
        cluster = make_cluster()
        join = LJoin(scan(cluster, "big"), scan(cluster, "small"),
                     (1, 0))
        est = self.estimator(cluster).estimate(join)
        # 2000 * 10 / max(10, 10) = 2000
        assert est.rows == pytest.approx(2000, rel=0.01)

    def test_rehash_charges_network(self):
        cluster = make_cluster()
        node = LRehash(scan(cluster, "big"), key=1)
        est = self.estimator(cluster).estimate(node)
        assert est.usage.net_out > 0

    def test_broadcast_multiplies_rows(self):
        cluster = make_cluster()
        node = LRehash(scan(cluster, "small"), key=None, broadcast=True)
        est = self.estimator(cluster).estimate(node)
        assert est.rows == pytest.approx(40)

    def test_fixpoint_iterates_and_converges(self):
        """Section 5.3: iterative estimation with cardinality capping must
        terminate and cost more than the base case alone."""
        cluster = make_cluster()
        estimator = self.estimator(cluster)
        base = scan(cluster, "big")
        recursive = LFeedback("R", base.schema.renamed("R"), 0)
        fp = LFixpoint(base, recursive, key=0, cte_name="R")
        est = estimator.estimate(fp)
        base_est = estimator.estimate(base)
        assert est.usage.total() > base_est.usage.total()
        assert est.usage.total() < float("inf")

    def test_plan_cost_positive_and_finite(self):
        cluster = make_cluster()
        cost = self.estimator(cluster).plan_cost(scan(cluster, "big"))
        assert 0 < cost < float("inf")

    def test_udf_cost_hint_and_selectivity_feed_the_predicate(self):
        """Section 5.1: a zero-argument cost hint scales the UDC
        invocation cost; the declared selectivity is the pass rate."""
        @udf(in_types=["Integer"], out_types=["Boolean"], selectivity=0.5,
             cost_hint=lambda: 3.0)
        def even(n):
            return n % 2 == 0

        cluster = make_cluster()
        estimator = self.estimator(cluster)
        node = LFilter(scan(cluster, "big"),
                       FuncCall(even, [ColumnRef("id")]))
        assert estimator.predicate_cost(node) == pytest.approx(
            cluster.cost.cpu_tuple_cost
            + 3.0 * cluster.cost.udf_cost_per_tuple(batched=True))
        assert estimator.selectivity_of(node) == pytest.approx(0.5)


class TestPredicateRankOrdering:
    def test_cheap_selective_predicate_runs_first(self):
        """Section 5.1: ascending rank = (sel - 1) / cost."""
        cluster = make_cluster()
        estimator = CostEstimator(StatisticsCatalog(cluster.catalog),
                                  cluster.cost, 4)

        @udf(selectivity=0.9)
        def expensive(v):
            return v > 0

        base = scan(cluster, "big")
        cheap_pred = BinaryOp(">", ColumnRef("v"), Literal(5.0))
        costly_pred = FuncCall(expensive, [ColumnRef("v")])
        # Build with the expensive filter at the bottom (wrong order).
        node = LFilter(LFilter(base, costly_pred, selectivity=0.9,
                               cost_per_tuple=1e-3),
                       cheap_pred, selectivity=0.1)
        fixed = normalize_filter_ranks(node, estimator)
        # After normalization the cheap/selective filter sits lower.
        assert fixed.predicate is costly_pred
        assert fixed.children[0].predicate is cheap_pred

    def test_already_ordered_untouched(self):
        cluster = make_cluster()
        estimator = CostEstimator(StatisticsCatalog(cluster.catalog),
                                  cluster.cost, 4)
        base = scan(cluster, "big")
        cheap = BinaryOp(">", ColumnRef("v"), Literal(5.0))
        node = LFilter(base, cheap, selectivity=0.1)
        result = normalize_filter_ranks(node, estimator)
        assert result.predicate is cheap
        assert isinstance(result.children[0], LScan)


class TestPreAggregation:
    def groupby(self, cluster):
        return LGroupBy(
            scan(cluster, "big"), [1],
            [LAggCall("sum", Sum, [ColumnRef("v")],
                      [Field("s", SQLType.ANY)], composable=True)])

    def test_rewrite_shape(self):
        """The partial sits directly below the final group-by; exchange
        placement puts the rehash between them (big is keyed on id, so
        the partials are not partitioned on g)."""
        cluster = make_cluster()
        pre = push_pre_aggregation(self.groupby(cluster))
        assert isinstance(pre, LGroupBy) and not pre.pre_aggregated
        assert pre.children[0].pre_aggregated
        rehash = add_exchanges(pre).children[0]
        assert isinstance(rehash, LRehash) and rehash.label() == "Rehash(g)"
        partial = rehash.children[0]
        assert isinstance(partial, LGroupBy) and partial.pre_aggregated

    def test_noncomposable_not_rewritten(self):
        cluster = make_cluster()
        gb = LGroupBy(
            scan(cluster, "big"), [1],
            [LAggCall("collect", lambda: __import__(
                "repro.udf.builtins", fromlist=["CollectList"]).CollectList(),
                [ColumnRef("v")], [Field("c", SQLType.ANY)],
                composable=False)])
        assert push_pre_aggregation(gb) is None

    def test_preaggregated_plan_produces_same_result(self):
        cluster = make_cluster()
        direct = add_exchanges(self.groupby(cluster))
        pre = add_exchanges(push_pre_aggregation(self.groupby(make_cluster())))
        r1 = QueryExecutor(make_cluster_with_data()).execute(lower(direct))
        r2 = QueryExecutor(make_cluster_with_data()).execute(lower(pre))
        assert sorted(r1.rows) == sorted(r2.rows)

    def test_preagg_reduces_network_bytes(self):
        c1 = make_cluster_with_data()
        direct = add_exchanges(self.groupby(c1))
        m1 = QueryExecutor(c1).execute(lower(direct)).metrics
        c2 = make_cluster_with_data()
        pre = add_exchanges(push_pre_aggregation(self.groupby(c2)))
        m2 = QueryExecutor(c2).execute(lower(pre)).metrics
        assert m2.total_bytes() < m1.total_bytes()

    def test_optimizer_chooses_preagg_for_reducible_data(self):
        cluster = make_cluster_with_data()
        optimizer = Optimizer(cluster)
        chosen = optimizer.optimize(self.groupby(cluster))
        labels = [n.label() for n in chosen.walk()]
        assert any("PreAgg" in lbl for lbl in labels), labels


def make_cluster_with_data():
    return make_cluster()


class TestOptimizerEndToEnd:
    def test_filter_pushed_below_join(self):
        cluster = make_cluster()
        session = RQLSession(cluster)
        plan = session.logical_plan(
            "SELECT id, name FROM big, small "
            "WHERE big.g = small.g AND v > 100.0")
        # The selection on big.v should sit below the join.
        text = explain(plan)
        join_line = next(i for i, l in enumerate(text.splitlines())
                         if "Join" in l)
        filter_line = next(i for i, l in enumerate(text.splitlines())
                           if "Filter" in l)
        assert filter_line > join_line  # deeper in the tree = printed later

    def test_optimized_query_correct(self):
        cluster = make_cluster()
        session = RQLSession(cluster)
        result = session.execute(
            "SELECT id, name FROM big, small "
            "WHERE big.g = small.g AND v > 1990.0")
        expected = sorted((i, f"g{i % 10}") for i in range(1991, 2000))
        assert sorted(result.rows) == expected

    def test_report_counts_candidates(self):
        cluster = make_cluster()
        session = RQLSession(cluster)
        node = session.logical_plan(
            "SELECT g, sum(v) FROM big GROUP BY g")
        optimizer = Optimizer(cluster)
        raw = RQLSession(cluster, optimize=False).logical_plan(
            "SELECT g, sum(v) FROM big GROUP BY g")
        _, report = optimizer.optimize_with_report(raw)
        assert report.candidates_considered >= 2
        assert report.best_cost < float("inf")

    def test_explain_renders_tree(self):
        cluster = make_cluster()
        session = RQLSession(cluster)
        text = session.explain("SELECT g, sum(v) FROM big GROUP BY g",
                               with_estimates=True)
        assert "Scan(big)" in text
        assert "rows≈" in text
