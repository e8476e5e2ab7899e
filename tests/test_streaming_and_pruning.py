"""Streamed partial aggregation (Section 4.2) and optimizer pruning."""

import pytest

from repro.cluster import Cluster
from repro.datasets import lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.optimizer import (
    CostEstimator,
    EstimationPruned,
    Optimizer,
    StatisticsCatalog,
)
from repro.optimizer.logical import LScan
from repro.runtime import (
    PGroupBy,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.udf import AggregateSpec, Count, Sum

ROWS = lineitem(800)


def agg_plan(mode):
    """Grouped aggregation with the partial (pre-shuffle) group-by in
    either stratum or stream emission mode.  Streamed partial aggregation
    "can help to avoid maintaining large internal state, and is
    particularly useful when executing native Hadoop code" (Section 4.2) —
    it belongs on combiner-style operators, not inside feedback loops,
    where per-intermediate emissions would compound each stratum."""
    key = lambda r: (r[1],)
    partial = PGroupBy(
        key_fn=key,
        specs_factory=lambda: [
            AggregateSpec(Sum(), arg=lambda r: r[5], output="s"),
            AggregateSpec(Count(), arg=lambda r: r[0], output="c"),
        ],
        mode=mode,
        children=(PScan("lineitem"),),
    )
    final = PGroupBy(
        key_fn=lambda r: (r[0],),
        specs_factory=lambda: [
            AggregateSpec(Sum(), arg=lambda r: r[1], output="s"),
            AggregateSpec(Sum(), arg=lambda r: r[2], output="c"),
        ],
        children=(PRehash.by(partial, lambda r: (r[0],)),),
    )
    return PhysicalPlan(final)


def expected_rows():
    out = {}
    for r in ROWS:
        s, c = out.get(r[1], (0.0, 0))
        out[r[1]] = (s + r[5], c + 1)
    return sorted((k, pytest.approx(v[0]), v[1]) for k, v in out.items())


class TestStreamedPartialAggregation:
    def run_mode(self, mode):
        cluster = Cluster(3)
        cluster.create_table("lineitem", LINEITEM_SCHEMA, ROWS, None)
        return QueryExecutor(cluster).execute(agg_plan(mode))

    def test_stream_and_stratum_agree(self):
        """Emission timing must not change the aggregation result (up to
        float summation order)."""
        stream = sorted(self.run_mode("stream").rows)
        stratum = sorted(self.run_mode("stratum").rows)
        expected = expected_rows()
        for got in (stream, stratum):
            assert len(got) == len(expected)
            for (k, s, c), (ek, es, ec) in zip(got, expected):
                assert (k, c) == (ek, ec)
                assert s == es  # es is an approx wrapper

    def test_stream_mode_emits_more_deltas(self):
        """Streaming trades buffering for chattiness: the partial operator
        emits a replacement per input tuple instead of one per stratum."""
        stream = self.run_mode("stream")
        stratum = self.run_mode("stratum")
        assert stream.metrics.total_tuples() > stratum.metrics.total_tuples()
        assert stream.metrics.total_bytes() > stratum.metrics.total_bytes()


class TestBranchAndBound:
    def test_budget_prunes_estimation(self):
        cluster = Cluster(4)
        cluster.create_table("big", ["id:Integer", "v:Double"],
                             [(i, float(i)) for i in range(5000)], "id")
        estimator = CostEstimator(StatisticsCatalog(cluster.catalog),
                                  cluster.cost, 4)
        table = cluster.catalog.get("big")
        node = LScan("big", table.schema, table.key_index)
        full = estimator.plan_cost(node)
        with pytest.raises(EstimationPruned):
            estimator.plan_cost(node, budget=full / 100.0)
        # A generous budget does not prune.
        assert estimator.plan_cost(node, budget=full * 100.0) == full

    def test_budget_resets_after_pruning(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["id:Integer"],
                             [(i,) for i in range(1000)], "id")
        estimator = CostEstimator(StatisticsCatalog(cluster.catalog),
                                  cluster.cost, 2)
        table = cluster.catalog.get("t")
        node = LScan("t", table.schema, table.key_index)
        with pytest.raises(EstimationPruned):
            estimator.plan_cost(node, budget=1e-12)
        # The estimator is reusable afterwards (budget cleared).
        assert estimator.plan_cost(node) > 0

    def test_optimizer_reports_pruning(self):
        cluster = Cluster(4)
        cluster.create_table("r", ["a:Integer", "x:Integer"],
                             [(i, i) for i in range(500)], "a")
        cluster.create_table("s", ["a:Integer", "y:Integer"],
                             [(i % 50, i) for i in range(500)], None)
        from repro.rql import RQLSession

        raw = RQLSession(cluster, optimize=False).logical_plan(
            "SELECT r.a, x, y FROM r, s WHERE r.a = s.a AND x > 100")
        _, report = Optimizer(cluster).optimize_with_report(raw)
        assert report.candidates_considered > 1
        assert report.candidates_pruned >= 1
        assert report.chosen is not None
