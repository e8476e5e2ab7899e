"""Property test: full sanitization + mid-run failure + recovery is exact.

For every benchmark workload (PageRank, SSSP, k-means) and a battery of
seeds, run the query on a randomized small input under ``sanitize='full'``
with a node failure injected mid-run, and require

* the recovered result to match the independent reference oracle, and
* the sanitizer to report zero violations — the recovery path itself must
  satisfy every runtime invariant it is checked against.

Plus the zero-overhead-of-observation contract: the sanitizer must never
perturb the simulation, so the metrics fingerprint is bit-identical across
``off`` / ``sample`` / ``full``; and, at operator level, that a legal
straddling replacement raises no finding in either execution mode.
"""

import pytest

from helpers import Capture, Feed

from repro.algorithms import (
    kmeans_reference,
    make_start_table,
    pagerank_reference,
    sssp_reference,
)
from repro.algorithms.kmeans import kmeans_plan
from repro.algorithms.pagerank import pagerank_plan
from repro.algorithms.sssp import sssp_plan
from repro.analysis.sanitizer import Sanitizer
from repro.cluster import Cluster, CostModel, Worker
from repro.common.deltas import insert, replace
from repro.datasets import dbpedia_like, geo_points, sample_centroids
from repro.operators import ExecContext, GroupBy, Probe
from repro.runtime import ExecOptions, FailureSpec, QueryExecutor
from repro.udf import AggregateSpec, Sum

SEEDS = list(range(7))


def _failure_opts(seed, **kw):
    return ExecOptions(sanitize="full",
                       failure=FailureSpec(after_stratum=2 + seed % 3),
                       recovery="incremental", **kw)


def _run_pagerank(seed, opts):
    edges = dbpedia_like(40 + 5 * seed, avg_out_degree=3.5, seed=200 + seed)
    cluster = Cluster(4)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, "srcId", replication=2)
    # tol=0.0 converges by float exactness; resume recovery replays the
    # convergence tail, so the cap must leave room for it.
    opts.max_strata = 200
    opts.feedback_mode = "delta"
    result = QueryExecutor(cluster, opts).execute(
        pagerank_plan(mode="delta", tol=0.0))
    return edges, result


@pytest.mark.parametrize("seed", SEEDS)
def test_pagerank_recovers_exactly_under_full_sanitize(seed):
    edges, result = _run_pagerank(seed, _failure_opts(seed))
    scores = {row[0]: row[1] for row in result.rows}
    expected = pagerank_reference(edges)
    assert set(scores) == set(expected)
    for v in expected:
        assert scores[v] == pytest.approx(expected[v], rel=1e-6), v
    assert not result.sanitizer.report.has_errors(), \
        result.sanitizer.report.format()
    assert result.metrics.recovery_seconds > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_sssp_recovers_exactly_under_full_sanitize(seed):
    edges = dbpedia_like(60 + 8 * seed, avg_out_degree=4.0, seed=300 + seed)
    cluster = Cluster(4)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, "srcId", replication=2)
    source = edges[0][0]
    make_start_table(cluster, source)
    opts = _failure_opts(seed)
    opts.max_strata = 200
    result = QueryExecutor(cluster, opts).execute(sssp_plan())
    got = {row[0]: row[2] for row in result.rows}
    assert got == sssp_reference(edges, source)
    assert not result.sanitizer.report.has_errors(), \
        result.sanitizer.report.format()
    assert result.metrics.recovery_seconds > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_kmeans_recovers_exactly_under_full_sanitize(seed):
    points = geo_points(80 + 10 * seed, n_clusters=3, seed=400 + seed,
                        spread=0.6)
    centroids = sample_centroids(points, 3, seed=500 + seed)
    cluster = Cluster(4)
    # Keyed + replicated: a keyless table round-robins rows to a single
    # owner, which is unrecoverable by design.
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         points, "pid", replication=2)
    cluster.create_table("centroids0",
                         ["cid:Integer", "x:Double", "y:Double"],
                         centroids, "cid")
    opts = _failure_opts(seed)
    opts.max_strata = 120
    result = QueryExecutor(cluster, opts).execute(kmeans_plan())
    got = {row[0]: (row[1], row[2]) for row in result.rows}
    expected, _, _ = kmeans_reference(points, centroids)
    live = {cid: pos for cid, pos in got.items() if pos != (None, None)}
    for cid, (x, y) in expected.items():
        if cid in live:
            assert live[cid][0] == pytest.approx(x, abs=1e-6)
            assert live[cid][1] == pytest.approx(y, abs=1e-6)
    assert not result.sanitizer.report.has_errors(), \
        result.sanitizer.report.format()


class TestFingerprintInvariance:
    """sanitize level must not perturb the simulation at all."""

    def _fingerprint(self, level):
        edges = dbpedia_like(120, avg_out_degree=4.0, seed=21)
        cluster = Cluster(4)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             edges, "srcId", replication=2)
        opts = ExecOptions(sanitize=level, max_strata=60,
                           feedback_mode="delta")
        result = QueryExecutor(cluster, opts).execute(
            pagerank_plan(mode="delta", tol=0.01))
        return result.metrics.fingerprint()

    def test_bit_identical_across_levels(self):
        off = self._fingerprint("off")
        assert self._fingerprint("sample") == off
        assert self._fingerprint("full") == off


@pytest.mark.parametrize("batch", [False, True])
def test_straddling_replacement_into_groupby_is_clean(batch):
    """``->('b',1) old=('a',1)`` moves a row between two groups: one legal
    delta entering the group-by.  The shadow must record it once — not
    also the two halves ``GroupBy.process`` splits it into, which read as
    a second retraction of ``('a',1)`` (REX200) and a wrong re-aggregate
    (REX201)."""
    sanitizer = Sanitizer("full")
    gb = GroupBy(key_fn=lambda r: (r[0],),
                 specs=[AggregateSpec(Sum(), arg=lambda r: r[1])])
    ctx = ExecContext(Worker(0, CostModel()), batch=batch,
                      probe=Probe([sanitizer]))
    feed, sink = Feed(), Capture()
    gb.add_input(feed)
    sink.add_input(gb)
    for op in (feed, gb, sink):
        op.open(ctx)
    feed.push(insert(("a", 1)), insert(("a", 2)))
    feed.punctuate(0)
    feed.push(replace(("a", 1), ("b", 1)))
    feed.punctuate(1)
    assert sanitizer.violations == 0, sanitizer.report.format()
    assert sink.deltas == [insert(("a", 3)),
                           replace(("a", 3), ("a", 2)),
                           insert(("b", 1))]
