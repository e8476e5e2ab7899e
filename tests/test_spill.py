"""Operator-state spill accounting (Section 4's memory/disk behaviour)."""

import pytest

from repro.algorithms import pagerank_reference, run_pagerank
from repro.cluster import Cluster, CostModel
from repro.datasets import dbpedia_like
from workloads import build, run

EDGES = dbpedia_like(300, avg_out_degree=6, seed=111)


def run_with_budget(budget_bytes):
    cm = CostModel(worker_memory_bytes=budget_bytes)
    cluster = Cluster(2, cost_model=cm)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         EDGES, "srcId")
    return run_pagerank(cluster, tol=0.01)


class TestSpillAccounting:
    def test_spilled_fraction(self):
        cluster = Cluster(1, cost_model=CostModel(worker_memory_bytes=100))
        w = cluster.worker(0)
        assert w.spilled_fraction() == 0.0
        w.add_state_bytes(400)
        assert w.spilled_fraction() == pytest.approx(0.75)

    def test_state_access_free_in_memory(self):
        cluster = Cluster(1)
        w = cluster.worker(0)
        w.charge_state_access()
        assert w.stratum_usage.disk == 0.0

    def test_state_access_charges_when_spilled(self):
        cluster = Cluster(1, cost_model=CostModel(worker_memory_bytes=10))
        w = cluster.worker(0)
        w.add_state_bytes(1000)
        before = w.stratum_usage.disk
        w.charge_state_access()
        assert w.stratum_usage.disk > before

    def test_tiny_memory_budget_slows_query_not_results(self):
        """Spilling costs time, never correctness."""
        roomy_scores, roomy_m = run_with_budget(512 * 1024 * 1024)
        tight_scores, tight_m = run_with_budget(4 * 1024)
        assert tight_scores == roomy_scores
        assert tight_m.total_seconds() > roomy_m.total_seconds()

    def test_disk_time_appears_in_usage(self):
        cm = CostModel(worker_memory_bytes=2 * 1024)
        cluster = Cluster(2, cost_model=cm)
        cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                             EDGES, "srcId")
        run_pagerank(cluster, tol=0.01)
        assert any(w.total_usage.disk > 0.01
                   for w in cluster.alive_workers())


@pytest.mark.parametrize("workload", ["pagerank_delta", "sssp_failure",
                                      "retraction_join_groupby"])
def test_spill_charges_are_identical_in_both_modes(workload):
    """Over the memory budget every state access and every state-byte
    charge reads the running total, so the order and count of
    ``add_state_bytes`` calls is part of the simulated result: one call
    with n bytes is *not* n calls.  Batch and per-tuple execution must
    still agree bit for bit."""
    seen = []
    for batch in (True, False):
        cost = CostModel(worker_memory_bytes=4096)
        result = run(build(workload, cost_model=cost), batch=batch)
        seen.append((sorted(result.rows), result.metrics.fingerprint()))
    assert seen[0] == seen[1]
