"""Figures 9(a)/9(b): shortest path on the Twitter-like graph.

Hadoop LB, HaLoop LB, REX Δ.  The twitter_like generator engineers the
paper's frontier structure, a periphery chain into a dense core that the
reachability set reaches 7 hops from the source.
"""

from __future__ import annotations

from repro.algorithms import run_sssp, sssp_reference
from repro.bench.common import (
    TWITTER_DEGREE,
    TWITTER_VERTICES,
    PAPER_TWITTER_EDGES,
    Claim,
    FigureResult,
    Series,
    claims,
    fresh_cluster,
    graph_cluster,
    scaled_cost_model,
    speedup,
)
from repro.datasets import twitter_like
from repro.hadoop import hadoop_sssp

LB_ITERATIONS = 15  # the paper plots 15 iterations for Twitter SSSP


@claims(
    Claim("delta_vs_haloop", "REX Δ is ~30% faster than HaLoop LB", ">",
          1.2),
    Claim("frontier_spike_ratio", "a large per-iteration spike at hops 7-8, "
          "where the reachability set explodes (Fig 9b)", ">", 3.0),
    Claim("load_spike_first_iteration", "a first-iteration spike from "
          "loading the immutable data (Fig 9b)", ">", 3.0),
)
def run(n_vertices: int = TWITTER_VERTICES, degree: float = TWITTER_DEGREE,
        nodes: int = 8, seed: int = 13) -> FigureResult:
    edges = twitter_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_TWITTER_EDGES / len(edges))
    reference = sssp_reference(edges, 0)

    delta_dists, delta_m = run_sssp(
        graph_cluster(edges, nodes, cm, replication=2, source=0))
    assert {v: d for v, (_, d) in delta_dists.items()} == {
        v: float(d) for v, d in reference.items()}

    _, hadoop_m = hadoop_sssp(fresh_cluster(nodes, cm), edges, 0,
                              max_iterations=LB_ITERATIONS)
    _, haloop_m = hadoop_sssp(fresh_cluster(nodes, cm), edges, 0,
                              max_iterations=LB_ITERATIONS, haloop=True)

    metrics = {"Hadoop LB": hadoop_m, "HaLoop LB": haloop_m,
               "REX Δ": delta_m}
    totals = {k: m.total_seconds() for k, m in metrics.items()}
    per_iter = delta_m.per_iteration_seconds()
    # The spike: the max per-iteration time in hops 6..10 relative to the
    # quiet chain hops before it (excluding the stratum-1 load spike).
    quiet = max(per_iter[2:6]) if len(per_iter) > 6 else 1.0
    spike = max(per_iter[6:11]) if len(per_iter) > 10 else 0.0
    return FigureResult(
        figure="Figure 9",
        title="Shortest path (Twitter-like): cumulative (a) and "
              "per-iteration (b) runtime",
        series=[Series(k, m.cumulative_seconds()) for k, m in metrics.items()]
        + [Series(f"{k} (per-iter)", m.per_iteration_seconds())
           for k, m in metrics.items()],
        headline={
            "delta_vs_haloop": speedup(totals["HaLoop LB"], totals["REX Δ"]),
            "delta_vs_hadoop": speedup(totals["Hadoop LB"], totals["REX Δ"]),
            "frontier_spike_ratio": spike / quiet if quiet > 0 else 0.0,
            "load_spike_first_iteration":
                per_iter[0] / max(quiet, 1e-9) if per_iter else 0.0,
        },
        notes=[f"{n_vertices} vertices / {len(edges)} edges on {nodes} "
               "nodes"],
    )
