"""Figures 8(a)/8(b): PageRank on the Twitter-like graph.

The larger, denser dataset compared across the best alternatives: Hadoop
LB, HaLoop LB, REX Δ.
"""

from __future__ import annotations

from repro.algorithms import run_pagerank
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
    late_over_peak,
    scaled_cost_model,
    speedup,
)
from repro.datasets import twitter_like
from repro.hadoop import hadoop_pagerank


@claims(
    Claim("delta_vs_haloop", "REX Δ outperforms HaLoop by ~3x", ">", 2.0),
    Claim("delta_vs_hadoop", "REX Δ outperforms Hadoop by ~7x, more than "
          "HaLoop", ">", "delta_vs_haloop"),
    Claim("REX Δ per-iteration, second-to-last / peak", "REX Δ's "
          "per-iteration time decays with the Δi set (Fig 8b)", "<", 0.6,
          measure=late_over_peak("REX Δ (per-iter)", -2)),
    Claim("HaLoop LB per-iteration, last / peak after the first", "the "
          "lower-bound methods' per-iteration times stay flat (Fig 8b)",
          ">", 0.7, measure=late_over_peak("HaLoop LB (per-iter)", -1, 1)),
)
def run(n_vertices: int = TWITTER_VERTICES, degree: float = TWITTER_DEGREE,
        nodes: int = 8, tol: float = 0.01, seed: int = 13) -> FigureResult:
    edges = twitter_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_TWITTER_EDGES / len(edges))

    delta_scores, delta_m = run_pagerank(
        graph_cluster(edges, nodes, cm, replication=2), mode="delta", tol=tol)
    iterations = delta_m.num_iterations
    mr_iterations = max(1, iterations - 1)

    hadoop_scores, hadoop_m = hadoop_pagerank(
        fresh_cluster(nodes, cm), edges, iterations=mr_iterations)
    _, haloop_m = hadoop_pagerank(fresh_cluster(nodes, cm), edges,
                                  iterations=mr_iterations, haloop=True)
    for v, score in hadoop_scores.items():
        assert abs(delta_scores[v] - score) < 0.05 * abs(score) + 1e-6

    metrics = {"Hadoop LB": hadoop_m, "HaLoop LB": haloop_m,
               "REX Δ": delta_m}
    totals = {k: m.total_seconds() for k, m in metrics.items()}
    return FigureResult(
        figure="Figure 8",
        title="PageRank (Twitter-like): cumulative (a) and per-iteration "
              "(b) runtime",
        series=[Series(k, m.cumulative_seconds()) for k, m in metrics.items()]
        + [Series(f"{k} (per-iter)", m.per_iteration_seconds())
           for k, m in metrics.items()],
        headline={
            "delta_vs_haloop": speedup(totals["HaLoop LB"], totals["REX Δ"]),
            "delta_vs_hadoop": speedup(totals["Hadoop LB"], totals["REX Δ"]),
            "iterations": float(iterations),
        },
        notes=[f"{n_vertices} vertices / {len(edges)} edges on {nodes} "
               "nodes; paper: 41M vertices / 1.4B edges on 28 nodes"],
    )
