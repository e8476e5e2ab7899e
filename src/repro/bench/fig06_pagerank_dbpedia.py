"""Figures 6(a)/6(b): PageRank on the DBPedia-like graph, five strategies.

Hadoop LB, HaLoop LB, REX wrap, REX no-Δ, REX Δ; cumulative and
per-iteration runtimes.
"""

from __future__ import annotations

from typing import Dict

from repro.algorithms import run_pagerank
from repro.bench.common import (
    DBPEDIA_DEGREE,
    DBPEDIA_VERTICES,
    PAPER_DBPEDIA_EDGES,
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
from repro.datasets import dbpedia_like
from repro.hadoop import hadoop_pagerank, rex_wrap_pagerank


@claims(
    Claim("delta_vs_haloop", "REX Δ outperforms HaLoop by ~10x", ">", 4.0),
    Claim("delta_vs_nodelta", "REX Δ outperforms REX no-Δ by ~4x", "<",
          (2.0, 20.0)),
    Claim("wrap_vs_haloop", "REX wrap is nearly twice as fast as HaLoop",
          ">", 1.3),
    Claim("delta_vs_hadoop", "Hadoop is the slowest strategy, slower even "
          "than HaLoop", ">", "delta_vs_haloop"),
    Claim("REX Δ per-iteration, second-to-last / peak", "REX Δ's "
          "per-iteration time keeps shrinking with the Δi set (Fig 6b)",
          "<", 0.5, measure=late_over_peak("REX Δ (per-iter)", -2)),
    Claim("REX no Δ per-iteration, second-to-last / peak after the first",
          "the other strategies stay flat after the first iteration "
          "(Fig 6b)", ">", 0.8,
          measure=late_over_peak("REX no Δ (per-iter)", -2, 1)),
)
def run(n_vertices: int = DBPEDIA_VERTICES, degree: float = DBPEDIA_DEGREE,
        nodes: int = 8, tol: float = 0.01, seed: int = 7) -> FigureResult:
    edges = dbpedia_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges))

    def rex_cluster():
        return graph_cluster(edges, nodes, cm, replication=2)

    # REX Δ runs to convergence and sets the iteration count for everyone.
    delta_scores, delta_m = run_pagerank(rex_cluster(), mode="delta",
                                         tol=tol)
    iterations = delta_m.num_iterations
    # REX stratum 0 is the base case; the MapReduce drivers' iterations are
    # all full power steps, so they run one fewer.
    mr_iterations = max(1, iterations - 1)

    nodelta_scores, nodelta_m = run_pagerank(
        rex_cluster(), mode="nodelta", max_strata=iterations)
    wrap_scores, wrap_m = rex_wrap_pagerank(rex_cluster(), iterations)
    hadoop_scores, hadoop_m = hadoop_pagerank(fresh_cluster(nodes, cm), edges,
                                              iterations=mr_iterations)
    _, haloop_m = hadoop_pagerank(fresh_cluster(nodes, cm), edges,
                                  iterations=mr_iterations, haloop=True)

    # Cross-validate: every strategy converges to the same scores.
    for v, score in hadoop_scores.items():
        assert abs(nodelta_scores[v] - score) < 1e-6, v
        assert abs(wrap_scores[v] - score) < 1e-6, v
        assert abs(delta_scores[v] - score) < 0.05 * abs(score) + 1e-6, v

    metrics: Dict[str, object] = {
        "Hadoop LB": hadoop_m,
        "HaLoop LB": haloop_m,
        "REX wrap": wrap_m,
        "REX no Δ": nodelta_m,
        "REX Δ": delta_m,
    }
    cumulative = [Series(label, m.cumulative_seconds())
                  for label, m in metrics.items()]
    per_iteration = [Series(f"{label} (per-iter)",
                            m.per_iteration_seconds())
                     for label, m in metrics.items()]
    totals = {label: m.total_seconds() for label, m in metrics.items()}
    return FigureResult(
        figure="Figure 6",
        title="PageRank (DBPedia-like): cumulative (a) and per-iteration "
              "(b) runtime",
        series=cumulative + per_iteration,
        headline={
            "delta_vs_haloop": speedup(totals["HaLoop LB"], totals["REX Δ"]),
            "delta_vs_nodelta": speedup(totals["REX no Δ"], totals["REX Δ"]),
            "delta_vs_hadoop": speedup(totals["Hadoop LB"], totals["REX Δ"]),
            "wrap_vs_haloop": speedup(totals["HaLoop LB"], totals["REX wrap"]),
            "iterations": float(iterations),
        },
        notes=[f"{n_vertices} vertices / {len(edges)} edges on {nodes} "
               "nodes; paper: 3.3M vertices / 48M edges on 28 nodes"],
    )
