"""Figures 10(a)/10(b): scalability and speedup vs cluster size.

PageRank (DBPedia-like) on 1, 3, 9, 28 nodes, plus DBMS X on one machine
and its perfect-linear-speedup lower-bound line.
"""

from __future__ import annotations

from typing import List

from repro.algorithms import run_pagerank
from repro.bench.common import (
    PAPER_DBPEDIA_EDGES,
    Claim,
    FigureResult,
    Series,
    claims,
    graph_cluster,
    scaled_cost_model,
    speedup,
    steps,
)
from repro.datasets import dbpedia_like
from repro.dbms import DBMSXEngine

NODE_COUNTS = (1, 3, 9, 28)


@claims(
    Claim("REX Δ runtime change per node-count step", "runtime decreases "
          "~proportionally with the number of machines", "<", 0,
          measure=steps("REX Δ")),
    Claim("speedup_at_max_nodes", "near-linear speedup to 28 nodes (~19x "
          "at 25)", ">", 8.0),
    Claim("parallel_efficiency_at_max", "near-linear speedup: each machine "
          "keeps contributing", ">", 0.3),
    Claim("single_node_rex_vs_dbms", "single-node REX Δ is ~30% faster "
          "than DBMS X", ">", 1.0),
    Claim("rex_beats_idealized_dbms", "real REX always beats the idealized "
          "linear-speedup DBMS X", "==", 1.0),
)
def run(n_vertices: int = 3000, degree: float = 12.0,
        node_counts=NODE_COUNTS, tol: float = 0.01,
        seed: int = 7) -> FigureResult:
    edges = dbpedia_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges))

    rex_times: List[float] = []
    for n in node_counts:
        _, m = run_pagerank(graph_cluster(edges, n, cm), mode="delta",
                            tol=tol)
        rex_times.append(m.total_seconds())
    speedups = [rex_times[0] / t for t in rex_times]

    engine = DBMSXEngine(cost_model=cm)
    _, dbms_m = engine.pagerank(edges, iterations=80, tol=tol)
    dbms_single = dbms_m.total_seconds()
    dbms_lb = [DBMSXEngine.linear_speedup_lower_bound(dbms_m, n)
               for n in node_counts]

    xs = [float(n) for n in node_counts]
    return FigureResult(
        figure="Figure 10",
        title="Scalability (a: runtime vs nodes incl. DBMS X LB; "
              "b: speedup vs single node)",
        series=[
            Series("REX Δ", rex_times, x=xs),
            Series("DBMS X LB", dbms_lb, x=xs),
            Series("REX Δ speedup", speedups, x=xs),
        ],
        headline={
            "single_node_rex_vs_dbms": speedup(dbms_single, rex_times[0]),
            "speedup_at_max_nodes": speedups[-1],
            "parallel_efficiency_at_max":
                speedups[-1] / node_counts[-1],
            "rex_beats_idealized_dbms": 1.0 if all(
                r < d for r, d in zip(rex_times, dbms_lb)) else 0.0,
        },
    )
