"""Figure 3 (table): types of recursive data per algorithm.

The paper characterizes each algorithm by its immutable set, mutable set,
and Δᵢ set.  This experiment *measures* those sets on live runs — the
immutable relation's size, the mutable (fixpoint) relation's size, and the
Δᵢ trajectory — verifying that the implementations have the structure the
paper's table claims (e.g. the K-means Δᵢ is "nodes which switched
centroids", which manifests as adjustment traffic, not point updates).
"""

from __future__ import annotations

from repro.algorithms import (
    run_adsorption,
    run_kmeans,
    run_pagerank,
    run_sssp,
)
from repro.bench.common import (
    Claim,
    FigureResult,
    Series,
    claims,
    fresh_cluster,
    graph_cluster,
)
from repro.datasets import dbpedia_like, geo_points, sample_centroids


@claims(
    Claim("pagerank_immutable", "the immutable set is the input relation: "
          "the same graph edges for PageRank and shortest path", "==",
          "sssp_immutable"),
    Claim("kmeans_immutable", "K-means' immutable set is its point set",
          ">", 0),
    Claim("pagerank_mutable", "the mutable set holds one row per vertex",
          "<=", "pagerank_immutable"),
    Claim("last Δi of each algorithm", "every algorithm's Δi set shrinks "
          "to empty at convergence", "==", 0.0,
          measure=lambda r: [s.last() for s in r.series]),
    Claim("peak Δi of each algorithm", "every algorithm iterates over a "
          "non-empty Δi set", ">", 0,
          measure=lambda r: [max(s.values) for s in r.series]),
)
def run(nodes: int = 4, seed: int = 71) -> FigureResult:
    edges = dbpedia_like(800, avg_out_degree=6, seed=seed)
    series = []
    headline = {}

    # PageRank: immutable = edges; mutable = PR per vertex; Δi shrinks.
    _, pr_m = run_pagerank(graph_cluster(edges, nodes), tol=0.01)
    series.append(Series("PageRank Δi", [float(d) for d in pr_m.delta_series()]))
    headline["pagerank_immutable"] = float(len(edges))
    headline["pagerank_mutable"] = float(pr_m.iterations[-1].mutable_size)
    headline["pagerank_delta_peak"] = float(max(pr_m.delta_series()))

    # Shortest path: Δi is the frontier.
    _, sp_m = run_sssp(graph_cluster(edges, nodes, source=0))
    series.append(Series("Shortest-path Δi (frontier)",
                         [float(d) for d in sp_m.delta_series()]))
    headline["sssp_immutable"] = float(len(edges))
    headline["sssp_mutable"] = float(sp_m.iterations[-1].mutable_size)

    # K-means: Δi is centroid movement driven by switching points.
    points = geo_points(600, n_clusters=5, seed=seed)
    centroids = sample_centroids(points, 5, seed=seed + 1)
    cluster = fresh_cluster(nodes)
    cluster.create_table("points", ["pid:Integer", "x:Double", "y:Double"],
                         points, None)
    cluster.create_table("centroids0", ["cid:Integer", "x:Double", "y:Double"],
                         centroids, "cid")
    _, km_m = run_kmeans(cluster)
    series.append(Series("K-means Δi (moved centroids)",
                         [float(d) for d in km_m.delta_series()]))
    headline["kmeans_immutable"] = float(len(points))
    headline["kmeans_mutable"] = float(km_m.iterations[-1].mutable_size)

    # Adsorption: Δi is label-vector positions changing >= tol.
    seeds = {(0, "A"): 1.0, (5, "B"): 1.0}
    cluster = graph_cluster(edges, nodes)
    cluster.create_table("labels", ["v:Integer", "label:Varchar", "w:Double"],
                         [(v, l, w) for (v, l), w in seeds.items()], "v")
    _, ad_m = run_adsorption(cluster, seeds, tol=0.01)
    series.append(Series("Adsorption Δi (label positions)",
                         [float(d) for d in ad_m.delta_series()]))
    headline["adsorption_immutable"] = float(len(edges))
    headline["adsorption_mutable"] = float(ad_m.iterations[-1].mutable_size)

    return FigureResult(
        figure="Figure 3",
        title="Types of recursive data: measured immutable/mutable/Δi sets",
        series=series,
        headline=headline,
    )
