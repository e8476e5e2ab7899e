"""Figure 5: K-means clustering scalability (mutable-only relations).

REX delta vs Hadoop (lower bound) while the point-set size sweeps across
orders of magnitude.  The paper does not include HaLoop because the query
has no immutable relation (HaLoop ~ Hadoop; verified in tests).
"""

from __future__ import annotations

from typing import List, Optional

from repro.algorithms import run_kmeans
from repro.bench.common import (
    Claim,
    FigureResult,
    Series,
    claims,
    fresh_cluster,
    scaled_cost_model,
    speedup,
)

PAPER_SMALLEST_POINTS = 382_000
from repro.datasets import geo_points, sample_centroids
from repro.hadoop import hadoop_kmeans

DEFAULT_SIZES = (300, 1000, 3000, 10_000)
K_CLUSTERS = 8


def _growth(label):
    """Measure: a series' last value minus its first."""
    return lambda r: r.get(label).last() - r.get(label).values[0]


@claims(
    Claim("Hadoop LB / REX Δ at each size", "REX Δ wins at every data "
          "size", ">", 5.0,
          measure=lambda r: [h / x for h, x in zip(
              r.get("Hadoop LB").values, r.get("REX Δ").values)]),
    Claim("speedup_largest", "REX Δ is almost two orders of magnitude "
          "(~100x) faster, due to its extremely low iteration overhead",
          ">", 10.0,
          gap="the sweep ends at 10k points, not the paper's 382M, and the "
              "speedup still grows with size"),
    Claim("REX Δ growth, largest - smallest size", "runtime grows with "
          "data size", ">", 0, measure=_growth("REX Δ")),
    Claim("Hadoop LB growth, largest - smallest size", "runtime grows with "
          "data size", ">", 0, measure=_growth("Hadoop LB")),
)
def run(sizes=DEFAULT_SIZES, nodes: int = 8, seed: int = 61) -> FigureResult:
    cost_model = scaled_cost_model(PAPER_SMALLEST_POINTS / sizes[0])
    rex_times: List[float] = []
    hadoop_times: List[float] = []
    for n in sizes:
        points = geo_points(n, n_clusters=K_CLUSTERS, seed=seed)
        centroids = sample_centroids(points, K_CLUSTERS, seed=seed + 1)

        cluster = fresh_cluster(nodes, cost_model)
        cluster.create_table("points",
                             ["pid:Integer", "x:Double", "y:Double"],
                             points, None)
        cluster.create_table("centroids0",
                             ["cid:Integer", "x:Double", "y:Double"],
                             centroids, "cid")
        rex_cents, rex_m = run_kmeans(cluster)
        rex_times.append(rex_m.total_seconds())

        h_cents, h_m = hadoop_kmeans(fresh_cluster(nodes, cost_model),
                                     points, centroids)
        hadoop_times.append(h_m.total_seconds())
        # Both systems must agree on the clustering itself.
        for cid, pos in h_cents.items():
            got = rex_cents.get(cid)
            if got and got != (None, None):
                assert abs(got[0] - pos[0]) < 1e-6
                assert abs(got[1] - pos[1]) < 1e-6

    xs = [float(n) for n in sizes]
    return FigureResult(
        figure="Figure 5",
        title="K-means scalability vs data size (runtime, log-log)",
        series=[
            Series("Hadoop LB", hadoop_times, x=xs),
            Series("REX Δ", rex_times, x=xs),
        ],
        headline={
            "speedup_smallest": speedup(hadoop_times[0], rex_times[0]),
            "speedup_largest": speedup(hadoop_times[-1], rex_times[-1]),
        },
        notes=[f"sizes {list(sizes)} points, k={K_CLUSTERS}, {nodes} nodes; "
               "paper sweeps 382k..382M tuples"],
    )
