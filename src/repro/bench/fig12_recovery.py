"""Figure 12: recovery from node failure (shortest path, DBPedia-like).

A node fails after iteration k (k swept over the first iterations); the
query completes either by restarting from scratch on the survivors
("Restart") or by resuming from the replicated Δ-set checkpoints
("Incremental"), compared against a failure-free run.  Replication
factor 3, as in the paper.
"""

from __future__ import annotations

from typing import List

from repro.algorithms import run_sssp, sssp_reference
from repro.bench.common import (
    PAPER_DBPEDIA_EDGES,
    Claim,
    FigureResult,
    Series,
    claims,
    graph_cluster,
    scaled_cost_model,
)
from repro.datasets import dbpedia_like
from repro.runtime import ExecOptions, FailureSpec

DEFAULT_FAILURE_POINTS = (1, 3, 5, 8, 12, 16, 20)


@claims(
    Claim("Incremental", "incremental recovery beats restart at every "
          "failure point", "<", "Restart"),
    Claim("Incremental", "a failure always costs time over the "
          "failure-free run", ">", "no_failure_seconds"),
    Claim("overhead_ratio", "the incremental strategy halves the recovery "
          "overhead of restart (~2x)", ">", 2.0,
          gap="incremental recovery beats restart by more than the paper's "
              "factor; the simulated recovery costs are not calibrated to "
              "the paper's cluster"),
)
def run(n_vertices: int = 2000, degree: float = 8.0, nodes: int = 8,
        failure_points=DEFAULT_FAILURE_POINTS, seed: int = 7
        ) -> FigureResult:
    edges = dbpedia_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges))
    expected = {v: float(d) for v, d in sssp_reference(edges, 0).items()}

    def rex_cluster():
        return graph_cluster(edges, nodes, cm, replication=3, source=0)

    _, clean_m = run_sssp(rex_cluster())
    baseline = clean_m.total_seconds()

    restart_times: List[float] = []
    incremental_times: List[float] = []
    for k in failure_points:
        got, m = run_sssp(rex_cluster(), options=ExecOptions(
            failure=FailureSpec(after_stratum=k), recovery="restart"))
        assert {v: d for v, (_, d) in got.items()} == expected
        restart_times.append(m.total_seconds())

        got, m = run_sssp(rex_cluster(), options=ExecOptions(
            failure=FailureSpec(after_stratum=k), recovery="incremental"))
        assert {v: d for v, (_, d) in got.items()} == expected
        incremental_times.append(m.total_seconds())

    xs = [float(k) for k in failure_points]
    avg_restart_overhead = (sum(restart_times) / len(restart_times)
                            - baseline)
    avg_incremental_overhead = (sum(incremental_times)
                                / len(incremental_times) - baseline)
    return FigureResult(
        figure="Figure 12",
        title="Recovery: total runtime vs failure iteration "
              "(SSSP, DBPedia-like, replication 3)",
        series=[
            Series("Restart", restart_times, x=xs),
            Series("Incremental", incremental_times, x=xs),
            Series("No failure", [baseline] * len(xs), x=xs),
        ],
        headline={
            "no_failure_seconds": baseline,
            "avg_restart_overhead": avg_restart_overhead,
            "avg_incremental_overhead": avg_incremental_overhead,
            "overhead_ratio": (avg_restart_overhead
                               / max(avg_incremental_overhead, 1e-12)),
        },
        notes=["results verified bit-identical to the failure-free run "
               "for every strategy and failure point"],
    )
