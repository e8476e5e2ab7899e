"""Ablations of the design choices DESIGN.md calls out.

These are not paper figures; they isolate individual REX mechanisms:

1. convergence-threshold sweep (how much work the Δ threshold saves);
2. UDC input batching (Section 4.2's reflection amortization);
3. deterministic-function caching (Section 5.1);
4. pre-aggregation pushdown (Section 5.2) — on vs off;
5. checkpoint replication factor (Section 4.3) — traffic vs recoverability;
6. sort-based vs hash-based grouping (Section 6.3's explanation of why
   REX beats Hadoop even running identical code).
"""

from __future__ import annotations

from typing import Dict, List

from repro.algorithms import run_pagerank, run_sssp
from repro.bench.common import (
    PAPER_DBPEDIA_EDGES,
    Claim,
    FigureResult,
    Series,
    claims,
    fresh_cluster,
    graph_cluster,
    scaled_cost_model,
    steps,
)
from repro.cluster.costs import CostModel
from repro.datasets import dbpedia_like, lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.rql import RQLSession
from repro.runtime import ExecOptions
from repro.udf import udf


NODES = 6  # cluster size of the graph ablations


@claims(
    Claim("tuples processed change per tighter threshold", "a tighter Δ "
          "threshold never propagates less work", ">=", 0,
          measure=steps("tuples processed")),
    Claim("work_ratio_exact_vs_1pct", "the threshold truncates most of "
          "the Δ stream", ">", 2.0),
)
def threshold_sweep(n_vertices: int = 1500, degree: float = 8.0,
                    thresholds=(0.05, 0.01, 0.001, 0.0),
                    seed: int = 81) -> FigureResult:
    """Ablation 1: the Δ threshold trades accuracy for propagated work."""
    edges = dbpedia_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges))
    tuples: List[float] = []
    iters: List[float] = []
    for tol in thresholds:
        _, m = run_pagerank(graph_cluster(edges, NODES, cm, replication=2),
                            mode="delta", tol=tol, max_strata=120)
        tuples.append(float(m.total_tuples()))
        iters.append(float(m.num_iterations))
    xs = [t if t > 0 else 1e-6 for t in thresholds]
    return FigureResult(
        figure="Ablation 1",
        title="Convergence threshold vs total work (PageRank)",
        series=[Series("tuples processed", tuples, x=xs),
                Series("iterations", iters, x=xs)],
        headline={"work_ratio_exact_vs_1pct": tuples[-1] / tuples[1]},
        notes=["looser thresholds truncate more of the Δ stream: less "
               "work, earlier convergence, small score error"],
    )


@claims(Claim("batching_speedup", "Section 4.2: input batching amortizes "
             "UDC invocation overhead", ">", 1.2))
def batching_ablation(n_vertices: int = 1500, seed: int = 82
                      ) -> FigureResult:
    """Ablation 2: UDC input batching amortizes invocation overhead."""
    edges = dbpedia_like(n_vertices, avg_out_degree=8, seed=seed)
    times: Dict[int, float] = {}
    for batch in (1, 64):
        cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges),
                               CostModel(udf_batch_size=batch))
        _, m = run_pagerank(graph_cluster(edges, NODES, cm, replication=2),
                            mode="delta", tol=0.01)
        times[batch] = m.total_seconds()
    return FigureResult(
        figure="Ablation 2",
        title="UDC input batching (Section 4.2)",
        series=[Series(f"batch={b}", [t]) for b, t in times.items()],
        headline={"batching_speedup": times[1] / times[64]},
        notes=["batching divides the per-call reflection overhead across "
               "the batch"],
    )


@claims(Claim("call_reduction", "Section 5.1: caching a deterministic "
             "function's results saves repeated invocations", ">", 50.0))
def caching_ablation(n_rows: int = 5000) -> FigureResult:
    """Ablation 3: deterministic-UDF result caching (Section 5.1)."""
    rows = lineitem(n_rows)

    calls = {"n": 0}

    @udf(in_types=["Integer"], out_types=["Double"], deterministic=True)
    def costly_rate(linenumber):
        calls["n"] += 1
        return 1.0 + linenumber / 100.0

    def run_query(enable_caching):
        calls["n"] = 0
        cluster = fresh_cluster(4)
        cluster.create_table("lineitem", LINEITEM_SCHEMA, rows, None)
        from repro.udf import UDFRegistry

        session = RQLSession(cluster,
                             registry=UDFRegistry(enable_caching=enable_caching))
        session.register(costly_rate)
        r = session.execute(
            "SELECT orderkey, costly_rate(linenumber) FROM lineitem")
        assert len(r.rows) == n_rows
        return calls["n"]

    uncached_calls = run_query(False)
    cached_calls = run_query(True)
    return FigureResult(
        figure="Ablation 3",
        title="Deterministic-function caching (Section 5.1)",
        series=[Series("invocations uncached", [float(uncached_calls)]),
                Series("invocations cached", [float(cached_calls)])],
        headline={"call_reduction": uncached_calls / max(cached_calls, 1)},
        notes=["only 7 distinct linenumber values exist, so the cache "
               "absorbs nearly every invocation"],
    )


@claims(
    Claim("bytes_saved_ratio", "Section 5.2: pre-aggregation cuts the "
          "bytes shipped", ">", 2.0),
    Claim("time_speedup", "Section 5.2: pre-aggregation cuts the runtime",
          ">", 1.0),
)
def preagg_ablation(n_rows: int = 20_000) -> FigureResult:
    """Ablation 4: pre-aggregation pushdown on vs off (Section 5.2)."""
    rows = lineitem(n_rows)
    results = {}
    for optimize in (False, True):
        cluster = fresh_cluster(8, scaled_cost_model(60_000_000 / n_rows))
        cluster.create_table("lineitem", LINEITEM_SCHEMA, rows, None)
        session = RQLSession(cluster, optimize=optimize)
        r = session.execute(
            "SELECT linenumber, sum(tax), count(*) FROM lineitem "
            "GROUP BY linenumber")
        results[optimize] = (r.metrics.total_seconds(),
                            r.metrics.total_bytes(), sorted(r.rows))
    for a, b in zip(results[False][2], results[True][2]):
        assert a[0] == b[0] and a[2] == b[2], "pre-agg changed results"
        assert abs(a[1] - b[1]) < 1e-9, "pre-agg changed sums"
    return FigureResult(
        figure="Ablation 4",
        title="Pre-aggregation pushdown (Section 5.2)",
        series=[Series("no pre-agg seconds", [results[False][0]]),
                Series("optimized seconds", [results[True][0]]),
                Series("no pre-agg bytes", [float(results[False][1])]),
                Series("optimized bytes", [float(results[True][1])])],
        headline={
            "bytes_saved_ratio": results[False][1] / max(results[True][1], 1),
            "time_speedup": results[False][0] / results[True][0],
        },
        notes=["identical query results either way"],
    )


@claims(Claim("bytes sent change per added replica", "Section 4.3: each "
             "checkpoint replica costs network traffic", ">", 0,
             measure=steps("bytes sent")))
def replication_sweep(n_vertices: int = 1200,
                      factors=(2, 3, 5), seed: int = 83) -> FigureResult:
    """Ablation 5: checkpoint replication factor (Section 4.3)."""
    edges = dbpedia_like(n_vertices, avg_out_degree=6, seed=seed)
    cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges))
    bytes_sent: List[float] = []
    for rf in factors:
        cluster = graph_cluster(edges, NODES, cm, replication=3,
                                source=0)
        opts = ExecOptions(checkpoint_replication=rf)
        _, m = run_sssp(cluster, options=opts)
        bytes_sent.append(float(m.total_bytes()))
    return FigureResult(
        figure="Ablation 5",
        title="Checkpoint replication factor vs network traffic",
        series=[Series("bytes sent", bytes_sent,
                       x=[float(f) for f in factors])],
        headline={"traffic_rf5_over_rf2": bytes_sent[-1] / bytes_sent[0]},
        notes=["each extra replica re-ships every Δᵢ tuple once more"],
    )


@claims(Claim("sort_penalty", "Section 6.3: hash-based grouping avoids "
             "the expensive sort of Hadoop's shuffle", ">", 1.3))
def sort_vs_hash_ablation(n_vertices: int = 1500, seed: int = 84
                          ) -> FigureResult:
    """Ablation 6: what if REX's exchanges sorted like Hadoop's shuffle?

    Section 6.3: "the architecture of REX avoids the expensive sorting
    step used in Hadoop and HaLoop and uses hash-based GROUP BY instead."
    We emulate a sort-based REX by inflating the per-tuple hash cost to a
    comparison-based ``log2(n)`` equivalent at benchmark scale.
    """
    edges = dbpedia_like(n_vertices, avg_out_degree=8, seed=seed)
    scale = PAPER_DBPEDIA_EDGES / len(edges)
    import math

    hash_cm = scaled_cost_model(scale)
    sort_per_tuple = hash_cm.compare_cost * math.log2(PAPER_DBPEDIA_EDGES)
    sort_cm = scaled_cost_model(scale, CostModel(
        hash_op_cost=CostModel().hash_op_cost + sort_per_tuple))
    times = {}
    for label, cm in (("hash grouping", hash_cm), ("sorted grouping",
                                                   sort_cm)):
        _, m = run_pagerank(graph_cluster(edges, NODES, cm, replication=2),
                            mode="delta", tol=0.01)
        times[label] = m.total_seconds()
    return FigureResult(
        figure="Ablation 6",
        title="Hash-based vs sort-based grouping inside REX",
        series=[Series(k, [v]) for k, v in times.items()],
        headline={"sort_penalty":
                  times["sorted grouping"] / times["hash grouping"]},
        notes=["one of the reasons REX wrap beats HaLoop on identical "
               "code (Section 6.3)"],
    )


ALL_ABLATIONS = (
    threshold_sweep,
    batching_ablation,
    caching_ablation,
    preagg_ablation,
    replication_sweep,
    sort_vs_hash_ablation,
)
