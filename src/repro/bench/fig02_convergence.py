"""Figure 2: PageRank convergence behaviour under Δᵢ iteration.

(a) per-page: the iteration at which each page last changed by more than
the threshold (the paper shows a scatter of per-page convergence points);
(b) overall: the fraction of non-converged pages per iteration.
"""

from __future__ import annotations

from typing import Dict, List

from repro.algorithms.pagerank import PRFixpointHandler, pagerank_plan
from repro.bench.common import (
    DBPEDIA_DEGREE,
    DBPEDIA_VERTICES,
    PAPER_DBPEDIA_EDGES,
    Claim,
    FigureResult,
    Series,
    claims,
    graph_cluster,
    scaled_cost_model,
)
from repro.datasets import dbpedia_like
from repro.runtime import ExecOptions, QueryExecutor


class _RecordingHandler(PRFixpointHandler):
    """PRFixpointHandler that records each page's admission strata."""

    #: Class-level sink: handler instances are per-worker, the recorder is
    #: shared for the duration of one experiment run.
    admissions: Dict[int, List[int]] = {}
    current_stratum: int = 0

    def update(self, while_relation, delta):
        out = super().update(while_relation, delta)
        if out:
            page = delta.row[0]
            type(self).admissions.setdefault(page, []).append(
                type(self).current_stratum)
        return out


@claims(
    Claim("iterations", "20-30 iterations are typical for web and social "
          "graphs", "<=", (15, 60)),
    Claim("monotone_decrease", "the overall number of non-converged pages "
          "steadily decreases (Fig 2b)", "==", 1.0),
    Claim("iterations at which a page converges", "individual pages need "
          "different numbers of iterations to converge (Fig 2a)", ">=", 5,
          measure=lambda r: sum(
              1 for h in r.get("pages converging at iteration").values
              if h > 0)),
)
def run(n_vertices: int = DBPEDIA_VERTICES, degree: float = DBPEDIA_DEGREE,
        nodes: int = 8, tol: float = 0.01, seed: int = 7) -> FigureResult:
    edges = dbpedia_like(n_vertices, avg_out_degree=degree, seed=seed)
    cm = scaled_cost_model(PAPER_DBPEDIA_EDGES / len(edges))
    cluster = graph_cluster(edges, nodes, cm)

    _RecordingHandler.admissions = {}
    _RecordingHandler.current_stratum = 0
    plan = pagerank_plan(mode="delta", tol=tol)
    plan = _with_recording_handler(plan, tol)

    def tick(stratum, executor):
        _RecordingHandler.current_stratum = stratum + 1
        return False

    opts = ExecOptions(max_strata=80, termination=tick)
    result = QueryExecutor(cluster, opts).execute(plan)

    total_pages = len(result.rows)
    iterations = result.metrics.num_iterations
    # (a) per-page: iteration of last above-threshold change.
    last_change = {page: max(strata)
                   for page, strata in _RecordingHandler.admissions.items()}
    histogram = [0] * (iterations + 1)
    for it in last_change.values():
        histogram[min(it, iterations)] += 1
    # (b) overall: pages not yet converged entering each iteration.
    non_converged = []
    remaining = total_pages
    for i in range(iterations):
        non_converged.append(100.0 * remaining / max(total_pages, 1))
        remaining -= histogram[i]
    deltas = result.metrics.delta_series()
    return FigureResult(
        figure="Figure 2",
        title="PageRank convergence: per-page histogram (a) and overall "
              "non-converged % (b)",
        series=[
            Series("pages converging at iteration",
                   [float(h) for h in histogram]),
            Series("% non-converged", non_converged),
            Series("Δi set size", [float(d) for d in deltas]),
        ],
        headline={
            "iterations": float(iterations),
            "median_page_convergence": float(_median(last_change.values())),
            "monotone_decrease": 1.0 if all(
                a >= b for a, b in zip(non_converged, non_converged[1:])
            ) else 0.0,
        },
    )


def _with_recording_handler(plan, tol):
    """Rebuild the plan with the recording fixpoint handler."""
    from repro.runtime.plan import PFixpoint, PhysicalPlan

    def rebuild(node):
        if isinstance(node, PFixpoint):
            return PFixpoint(
                key_fn=node.key_fn, semantics=node.semantics,
                while_handler_factory=lambda: _RecordingHandler(tol),
                admit_unchanged=node.admit_unchanged,
                children=tuple(rebuild(c) for c in node.children))
        if node.children:
            import dataclasses

            return dataclasses.replace(
                node, children=tuple(rebuild(c) for c in node.children))
        return node

    return PhysicalPlan(rebuild(plan.root))


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2] if ordered else 0
