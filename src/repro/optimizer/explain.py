"""Plan explanation: render logical plans as indented trees.

``explain`` over the compiled PageRank query reproduces the structure of
the paper's Figure 1 (base case feeding a fixpoint whose recursive side
joins the fixpoint receiver with the graph, aggregates, and loops).

``properties=True`` appends each node's inferred-properties column from
the abstract interpretation (delta polarity and monotonicity — see
``docs/analysis.md``), e.g. ``[Δ=insert-only]``, plus the column-lineage
analysis's per-edge live-column annotation, e.g. ``[live={0,1}/3]``
(columns 0-1 of 3 are read downstream).  Both analyses run on the
lowered plan; each logical node shows the facts of the operator it
lowers to.  A tree that cannot be lowered renders without them.
"""

from __future__ import annotations

from typing import List, Optional

from repro.optimizer.cost import CostEstimator
from repro.optimizer.logical import LNode, table_arity


def explain(node: LNode, estimator: Optional[CostEstimator] = None,
            properties=True) -> str:
    """Multi-line tree rendering, optionally annotated with estimates
    and inferred delta-polarity properties.  ``properties`` may also be
    an analysis of ``node`` already made
    (:class:`~repro.analysis.analyzer.PlanAnalysis`), whose facts are
    read instead of lowering ``node`` again."""
    if properties is True:
        from repro.analysis.analyzer import prepare
        from repro.common.errors import ReproError
        from repro.optimizer.physical import lower

        try:
            properties = prepare(lower(node), table_arity(node))
        except ReproError:
            properties = None
    props = lineage = None
    if properties:
        props, lineage = properties.properties, properties.lineage
    lines: List[str] = []
    _render(node, lines, prefix="", is_last=True, estimator=estimator,
            props=props, lineage=lineage)
    return "\n".join(lines)


def _render(node: LNode, lines: List[str], prefix: str, is_last: bool,
            estimator: Optional[CostEstimator], props=None,
            lineage=None) -> None:
    connector = "" if not lines else ("└─ " if is_last else "├─ ")
    annotation = ""
    if estimator is not None:
        est = estimator.estimate(node)
        annotation = f"  [rows≈{est.rows:.0f}]"
    if props is not None:
        inferred = props.annotation(node)
        if inferred:
            annotation += f"  [{inferred}]"
    if lineage is not None:
        live = lineage.annotation(node)
        if live:
            annotation += f"  [{live}]"
    schema_cols = ", ".join(f.name for f in node.schema)
    lines.append(f"{prefix}{connector}{node.label()} "
                 f"({schema_cols}){annotation}")
    child_prefix = prefix + ("" if not prefix and len(lines) == 1
                             else ("   " if is_last else "│  "))
    for i, child in enumerate(node.children):
        _render(child, lines, child_prefix, i == len(node.children) - 1,
                estimator, props, lineage)
