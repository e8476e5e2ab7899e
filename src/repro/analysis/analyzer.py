"""Analyzer entry points: run every rule pass over a plan.

``analyze`` dispatches on the plan kind — logical trees get the
structural rule set (stratification, termination, pre-aggregation,
partitioning, schemas); physical plans get the structural subset.  The
delta-polarity (REX3xx) and column-lineage (REX4xx) passes run on the
physical tree in both cases: a logical tree is lowered first, so their
verdicts are about the operators the executor builds.  REX404-REX406
are the rewrite pass's decisions on the facts of that one inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.analysis.absint import PlanFacts, infer, split_plan
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.lineage import infer_lineage
from repro.analysis.physical import PHYSICAL_PASSES
from repro.analysis.rules import LOGICAL_PASSES
from repro.optimizer.logical import LNode, table_arity
from repro.optimizer.physical import lower
from repro.optimizer.rewrite import RewriteDecision, rewrite_with
from repro.runtime.plan import PhysicalPlan, PNode


@dataclass
class PlanAnalysis:
    """One analysis of a plan: its report and the facts the report was
    read from.  ``plan`` is the lowered plan that ``properties``
    (polarity), ``lineage`` and ``rewrites`` describe; all are empty when
    a logical error kept the plan from being lowered."""

    report: DiagnosticReport
    plan: Optional[PhysicalPlan] = None
    properties: Optional[PlanFacts] = None
    lineage: Optional[PlanFacts] = None
    rewrites: List[RewriteDecision] = field(default_factory=list)


def analyze_plan(root: LNode) -> PlanAnalysis:
    """Run all logical rule passes, then — when they find no error — the
    polarity, lineage and rewrite passes over ``lower(root)``.  A plan
    with a logical error is not lowered."""
    report = DiagnosticReport()
    for rule in LOGICAL_PASSES:
        rule(root, report.add)
    if report.has_errors():
        return PlanAnalysis(report)
    return _dataflow(lower(root), report, table_arity(root))


def analyze_logical(root: LNode) -> DiagnosticReport:
    """The report of :func:`analyze_plan`."""
    return analyze_plan(root).report


def analyze_physical(plan: Union[PhysicalPlan, PNode],
                     table_arity: Optional[Dict[str, int]] = None
                     ) -> DiagnosticReport:
    """Run the structural passes over a physical plan (or bare tree).

    ``table_arity`` maps a table to its width, as the executor reads it
    from the catalog; without it a scan's width is unknown and no
    exchange is narrowed (REX406)."""
    root, _ = split_plan(plan)
    report = DiagnosticReport()
    for rule in PHYSICAL_PASSES:
        rule(root, report.add)
    return _dataflow(plan, report, table_arity).report


def _dataflow(plan: Union[PhysicalPlan, PNode], report: DiagnosticReport,
              table_arity: Optional[Dict[str, int]] = None
              ) -> PlanAnalysis:
    properties, diagnostics = infer(plan)
    report.extend(diagnostics)
    lineage, diagnostics = infer_lineage(plan, table_arity=table_arity)
    report.extend(diagnostics)
    _, rewrites = rewrite_with(split_plan(plan)[0], properties, lineage,
                               table_arity)
    report.extend(d.diagnostic() for d in rewrites)
    return PlanAnalysis(report, plan, properties, lineage, rewrites)


def analyze(plan: Union[LNode, PhysicalPlan, PNode],
            table_arity: Optional[Dict[str, int]] = None) -> DiagnosticReport:
    """Analyze a logical tree, physical plan, or bare physical tree.  A
    logical tree reads its widths from its scans; ``table_arity`` gives
    them for a physical one (see :func:`analyze_physical`)."""
    if isinstance(plan, LNode):
        return analyze_logical(plan)
    return analyze_physical(plan, table_arity)
