"""Analyzer entry points: run every rule pass over a plan.

``analyze`` dispatches on the plan kind — logical trees get the
structural rule set (stratification, termination, pre-aggregation,
partitioning, schemas); physical plans get the structural subset.  The
delta-polarity (REX3xx) and column-lineage (REX4xx) passes run on the
physical tree in both cases: a logical tree is lowered first, so their
verdicts are about the operators the executor builds.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from repro.analysis.absint import check_polarity
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.lineage import check_lineage
from repro.analysis.physical import PHYSICAL_PASSES
from repro.analysis.rules import LOGICAL_PASSES
from repro.optimizer.logical import LNode, table_arity
from repro.optimizer.physical import lower
from repro.runtime.plan import PhysicalPlan, PNode


def analyze_logical(root: LNode) -> DiagnosticReport:
    """Run all logical rule passes, then — when they find no error — the
    polarity and lineage passes over ``lower(root)``; returns the
    combined report.  A plan with a logical error is not lowered."""
    report = DiagnosticReport()
    for rule in LOGICAL_PASSES:
        rule(root, report.add)
    if not report.has_errors():
        _check_dataflow(lower(root).root, report, table_arity(root))
    return report


def analyze_physical(plan: Union[PhysicalPlan, PNode]) -> DiagnosticReport:
    """Run the structural passes over a physical plan (or bare tree)."""
    root = plan.root if isinstance(plan, PhysicalPlan) else plan
    report = DiagnosticReport()
    for rule in PHYSICAL_PASSES:
        rule(root, report.add)
    _check_dataflow(root, report)
    return report


def _check_dataflow(root: PNode, report: DiagnosticReport,
                    table_arity: Optional[Dict[str, int]] = None) -> None:
    check_polarity(root, report.add)
    check_lineage(root, report.add, table_arity=table_arity)


def analyze(plan: Union[LNode, PhysicalPlan, PNode]) -> DiagnosticReport:
    """Analyze a logical tree, physical plan, or bare physical tree."""
    if isinstance(plan, LNode):
        return analyze_logical(plan)
    return analyze_physical(plan)
