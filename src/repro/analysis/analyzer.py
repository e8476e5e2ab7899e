"""Analyzer entry points: run every rule pass over a plan.

``analyze`` dispatches on the plan kind — logical trees get the full
rule set (stratification, termination, pre-aggregation, partitioning,
delta soundness, schemas); physical plans get the structural subset.
"""

from __future__ import annotations

from typing import Union

from repro.analysis.absint import check_polarity
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.lineage import check_lineage
from repro.analysis.physical import PHYSICAL_PASSES
from repro.analysis.rules import LOGICAL_PASSES
from repro.optimizer.logical import LNode
from repro.runtime.plan import PhysicalPlan, PNode


def analyze_logical(root: LNode) -> DiagnosticReport:
    """Run all logical rule passes; returns the combined report."""
    report = DiagnosticReport()
    for rule in LOGICAL_PASSES:
        rule(root, report.add)
    check_polarity(root, report.add)
    check_lineage(root, report.add)
    return report


def analyze_physical(plan: Union[PhysicalPlan, PNode]) -> DiagnosticReport:
    """Run the structural passes over a physical plan (or bare tree)."""
    root = plan.root if isinstance(plan, PhysicalPlan) else plan
    report = DiagnosticReport()
    for rule in PHYSICAL_PASSES:
        rule(root, report.add)
    check_polarity(root, report.add)
    check_lineage(root, report.add)
    return report


def analyze(plan: Union[LNode, PhysicalPlan, PNode]) -> DiagnosticReport:
    """Analyze a logical tree, physical plan, or bare physical tree."""
    if isinstance(plan, LNode):
        return analyze_logical(plan)
    return analyze_physical(plan)
