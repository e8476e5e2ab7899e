"""Analyzer entry points, and the one place a plan is prepared.

Every plan-time pass — delta polarity (REX3xx), column lineage
(REX4xx), the rewrites (REX404-REX406) and fusion — runs in a
:class:`PlanAnalysis` made by :func:`prepare`.  Both front doors go
through it: ``RQLSession.prepare`` for RQL, and ``QueryExecutor.execute``
for a bare physical plan, prepared once on entry.  The executor only
builds what the preparation returns.

:func:`analyze_plan` runs the structural rule passes for the plan's
kind (logical trees get the full REX0xx set, physical plans the
structural subset), lowers a logical tree, and reports every dataflow
pass of its preparation.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional, Union

from repro.analysis import absint
from repro.analysis.absint import NodeProperties, PlanFacts, split_plan
from repro.analysis.diagnostics import DiagnosticReport
from repro.analysis.lineage import infer_lineage
from repro.analysis.physical import PHYSICAL_PASSES
from repro.analysis.rules import LOGICAL_PASSES
from repro.optimizer.fusion import FusionDecision, fuse_plan
from repro.optimizer.logical import LNode, table_arity as scan_widths
from repro.optimizer.physical import lower
from repro.optimizer.rewrite import RewriteDecision, _no_candidates, \
    rewrite_with
from repro.runtime.plan import PhysicalPlan, PNode


class PlanAnalysis:
    """A plan prepared once: the lowered ``plan``, the facts inferred on
    it, and ``root``, the rewritten and fused tree the executor builds.

    Each pass runs at most once, on first read.  ``properties``
    (polarity) and ``lineage`` are read by the rewrite pass when its
    structural pre-gate finds a candidate, by the sanitizer's proofs and
    by a report; ``rewrites`` and ``fusion`` are the decisions behind
    ``root`` (none when ``rewrite`` / ``fuse`` is off).  Every finding of
    a pass that ran is in ``report``.  ``plan`` is None, and every fact
    empty, when a logical error kept the plan from being lowered.
    """

    def __init__(self, report: DiagnosticReport,
                 plan: Union[PhysicalPlan, PNode, None] = None,
                 table_arity: Optional[Dict[str, int]] = None):
        self.report = report
        self.plan = plan
        self.table_arity = table_arity
        self.rewrite = self.fuse = True
        self._properties: Optional[PlanFacts] = None
        self._lineage: Optional[PlanFacts] = None
        self._rewritten = None  # (tree, decisions, rebuilt-node pairs)
        self._root: Optional[PNode] = None
        self._fusion: List[FusionDecision] = []
        #: ``id`` of a rebuilt node of ``root`` -> the node of ``plan``
        #: it was rebuilt from.
        self._sources: Dict[int, PNode] = {}

    @property
    def properties(self) -> Optional[PlanFacts]:
        if self._properties is None and self.plan is not None:
            self._properties, diagnostics = absint.infer(self.plan)
            self.report.extend(diagnostics)
        return self._properties

    @property
    def lineage(self) -> Optional[PlanFacts]:
        if self._lineage is None and self.plan is not None:
            self._lineage, diagnostics = infer_lineage(
                self.plan, table_arity=self.table_arity)
            self.report.extend(diagnostics)
        return self._lineage

    def _rewrite(self):
        """The rewrite pass.  Unless the facts are inferred already, the
        pre-gate skips it, facts included, where no rewrite can apply."""
        if self._rewritten is None:
            tree = split_plan(self.plan)[0]
            if self._properties is None and _no_candidates(tree):
                self._rewritten = (tree, [], [])
            else:
                rebuilds: list = []
                rewritten, decisions = rewrite_with(
                    tree, self.properties, self.lineage, self.table_arity,
                    rebuilds)
                self.report.extend(d.diagnostic() for d in decisions)
                self._rewritten = (rewritten, decisions, rebuilds)
        return self._rewritten

    @property
    def rewrites(self) -> List[RewriteDecision]:
        return self._rewrite()[1] if self.plan and self.rewrite else []

    @property
    def root(self) -> PNode:
        """``plan`` rewritten, then fused: the tree the executor builds."""
        if self._root is None:
            tree, _, rebuilds = (self._rewrite() if self.rewrite
                                 else (split_plan(self.plan)[0], [], []))
            rebuilds, self._fusion = list(rebuilds), []
            if self.fuse:
                tree, self._fusion = fuse_plan(tree, rebuilds)
            # ``rebuilds`` keeps every rebuilt node alive, so no two share
            # an id; only the final tree's entries are kept.
            source: Dict[int, PNode] = {}
            for old, new in rebuilds:
                source[id(new)] = source.get(id(old), old)
            self._sources = {id(n): source[id(n)] for n in tree.walk()
                             if id(n) in source}
            self._root = tree
        return self._root

    @property
    def fusion(self) -> List[FusionDecision]:
        if self.plan is not None:
            self.root  # fuses, once
        return self._fusion

    def polarity_of(self, node: PNode) -> Optional[NodeProperties]:
        """The polarity facts of a node of :attr:`root` (the sanitizer's
        proofs): the one inference on ``plan``, read through the node it
        was rebuilt from.  Rewrites move filters only over proven
        insert-only streams and fusion only collapses stateless chains,
        so a stateful node's facts hold for its rebuilt twin."""
        return self.properties.of(self._sources.get(id(node), node))

    def configured(self, rewrite: bool, fuse: bool) -> "PlanAnalysis":
        """This analysis under the executor's rewrite and fusion
        settings, sharing every pass already run."""
        if (rewrite, fuse) == (self.rewrite, self.fuse):
            return self
        other = copy.copy(self)
        other.rewrite, other.fuse, other._root = rewrite, fuse, None
        return other


def prepare(plan: Union[PhysicalPlan, PNode],
            table_arity: Optional[Dict[str, int]] = None,
            report: Optional[DiagnosticReport] = None) -> PlanAnalysis:
    """Prepare a physical plan once; each pass runs when first read and
    adds its findings to ``report``.  ``table_arity`` maps a table to its
    width, as the executor reads it from the catalog; without it a
    scan's width is unknown and no exchange is narrowed (REX406)."""
    return PlanAnalysis(DiagnosticReport() if report is None else report,
                        plan, table_arity)


def analyze_plan(plan: Union[LNode, PhysicalPlan, PNode],
                 table_arity: Optional[Dict[str, int]] = None
                 ) -> PlanAnalysis:
    """The structural rule passes for the plan's kind, then the prepared
    (lowered) plan with every dataflow pass in its report.  A logical
    tree reads its widths from its scans and is not lowered when a
    logical pass finds an error; ``table_arity`` gives a physical
    plan's widths."""
    report = DiagnosticReport()
    if isinstance(plan, LNode):
        for rule in LOGICAL_PASSES:
            rule(plan, report.add)
        if report.has_errors():
            return PlanAnalysis(report)
        plan, table_arity = lower(plan), scan_widths(plan)
    else:
        for rule in PHYSICAL_PASSES:
            rule(split_plan(plan)[0], report.add)
    analysis = prepare(plan, table_arity, report)
    # Facts first, in report order: with them inferred, the rewrite pass
    # runs in full and decides every candidate.
    analysis.properties, analysis.lineage, analysis.rewrites
    return analysis


def analyze(plan: Union[LNode, PhysicalPlan, PNode],
            table_arity: Optional[Dict[str, int]] = None) -> DiagnosticReport:
    """The report of :func:`analyze_plan`: of a logical tree, a physical
    plan or a bare physical tree."""
    return analyze_plan(plan, table_arity).report


analyze_logical = analyze_physical = analyze
