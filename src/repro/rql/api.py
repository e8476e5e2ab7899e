"""The public query interface: RQL text in, results out.

A :class:`RQLSession` binds a cluster, a UDF registry, and an optimizer,
mirroring the paper's requestor-node flow: parse, compile, optimize,
disseminate, execute, union results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.analysis.analyzer import PlanAnalysis, analyze_plan
from repro.analysis.diagnostics import DiagnosticReport
from repro.cluster.cluster import Cluster
from repro.optimizer.exchanges import add_exchanges
from repro.optimizer.explain import explain as explain_plan
from repro.optimizer.logical import LNode
from repro.optimizer.physical import lower
from repro.optimizer.planner import Optimizer
from repro.common.errors import PlanValidationError, TypeCheckError
from repro.rql.compiler import Compiler, Presentation
from repro.rql.parser import parse
from repro.runtime.executor import ExecOptions, QueryExecutor, QueryResult
from repro.udf.registry import UDFRegistry


@dataclass
class PreparedQuery:
    """A query compiled once, with its exchanges placed, and analysed
    once: the logical tree, the top-level ORDER BY / LIMIT stripped from
    it (sort keys as output positions), and the one
    :class:`~repro.analysis.analyzer.PlanAnalysis` whose lowered plan
    runs."""

    node: LNode
    presentation: Optional[Presentation]
    analysis: PlanAnalysis


class RQLSession:
    """Executes RQL queries against one cluster."""

    def __init__(self, cluster: Cluster,
                 registry: Optional[UDFRegistry] = None,
                 optimize: bool = True):
        self.cluster = cluster
        self.registry = registry or UDFRegistry()
        self.optimize = optimize
        self.optimizer = Optimizer(cluster)

    def register(self, obj: Any, name: Optional[str] = None) -> str:
        """Register user code (UDF, UDA, join/while delta handler).

        Like the paper's direct use of class files, no DDL is needed —
        anything shaped like a function or handler is introspected.
        """
        return self.registry.register(obj, name)

    def _apply_presentation(self, rows, presentation: Presentation):
        order_by, limit = presentation
        for pos, descending in reversed(order_by):
            rows = sorted(rows,
                          key=lambda r: (r[pos] is None, r[pos]),
                          reverse=descending)
        if limit is not None:
            rows = rows[:limit]
        return list(rows)

    def logical_plan(self, text: str,
                     fixpoint_handler: Optional[str] = None):
        """Parse and compile to an (optimized) logical plan.

        ``fixpoint_handler`` names a registered while-state delta handler
        to attach to the query's fixpoint (Section 3.3's fourth handler
        form) — e.g. monotone-min refinement for shortest paths, where
        plain keyed replacement would let a later, longer path overwrite
        the source's distance.
        """
        return self._plan(text, fixpoint_handler)[0]

    def _plan(self, text: str, fixpoint_handler: Optional[str]):
        """The logical plan and the top-level ORDER BY / LIMIT stripped
        from it."""
        compiler = Compiler(self.cluster.catalog, self.registry)
        node = compiler.compile(parse(text))
        if fixpoint_handler is not None:
            from repro.optimizer.logical import LFixpoint

            if not isinstance(node, LFixpoint):
                raise TypeCheckError(
                    "fixpoint_handler given but the query is not recursive")
            node.while_handler_factory = \
                self.registry.while_handler_factory(fixpoint_handler)
        if self.optimize:
            node = self.optimizer.optimize(node)
        return node, compiler.presentation

    def prepare(self, text: str,
                fixpoint_handler: Optional[str] = None) -> PreparedQuery:
        """Compile a query's chosen plan, place its exchanges
        (``add_exchanges`` adds nothing to an optimized plan) and analyse
        it: the structural rule passes over the logical tree, then the
        lowered plan's preparation
        (:func:`~repro.analysis.analyzer.prepare`), which the executor
        builds from without repeating a pass."""
        node, presentation = self._plan(text, fixpoint_handler)
        node = add_exchanges(node)
        return PreparedQuery(node, presentation, analyze_plan(node))

    def analyze(self, text: str,
                fixpoint_handler: Optional[str] = None) -> DiagnosticReport:
        """Statically analyze a query's chosen plan without executing it
        (the report of :meth:`prepare`)."""
        return self.prepare(text, fixpoint_handler).analysis.report

    def explain(self, text: str, with_estimates: bool = False,
                with_diagnostics: bool = False) -> str:
        """Render the chosen plan as a tree (Figure 1 style)."""
        node = self.logical_plan(text)
        estimator = self.optimizer.estimator if with_estimates else None
        analysis = analyze_plan(add_exchanges(node))
        rendered = explain_plan(node, estimator, properties=analysis)
        if with_diagnostics:
            rendered += "\n-- diagnostics --\n" + analysis.report.format()
        return rendered

    def execute(self, text: str,
                options: Optional[ExecOptions] = None,
                fixpoint_handler: Optional[str] = None,
                check: bool = True) -> QueryResult:
        """Run a query to completion and return rows plus metrics
        (:meth:`prepare`, then :meth:`execute_prepared`)."""
        return self.execute_prepared(self.prepare(text, fixpoint_handler),
                                     options, check)

    def execute_prepared(self, prepared: PreparedQuery,
                         options: Optional[ExecOptions] = None,
                         check: bool = True) -> QueryResult:
        """Run a prepared query on the plan its analysis prepared.

        Plans with error-level diagnostics are refused with
        :class:`PlanValidationError` unless ``check=False`` (the CLI's
        ``--force``).  A forced run does not discard the evidence: the
        full report rides on ``QueryResult.suppressed_diagnostics`` and
        is stamped into the trace stream (``analysis.suppressed``) so a
        bypassed error is visible in the JSONL record of the run, not
        just on the terminal of whoever typed ``--force``.  Top-level
        ``ORDER BY`` / ``LIMIT`` are applied at the requestor over the
        unioned result (presentation only; execution is unordered, as in
        any distributed engine).
        """
        report = prepared.analysis.report
        if check and report.has_errors():
            raise PlanValidationError(
                "plan failed static analysis (pass check=False / "
                "--force to run anyway)",
                diagnostics=report.errors)
        plan = prepared.analysis
        if plan.plan is None:  # a logical error kept the analysis from lowering
            plan = lower(prepared.node)
        result = QueryExecutor(self.cluster, options).execute(plan)
        if not check and report:
            result.suppressed_diagnostics = report
            obs = options.obs if options is not None else None
            if obs is not None and obs.tracer is not None:
                obs.tracer.instant(
                    "analysis.suppressed", "analysis", -1,
                    errors=len(report.errors),
                    warnings=len(report.warnings),
                    codes=report.codes())
        if prepared.presentation is not None:
            result.rows = self._apply_presentation(
                result.rows, prepared.presentation)
        return result
