"""The public query interface: RQL text in, results out.

A :class:`RQLSession` binds a cluster, a UDF registry, and an optimizer,
mirroring the paper's requestor-node flow: parse, compile, optimize,
disseminate, execute, union results.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis import analyze_logical
from repro.analysis.diagnostics import DiagnosticReport
from repro.cluster.cluster import Cluster
from repro.optimizer.exchanges import add_exchanges
from repro.optimizer.explain import explain as explain_plan
from repro.optimizer.physical import lower
from repro.optimizer.planner import Optimizer
from repro.common.errors import PlanValidationError, TypeCheckError
from repro.rql import ast as rql_ast
from repro.rql.compiler import compile_query
from repro.rql.parser import parse
from repro.runtime.executor import ExecOptions, QueryExecutor, QueryResult
from repro.udf.registry import UDFRegistry


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

    def _split_presentation(self, query):
        """Strip top-level ORDER BY / LIMIT; they are applied at the
        requestor after result collection."""
        import dataclasses

        if isinstance(query, rql_ast.Select) and (query.order_by
                                                  or query.limit is not None):
            presentation = (query.order_by, query.limit)
            stripped = dataclasses.replace(query, order_by=(), limit=None)
            return stripped, presentation
        return query, None

    def _apply_presentation(self, rows, schema, presentation):
        order_by, limit = presentation
        for item in reversed(order_by):
            index = schema.index_of(item.name.text)
            rows = sorted(rows,
                          key=lambda r: (r[index] is None, r[index]),
                          reverse=item.descending)
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
        query, presentation = self._split_presentation(parse(text))
        node = compile_query(query, self.cluster.catalog, self.registry)
        if fixpoint_handler is not None:
            from repro.optimizer.logical import LFixpoint

            if not isinstance(node, LFixpoint):
                raise TypeCheckError(
                    "fixpoint_handler given but the query is not recursive")
            node.while_handler_factory = \
                self.registry.while_handler_factory(fixpoint_handler)
        if self.optimize:
            node = self.optimizer.optimize(node)
        return node, presentation

    def analyze(self, text: str,
                fixpoint_handler: Optional[str] = None) -> DiagnosticReport:
        """Statically analyze a query's chosen plan without executing it.

        Runs the structural rule passes over the logical tree the lowering
        runs — the chosen plan with its exchanges placed (``add_exchanges``
        adds nothing to an optimized plan) — and the polarity and lineage
        passes over its lowered physical plan.
        """
        return analyze_logical(add_exchanges(
            self.logical_plan(text, fixpoint_handler=fixpoint_handler)))

    def explain(self, text: str, with_estimates: bool = False,
                with_diagnostics: bool = False) -> str:
        """Render the chosen plan as a tree (Figure 1 style)."""
        node = self.logical_plan(text)
        estimator = self.optimizer.estimator if with_estimates else None
        rendered = explain_plan(node, estimator)
        if with_diagnostics:
            report = analyze_logical(add_exchanges(node))
            rendered += "\n-- diagnostics --\n" + report.format()
        return rendered

    def execute(self, text: str,
                options: Optional[ExecOptions] = None,
                fixpoint_handler: Optional[str] = None,
                check: bool = True) -> QueryResult:
        """Run a query to completion and return rows plus metrics.

        Before execution the plan goes through static analysis; plans
        with error-level diagnostics are refused with
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
        node, presentation = self._plan(text, fixpoint_handler)
        node = add_exchanges(node)
        report = analyze_logical(node)
        if check and report.has_errors():
            raise PlanValidationError(
                "plan failed static analysis (pass check=False / "
                "--force to run anyway)",
                diagnostics=report.errors)
        plan = lower(node)
        executor = QueryExecutor(self.cluster, options)
        result = executor.execute(plan)
        if not check and report:
            result.suppressed_diagnostics = report
            obs = options.obs if options is not None else None
            if obs is not None and obs.tracer is not None:
                obs.tracer.instant(
                    "analysis.suppressed", "analysis", -1,
                    errors=len(report.errors),
                    warnings=len(report.warnings),
                    codes=report.codes())
        if presentation is not None:
            result.rows = self._apply_presentation(result.rows, node.schema,
                                                   presentation)
        return result
