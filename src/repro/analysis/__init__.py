"""Static and runtime analysis of REX plans, and a lint for this
repository's own code; ``docs/analysis.md`` lists every code.

* :mod:`~repro.analysis.analyzer` — the structural rule passes (REX0xx)
  and the one preparation of a physical plan: delta polarity (REX3xx,
  :mod:`~repro.analysis.absint`), column lineage (REX4xx,
  :mod:`~repro.analysis.lineage`), the rewrites and fusion.
* :mod:`~repro.analysis.sanitizer` and :mod:`~repro.analysis.determinism`
  — checks on running queries (REX2xx).
* :mod:`~repro.analysis.lint` — the simulator-invariant linter (REX1xx).
"""

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReport,
    Severity,
)
from repro.analysis.analyzer import analyze, analyze_logical, analyze_physical
from repro.analysis.lint import lint_paths, lint_source

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticReport",
    "Severity",
    "analyze",
    "analyze_logical",
    "analyze_physical",
    "lint_paths",
    "lint_source",
]
