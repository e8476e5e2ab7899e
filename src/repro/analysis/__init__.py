"""Static analysis for REX plans and for this repository's own code.

Two layers (see ``docs/analysis.md``):

* **Plan analyzer** (:mod:`repro.analysis.analyzer`) — rule passes that
  check the invariants REX's correctness rests on *before* execution.
  The structural passes (stratification, fixpoint termination, UDA
  pre-aggregation legality, partitioning soundness, delta-annotation
  soundness, schema/arity/type consistency; ``REX0xx``) read RQL logical
  plans or physical plans.  Delta polarity (``REX3xx``,
  :mod:`~repro.analysis.absint`) and column lineage (``REX4xx``,
  :mod:`~repro.analysis.lineage`) run on the physical plan only — a
  logical plan is lowered first — so they judge the operators that run.
* **Simulator-invariant lint** (:mod:`repro.analysis.lint`) — a Python
  ``ast``-based linter enforcing this repo's engineering contracts across
  ``src/``: no wall-clock reads inside charged simulation paths,
  order-independent (fsum-style) accumulation of charge floats,
  ``slots=True`` frozen dataclasses for hot-path records, and no mutation
  of :class:`~repro.common.deltas.Delta` /
  :class:`~repro.common.punctuation.Punctuation`.  Codes are ``REX1xx``.
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
