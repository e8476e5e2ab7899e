"""Exception hierarchy for the REX reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(ReproError):
    """A schema was malformed, or two schemas were incompatible."""


class ParseError(ReproError):
    """RQL source text could not be tokenized or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    known, so front ends can point at the error.
    """

    def __init__(self, message, line=None, column=None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TypeCheckError(SchemaError):
    """RQL semantic analysis found a type mismatch, or a column name that
    resolves to no column or to more than one."""


class PlanError(ReproError):
    """The optimizer could not build a valid plan for a query."""


class PlanValidationError(PlanError):
    """A plan failed static analysis (``repro.analysis``).

    Carries the list of :class:`~repro.analysis.diagnostics.Diagnostic`
    findings that condemned the plan, so callers (CLI, tests, CI) can
    render codes and fix hints instead of a bare message.  ``diagnostics``
    may be empty when the failure predates the analyzer (e.g. the
    optimizer produced no viable plan at all).
    """

    def __init__(self, message, diagnostics=()):
        details = list(diagnostics)
        if details:
            lines = [message] + ["  " + d.format() for d in details]
            message = "\n".join(lines)
        super().__init__(message)
        self.diagnostics = details


class OptionsError(ReproError):
    """An ``ExecOptions`` value is outside its accepted set or range."""


class ExecutionError(ReproError):
    """A runtime failure inside the query engine (not a node failure)."""


class RecoveryError(ReproError):
    """Failure recovery could not complete (e.g. all replicas lost)."""


class UDFError(ReproError):
    """A user-defined function or aggregator is malformed or misbehaved."""
