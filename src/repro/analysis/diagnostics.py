"""Diagnostic objects: stable codes, severities, locations, fix hints.

Every finding either layer produces is a :class:`Diagnostic`; a
:class:`DiagnosticReport` is an ordered collection with the filtering,
rendering and JSON serialization the CLI and CI consume.  Codes are
stable API: once published in ``docs/analysis.md`` a code keeps its
meaning forever (retired codes are never reused).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make a plan unexecutable (the session refuses to
    run it without ``--force``); ``WARNING`` findings flag likely
    performance or robustness problems; ``INFO`` findings are advisory.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The published catalog: code -> (default severity, one-line title).
#: ``REX0xx`` are plan-analyzer codes, ``REX1xx`` are lint codes,
#: ``REX2xx`` are runtime sanitizer / determinism-checker codes,
#: ``REX3xx`` are abstract-interpretation (delta-polarity /
#: monotonicity) codes, ``REX4xx`` are column-lineage / UDF-effect
#: codes.
CODES: Dict[str, Tuple[Severity, str]] = {
    "REX001": (Severity.ERROR,
               "non-stratified recursion (nested fixpoint or negation "
               "over the recursive relation)"),
    "REX002": (Severity.ERROR,
               "malformed or non-terminating fixpoint"),
    "REX003": (Severity.ERROR,
               "illegal UDA pre-aggregation (non-composable aggregate or "
               "partial result escaping without final aggregation)"),
    "REX004": (Severity.ERROR,
               "multiplicative-join pre-aggregation without multiply "
               "compensation"),
    "REX005": (Severity.ERROR,
               "stateful operator input not partitioned on its key "
               "(missing rehash exchange)"),
    "REX006": (Severity.WARNING,
               "redundant rehash exchange (input already partitioned)"),
    "REX007": (Severity.WARNING,
               "unsound delta handling (handler output uninterpreted or "
               "handler starved of deltas)"),
    "REX008": (Severity.ERROR,
               "schema, arity, or type inconsistency"),
    "REX100": (Severity.ERROR,
               "source file could not be parsed"),
    "REX101": (Severity.ERROR,
               "wall-clock read inside a charged simulation path"),
    "REX102": (Severity.WARNING,
               "time.time() used for a duration (use perf_counter)"),
    "REX103": (Severity.WARNING,
               "order-dependent float accumulation of charge totals "
               "(use an fsum-style tally)"),
    "REX104": (Severity.ERROR,
               "hot-path record dataclass not frozen with slots=True"),
    "REX105": (Severity.ERROR,
               "mutation of an immutable Delta/Punctuation record, or "
               "one built around its constructor"),
    "REX106": (Severity.WARNING,
               "unordered set iteration feeding cross-worker routing or "
               "emitted delta order"),
    "REX107": (Severity.WARNING,
               "UDF/predicate/handler body reads a row attribute outside "
               "its declared reads= metadata"),
    "REX200": (Severity.ERROR,
               "illegal delta annotation against operator state "
               "(UPDATE/DELETE of absent rows, duplicate insert, or "
               "stale REPLACE image; Definition 1)"),
    "REX201": (Severity.ERROR,
               "group-by state diverges from differential re-aggregation "
               "of its delta stream"),
    "REX202": (Severity.ERROR,
               "punctuation monotonicity violation (stratum marker "
               "regressed or arrived after end-of-query)"),
    "REX203": (Severity.ERROR,
               "exchange conservation violation (deltas sent != received "
               "+ dropped at a stratum barrier, or unflushed sender "
               "buffers)"),
    "REX204": (Severity.ERROR,
               "checkpoint/recovery delta-set inequivalence (restored row "
               "does not match its pre-failure fingerprint)"),
    "REX205": (Severity.ERROR,
               "result race: query rows change under schedule "
               "perturbation"),
    "REX206": (Severity.WARNING,
               "metrics-only race: simulated-metrics fingerprint changes "
               "under schedule perturbation while rows stay identical"),
    "REX300": (Severity.INFO,
               "stateful operator input proven insert-only "
               "(retraction/replacement bookkeeping is skippable)"),
    "REX301": (Severity.INFO,
               "fixpoint body proven monotone (the recursive relation "
               "never shrinks and never retracts)"),
    "REX302": (Severity.WARNING,
               "fixpoint body may retract or shrink (non-monotone "
               "recursion; convergence depends on runtime values)"),
    "REX304": (Severity.INFO,
               "dead delta polarity (a downstream operator can never "
               "observe these delta kinds; their handling is removable)"),
    "REX305": (Severity.WARNING,
               "replacement/update stream without a preceding insert "
               "polarity (an update may arrive before its base row)"),
    "REX306": (Severity.INFO,
               "polarity unknown: a handler or aggregator declares no "
               "emission polarity, so the verdict widens to 'any'"),
    "REX307": (Severity.ERROR,
               "runtime delta violated a static polarity/monotonicity "
               "proof (abstract interpretation was unsound for this "
               "plan — report this)"),
    "REX400": (Severity.WARNING,
               "dead column: a produced column is never read by any "
               "downstream operator"),
    "REX401": (Severity.WARNING,
               "UDF/predicate/handler body reads a row attribute not "
               "covered by its declared reads= metadata"),
    "REX402": (Severity.WARNING,
               "effect-declaration contradiction: declared reads= names "
               "an attribute the body provably never reads"),
    "REX403": (Severity.ERROR,
               "key column projected away before a Rehash/GroupBy/"
               "Fixpoint whose key function needs it"),
    "REX404": (Severity.INFO,
               "pushdown-blocking effect: a rewrite was declined because "
               "an effect (impurity, unknown reads, or non-insert "
               "polarity) could not be proven away"),
    "REX405": (Severity.INFO,
               "filter pushdown licensed: the predicate's read-set is "
               "preserved below this operator"),
    "REX406": (Severity.INFO,
               "projection narrowing licensed: only a prefix of the "
               "columns crossing this exchange is live downstream"),
    "REX407": (Severity.INFO,
               "lineage widened: an opaque callable (no retrievable "
               "source) forced the column analysis to assume it reads "
               "and produces everything"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding.

    ``location`` is a plan-node path (``Fixpoint/Join[PRAgg]``) for plan
    diagnostics, or ``file:line`` for lint diagnostics.  ``hint`` says how
    to fix it; ``detail`` says what exactly was found.
    """

    code: str
    message: str
    severity: Severity = Severity.ERROR
    location: str = ""
    hint: str = ""

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}; "
                             f"register it in repro.analysis.diagnostics")

    def format(self) -> str:
        loc = f" at {self.location}" if self.location else ""
        hint = f"\n    hint: {self.hint}" if self.hint else ""
        return f"{self.code} {self.severity}{loc}: {self.message}{hint}"

    def to_dict(self) -> Dict[str, str]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
            "hint": self.hint,
        }


def make(code: str, message: str, location: str = "", hint: str = "",
         severity: Optional[Severity] = None) -> Diagnostic:
    """Build a diagnostic with the code's default severity unless
    overridden (rules downgrade, e.g. a structural error to a warning
    when the evidence is circumstantial)."""
    return Diagnostic(code, message,
                      severity=severity or CODES[code][0],
                      location=location, hint=hint)


@dataclass
class DiagnosticReport:
    """An ordered list of findings with the common queries over it.

    Identical ``(code, location, message)`` triples are collapsed: one
    copy carries all the information.  First occurrence wins (its
    severity and hint are kept).
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        key = (diag.code, diag.location, diag.message)
        for existing in self.diagnostics:
            if (existing.code, existing.location, existing.message) == key:
                return
        self.diagnostics.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        for diag in diags:
            self.add(diag)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __bool__(self) -> bool:
        return bool(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.WARNING]

    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def codes(self) -> List[str]:
        return sorted({d.code for d in self.diagnostics})

    def sorted(self) -> "DiagnosticReport":
        """Errors first, then warnings, then infos; stable within a tier."""
        return DiagnosticReport(sorted(
            self.diagnostics, key=lambda d: -d.severity.rank))

    def format(self) -> str:
        if not self.diagnostics:
            return "no diagnostics"
        lines = [d.format() for d in self.sorted()]
        n_err, n_warn = len(self.errors), len(self.warnings)
        lines.append(f"{len(self.diagnostics)} diagnostic(s): "
                     f"{n_err} error(s), {n_warn} warning(s)")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps({
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "summary": {
                "total": len(self.diagnostics),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
            },
        }, indent=indent)
