"""Shared primitives for the REX reproduction.

This package holds the data model every other subsystem builds on:

* :mod:`repro.common.deltas` — the paper's annotated-tuple ("delta") model,
  Definition 1 of Section 3.3.
* :mod:`repro.common.schema` — relational schemas and SQL-ish types that map
  cleanly onto Python scalar types (the paper maps RQL types onto Java types).
* :mod:`repro.common.punctuation` — end-of-stratum / end-of-query markers used
  by the stratified execution protocol (Section 4.2).
* :mod:`repro.common.errors` — exception hierarchy.
"""

from repro.common.deltas import (
    Delta,
    DeltaOp,
    delete,
    insert,
    replace,
    update,
)
from repro.common.errors import (
    ExecutionError,
    OptionsError,
    ParseError,
    PlanError,
    RecoveryError,
    ReproError,
    SchemaError,
    TypeCheckError,
)
from repro.common.punctuation import Punctuation, PunctuationKind
from repro.common.schema import Field, Schema, SQLType

__all__ = [
    "Delta",
    "DeltaOp",
    "insert",
    "delete",
    "replace",
    "update",
    "Field",
    "Schema",
    "SQLType",
    "Punctuation",
    "PunctuationKind",
    "ReproError",
    "SchemaError",
    "ParseError",
    "PlanError",
    "TypeCheckError",
    "ExecutionError",
    "OptionsError",
    "RecoveryError",
]
