"""The delta (annotated tuple) model — Definition 1 of the REX paper.

A delta is a pair ``(alpha, t)`` of an annotation and a tuple.  The annotation
is one of:

* ``+()``    — insert ``t`` into operator state (:data:`DeltaOp.INSERT`);
* ``-()``    — delete ``t`` from operator state (:data:`DeltaOp.DELETE`);
* ``->(t')`` — ``t`` replaces the existing tuple ``t'`` (:data:`DeltaOp.REPLACE`);
* ``δ(E)``   — a programmable *value update* carrying an arbitrary payload
  ``E`` interpreted by downstream stateful operators via user-defined delta
  handlers (:data:`DeltaOp.UPDATE`).

Rows are plain Python tuples; schemas live alongside the dataflow (see
:mod:`repro.common.schema`).  Deltas are immutable, hashable value objects so
they can sit in fixpoint duplicate-elimination sets and in replicated
checkpoint buffers.

Producers that emit one annotation over many rows (a join handler spreading
a change over its neighbours, a scan, a projection) build the whole run with
:func:`run` or :func:`map_rows`: legality is checked once per run instead of
once per row, and the objects are indistinguishable from ``Delta(...)``.
This module is the only one that stores into a delta's slots.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

Row = Tuple[Any, ...]


class DeltaOp(enum.Enum):
    """Annotation kind on a delta (Definition 1)."""

    INSERT = "+"
    DELETE = "-"
    REPLACE = "->"
    UPDATE = "δ"

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"DeltaOp.{self.name}"


# Bound once at module level: Delta.__init__ runs hundreds of thousands of
# times per query, so every name it touches should be a single global load.
_REPLACE = DeltaOp.REPLACE
_UPDATE = DeltaOp.UPDATE


@dataclass(frozen=True, slots=True, init=False)
class Delta:
    """An annotated tuple flowing through the dataflow.

    Attributes:
        op: the annotation kind.
        row: the tuple ``t``.
        old: for :data:`DeltaOp.REPLACE`, the tuple ``t'`` being replaced;
            ``None`` otherwise.
        payload: for :data:`DeltaOp.UPDATE`, the expression/parameters ``E``
            interpreted by user delta handlers; ``None`` otherwise.

    Stateless operators propagate deltas unchanged apart from their normal
    row transformation (Section 3.3, "Deltas and stateless query operators"):
    use :meth:`with_row` to carry the annotation onto a transformed row.
    """

    op: DeltaOp
    row: Row
    old: Optional[Row] = None
    payload: Any = None

    def __init__(self, op: DeltaOp, row: Row, old: Optional[Row] = None,
                 payload: Any = None):
        # Hand-written (init=False): deltas are constructed hundreds of
        # thousands of times per query, so field assignment and validation
        # share one frame instead of __init__ + __post_init__, and each
        # field is stored through its slot descriptor (no lookup by name).
        _set_op(self, op)
        _set_row(self, row)
        _set_old(self, old)
        _set_payload(self, payload)
        if old is not None:
            if op is not _REPLACE:
                raise ValueError(f"{op.name} delta must not carry old=")
        elif op is _REPLACE:
            raise ValueError(
                "REPLACE delta requires the replaced tuple (old=)")
        if payload is not None and op is not _UPDATE:
            raise ValueError(f"{op.name} delta must not carry payload=")

    def with_row(self, row: Row, old: Optional[Row] = None) -> "Delta":
        """Return a copy carrying the same annotation over a new row.

        ``old`` must be supplied iff this is a REPLACE delta (stateless
        operators transform both the new and the replaced image).
        """
        if self.op is DeltaOp.REPLACE:
            if old is None:
                raise ValueError("REPLACE delta requires a transformed old row")
            return Delta(DeltaOp.REPLACE, row, old=old)
        return Delta(self.op, row, payload=self.payload)

    def __repr__(self):
        """Compact, annotation-first notation matching the paper's
        Definition 1: ``Δ+(...)``, ``Δ-(...)``, ``Δ->(new|old=...)``,
        ``Δδ(row|payload=...)``.  The annotation symbol always leads, so a
        log line's kind is readable without parsing row images."""
        row = ",".join(repr(v) for v in self.row)
        if self.op is DeltaOp.REPLACE:
            old = ",".join(repr(v) for v in self.old)
            return f"Δ->({row}|old=({old}))"
        if self.op is DeltaOp.UPDATE:
            return f"Δδ(({row})|payload={self.payload!r})"
        return f"Δ{self.op.value}({row})"


# The four slot descriptors' setters.  They bypass the frozen dataclass's
# __setattr__, so only this module's constructors may call them (REX105).
_set_op = Delta.op.__set__
_set_row = Delta.row.__set__
_set_old = Delta.old.__set__
_set_payload = Delta.payload.__set__
_new = object.__new__


def run(op: DeltaOp, rows: Iterable[Row], payload: Any = None
        ) -> List[Delta]:
    """``[Delta(op, row, payload=payload) for row in rows]``, with the
    legality check made once for the run instead of once per row.

    REPLACE is refused: each replacement carries its own old image.
    """
    if op is _REPLACE:
        raise ValueError("REPLACE delta requires the replaced tuple (old=)")
    if payload is not None and op is not _UPDATE:
        raise ValueError(f"{op.name} delta must not carry payload=")
    out: List[Delta] = []
    append = out.append
    for row in rows:
        delta = _new(Delta)
        _set_op(delta, op)
        _set_row(delta, row)
        _set_old(delta, None)
        _set_payload(delta, payload)
        append(delta)
    return out


def map_rows(deltas: Iterable[Delta], row_fn: Callable[[Row], Row]
             ) -> List[Delta]:
    """Each delta's annotation carried onto ``row_fn(row)`` (and onto
    ``row_fn(old)`` for a replacement): ``d.with_row(...)`` over a batch.

    The inputs are legal deltas, so their annotations need no re-check.
    """
    out: List[Delta] = []
    append = out.append
    for src in deltas:
        delta = _new(Delta)
        _set_op(delta, src.op)
        _set_row(delta, row_fn(src.row))
        old = src.old
        _set_old(delta, None if old is None else row_fn(old))
        _set_payload(delta, src.payload)
        append(delta)
    return out


def insert(row: Row) -> Delta:
    """Build a ``+()`` insertion delta."""
    return Delta(DeltaOp.INSERT, tuple(row))


def delete(row: Row) -> Delta:
    """Build a ``-()`` deletion delta."""
    return Delta(DeltaOp.DELETE, tuple(row))


def replace(old: Row, new: Row) -> Delta:
    """Build a ``->(t')`` replacement delta: ``new`` replaces ``old``."""
    return Delta(DeltaOp.REPLACE, tuple(new), old=tuple(old))


def update(row: Row, payload: Any) -> Delta:
    """Build a ``δ(E)`` value-update delta with user-interpreted payload."""
    return Delta(DeltaOp.UPDATE, tuple(row), payload=payload)
