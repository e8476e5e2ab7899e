"""User-defined aggregators (UDAs) and delta handlers.

Section 3.3 defines four delta-handler forms; they map here as:

* ``AGGSTATE(state, delta) -> deltas``   — :meth:`Aggregator.agg_state`
* ``AGGRESULT(state) -> deltas``         — :meth:`Aggregator.agg_result`
* join state ``UPDATE(left, right, d)``  — :meth:`JoinDeltaHandler.update`
* while state ``UPDATE(rel, d)``         — :meth:`WhileDeltaHandler.update`

An :class:`Aggregator` is "more than a simple SQL function: [it has] two or
more handlers defining how [it] manage[s] and propagate[s] state."  The
group-by operator owns the key -> state map (take-away (1) of Section 3.3);
each aggregator owns its per-key intermediate state object and decides what
to emit (take-away (2)).

Optimizer-facing metadata (Section 5.2): ``composable`` marks UDAs whose
partial results can be unioned and finally aggregated (sum, avg — not
median), enabling pre-aggregation pushdown through arbitrary joins;
``pre_aggregator`` supplies the combiner; ``multiply`` compensates
pre-aggregated inputs of multiplicative (non key-FK) joins.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import UDFError
from repro.udf.base import _parse_types


class Aggregator:
    """Base class for user-defined (and built-in) aggregate functions.

    Lifecycle per grouping key: the group-by operator calls
    :meth:`init_state` the first time the key is seen, then
    :meth:`agg_state` for every arriving delta (which may return
    intermediate output deltas, e.g. partial sums for streamed
    pre-aggregation), and :meth:`agg_result` when the stratum closes.

    ``agg_state``/``agg_result`` return *values* (or rows), not deltas —
    the group-by operator turns the value sequence into insert/replace
    deltas keyed by the group.  Handlers that need full control can
    instead emit :class:`~repro.common.deltas.Delta` objects directly;
    the operator passes those through untouched.
    """

    name: Optional[str] = None
    in_types: Sequence[str] = ()
    out_types: Sequence[str] = ()
    composable: bool = False
    multiply: Optional[Callable[..., Any]] = None
    """For composable UDAs under multiplicative joins: maps (value, n) to
    the value compensated for the cardinality ``n`` of the opposite join
    group (plain multiplication for the numeric built-ins)."""
    replay_idempotent: bool = False
    """Recovery metadata (Section 4.3): True when re-folding a row that is
    already reflected in the state is a no-op (min/max-style refinement
    algebras).  Plans whose every handler is replay-idempotent can replay
    full rows through surviving operator state during incremental recovery;
    anything else (sums, averages) would double-count, so the executor
    rebuilds downstream state from checkpoints instead."""
    emits_polarity: Optional[frozenset] = None
    """Abstract-interpretation metadata (REX3xx): the set of
    :class:`~repro.common.deltas.DeltaOp` kinds this aggregator can emit
    when it returns :class:`Delta` objects directly from
    ``agg_state``/``agg_result``.  ``None`` (the default) means
    undeclared — the analyzer widens the verdict to "any" and reports
    REX306.  Aggregators that only return plain values need not declare
    anything: the group-by operator turns values into insert/replace
    deltas, and the analyzer knows that."""
    reads: Optional[Sequence[int]] = None
    """Column-lineage metadata (REX4xx): the positions of ``delta.row``
    this aggregator's handlers read, or ``None`` when undeclared.  The
    lineage analyzer cross-checks the declaration against the body
    (REX401/REX402); the lint pass keeps it honest (REX107)."""

    def __init__(self):
        self.name = self.name or type(self).__name__
        self.input_fields = _parse_types(self.in_types)
        self.output_fields = _parse_types(self.out_types)

    # -- state management -------------------------------------------------
    def init_state(self) -> Any:
        """A fresh per-key intermediate state ("a default object if the key
        does not exist")."""
        raise NotImplementedError

    def agg_state(self, state: Any, delta: Delta, value: Any) -> Any:
        """Fold one delta into ``state``; return the revised state.

        ``value`` is the aggregate's input expression evaluated on the
        delta's row (and on the old row for REPLACE, see ``old_value`` via
        the operator).  Built-ins interpret INSERT/DELETE/REPLACE natively;
        handlers may interpret UPDATE payloads.
        """
        raise NotImplementedError

    def agg_result(self, state: Any) -> Any:
        """The current output value for a key, computed from its state."""
        raise NotImplementedError

    fold_source: Optional[Dict[DeltaOp, str]] = None
    """:meth:`agg_state` as source for the group-by's generated fold: per
    delta kind, statements folding value ``v`` (old value ``o``, payload
    ``p``) into state ``s``, never rebinding it, with the same arithmetic
    and errors.  ``result_source`` is :meth:`agg_result` as an expression
    over ``s``; ``fold_names`` binds what they name besides ``UDFError``.
    ``None``: the group-by calls the method (see :func:`fold_templates`)."""
    result_source: Optional[str] = None
    fold_names: Dict[str, Any] = {}

    # -- optimizer metadata ------------------------------------------------
    def pre_aggregator(self) -> Optional["Aggregator"]:
        """The combiner run before the shuffle (None if not supported)."""
        return None

    def final_aggregator(self) -> "Aggregator":
        """The aggregator applied over pre-aggregated partial values; the
        default assumes self can consume its own partials (sum, min...)."""
        return self

    def __repr__(self):
        return f"UDA({self.name})"


def fold_templates(agg: Aggregator) -> Tuple[Optional[dict], Optional[str]]:
    """``agg``'s ``fold_source`` and ``result_source``, each only where it
    is declared at or below the class declaring the method it stands for:
    a subclass that overrides ``agg_state`` (or ``agg_result``) is called."""
    def owner(name):
        return next(c for c in type(agg).__mro__ if name in vars(c))

    return tuple(getattr(agg, source)
                 if issubclass(owner(source), owner(method)) else None
                 for source, method in (("fold_source", "agg_state"),
                                        ("result_source", "agg_result")))


class AggregateSpec:
    """One aggregate column of a group-by: function + input expression.

    ``arg`` maps an input row to the aggregate's input value; ``output``
    names the result column.
    """

    def __init__(self, aggregator: Aggregator,
                 arg: Optional[Callable[[tuple], Any]] = None,
                 output: Optional[str] = None):
        self.aggregator = aggregator
        self.arg = arg or (lambda row: None)
        self.output = output or aggregator.name.lower()

    def __repr__(self):
        return f"AggregateSpec({self.aggregator.name} -> {self.output})"


class JoinDeltaHandler:
    """User-defined join-state handler (Definition in Section 3.3).

    Called by the join operator with the two tuple buckets matching the
    delta's join key.  The handler mutates the buckets as it sees fit and
    returns the deltas to propagate downstream.  ``side`` tells which input
    the delta arrived on (0 = left, 1 = right).
    """

    name: Optional[str] = None
    in_types: Sequence[str] = ()
    out_types: Sequence[str] = ()
    replay_idempotent: bool = False
    """See :attr:`Aggregator.replay_idempotent`."""
    emits_polarity: Optional[frozenset] = None
    """The :class:`~repro.common.deltas.DeltaOp` kinds :meth:`update` can
    emit, or ``None`` when undeclared (analyzer widens to "any" and
    reports REX306).  See :attr:`Aggregator.emits_polarity`."""
    reads: Optional[Sequence[int]] = None
    """The positions of ``delta.row`` :meth:`update` reads (REX4xx
    lineage metadata); ``None`` when undeclared.  See
    :attr:`Aggregator.reads`."""

    def __init__(self):
        self.name = self.name or type(self).__name__
        self.input_fields = _parse_types(self.in_types)
        self.output_fields = _parse_types(self.out_types)

    def update(self, left_bucket: list, right_bucket: list,
               delta: Delta, side: int) -> Iterable[Delta]:
        raise NotImplementedError


class WhileDeltaHandler:
    """User-defined while/fixpoint-state handler.

    Called with the operator's accumulated relation (a mutable mapping from
    fixpoint key to row) and the incoming delta; returns the deltas to admit
    into the next stratum ("possibly the empty set").
    """

    name: Optional[str] = None
    replay_idempotent: bool = False
    """See :attr:`Aggregator.replay_idempotent`."""
    emits_polarity: Optional[frozenset] = None
    """The :class:`~repro.common.deltas.DeltaOp` kinds :meth:`update` can
    admit into the next stratum, or ``None`` when undeclared (analyzer
    widens to "any" and reports REX306).  See
    :attr:`Aggregator.emits_polarity`."""
    reads: Optional[Sequence[int]] = None
    """The positions of ``delta.row`` :meth:`update` reads (REX4xx
    lineage metadata); ``None`` when undeclared.  See
    :attr:`Aggregator.reads`."""

    def __init__(self):
        self.name = self.name or type(self).__name__

    def update(self, while_relation: dict, delta: Delta) -> Iterable[Delta]:
        raise NotImplementedError


def as_deltas(key_row: Tuple, values: Any) -> List[Delta]:
    """Normalize a handler return (None | value | iterable of Delta) into a
    delta list.  Used by operators to accept both styles."""
    if values is None:
        return []
    if values.__class__ is list:
        # Hot path (handlers build lists): validate in place, no rebuild.
        for v in values:
            if v.__class__ is not Delta and not isinstance(v, Delta):
                raise UDFError(
                    f"delta handler returned non-Delta {v!r}; wrap values "
                    "with repro.common.insert/replace/update"
                )
        return values
    if isinstance(values, Delta):
        return [values]
    out = []
    for v in values:
        if not isinstance(v, Delta):
            raise UDFError(
                f"delta handler returned non-Delta {v!r}; wrap values with "
                "repro.common.insert/replace/update"
            )
        out.append(v)
    return out
