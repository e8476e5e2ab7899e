"""Built-in aggregate functions with full delta rules.

Section 3.3: "The standard operators (min, max, sum, average, count)
automatically handle insertion, deletion, and replacement deltas."  The
subtle case the paper calls out is ``min`` under deletion: if the deleted
value *was* the minimum, the next-smallest value must come from buffered
state — so :class:`Min`/:class:`Max` keep an order-statistic multiset, while
:class:`Sum`/:class:`Count`/:class:`Avg` keep O(1) running state.

Numeric built-ins additionally interpret ``δ(E)`` value-update deltas whose
payload is a numeric adjustment (the "arithmetic sum" implicit operation the
paper uses for PageRank diffs).

``Sum``, ``Count``, ``Min``/``Max`` and ``ArgMin``/``ArgMax`` also state
``agg_state``/``agg_result`` as source templates that the group-by
compiles; the methods stay their reference.  The others are called.
"""

from __future__ import annotations

import textwrap
from collections import Counter
from typing import Any, Optional, Tuple

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import UDFError
from repro.udf.aggregates import Aggregator


def _numeric_fold(state, delta: Delta, value, old_value, fold_in, fold_out):
    """Shared insert/delete/replace/update dispatch for running aggregates."""
    if delta.op is DeltaOp.INSERT:
        fold_in(state, value)
    elif delta.op is DeltaOp.DELETE:
        fold_out(state, value)
    elif delta.op is DeltaOp.REPLACE:
        fold_out(state, old_value)
        fold_in(state, value)
    elif delta.op is DeltaOp.UPDATE:
        if not isinstance(delta.payload, (int, float)):
            raise UDFError(_NUMERIC_UPDATE)
        state["sum"] = state.get("sum", 0) + delta.payload
    return state


# Fold steps for _numeric_fold: AVG folds values, AVG's final half folds
# (sum, count) partials; NULL inputs are skipped.
def _add_value(s, v):
    if v is not None:
        s["sum"] += v
        s["count"] += 1


def _remove_value(s, v):
    if v is not None:
        s["sum"] -= v
        s["count"] -= 1


# The two above as source, over the input named by the format argument.
_ADD_VALUE = "if {0} is not None:\n    s['sum'] += {0}\n    s['count'] += 1\n"
_REMOVE_VALUE = _ADD_VALUE.replace("+=", "-=")


def _add_partial(s, v):
    if v is not None:
        s["sum"] += v[0]
        s["count"] += v[1]


def _remove_partial(s, v):
    if v is not None:
        s["sum"] -= v[0]
        s["count"] -= v[1]


_NUMERIC_UPDATE = "built-in aggregates only interpret numeric UPDATE payloads"


class Sum(Aggregator):
    """SUM with insert/delete/replace/update delta rules.

    State is ``{sum, count}``; the count distinguishes an empty group (result
    ``None``, SQL semantics) from a group summing to zero.
    """

    name = "sum"
    composable = True
    multiply = staticmethod(lambda value, n: None if value is None else value * n)

    def init_state(self):
        return {"sum": 0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        if delta.op is not DeltaOp.UPDATE:
            return _numeric_fold(state, delta, value, old_value,
                                 _add_value, _remove_value)
        if not isinstance(delta.payload, (int, float)):
            raise UDFError(_NUMERIC_UPDATE)
        if state["count"] < 1:  # an adjusted group is not empty
            state["count"] = 1
        state["sum"] += delta.payload
        return state

    fold_source = {
        DeltaOp.INSERT: _ADD_VALUE.format("v"),
        DeltaOp.DELETE: _REMOVE_VALUE.format("v"),
        DeltaOp.REPLACE: _REMOVE_VALUE.format("o") + _ADD_VALUE.format("v"),
        # An exact int/float payload skips the isinstance test: δ-sums are
        # PageRank's hot path, and the test is only for the refusal.
        DeltaOp.UPDATE: "if p.__class__ is not float and p.__class__ is not "
        "int and not isinstance(p, (int, float)):\n    raise UDFError("
        f"{_NUMERIC_UPDATE!r})\nif s['count'] < 1:\n    s['count'] = 1\n"
        "s['sum'] += p"}
    result_source = "s['sum'] if s['count'] > 0 else None"

    def agg_result(self, state):
        return state["sum"] if state["count"] > 0 else None


class Count(Aggregator):
    """COUNT(*) or COUNT(expr); NULL inputs are skipped for COUNT(expr)."""

    name = "count"
    out_types = ("Integer",)
    composable = True
    multiply = staticmethod(lambda value, n: None if value is None else value * n)

    def __init__(self, count_star: bool = True):
        super().__init__()
        self.count_star = count_star

    def init_state(self):
        return {"n": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        star = self.count_star
        if delta.op is DeltaOp.INSERT:
            if star or value is not None:
                state["n"] += 1
        elif delta.op is DeltaOp.DELETE:
            if star or value is not None:
                state["n"] -= 1
        elif delta.op is DeltaOp.REPLACE:
            # COUNT(*) counts both images, so a replacement cancels out.
            if not star:
                state["n"] += (value is not None) - (old_value is not None)
        elif delta.op is DeltaOp.UPDATE:
            if not isinstance(delta.payload, int):
                raise UDFError("count interprets only integer UPDATE payloads")
            state["n"] += delta.payload
        return state

    @property
    def fold_source(self):
        counted = "" if self.count_star else "if v is not None:\n    "
        return {
            DeltaOp.INSERT: counted + "s['n'] += 1",
            DeltaOp.DELETE: counted + "s['n'] -= 1",
            DeltaOp.REPLACE: "pass" if self.count_star else
            "s['n'] += (v is not None) - (o is not None)",
            DeltaOp.UPDATE: "if not isinstance(p, int):\n    raise UDFError("
            "'count interprets only integer UPDATE payloads')\ns['n'] += p"}

    result_source = "s['n']"

    def agg_result(self, state):
        return state["n"]

    def final_aggregator(self) -> Aggregator:
        # Partial counts are *summed*, not re-counted, after a combiner.
        return Sum()


class _Rev:
    """Inverts comparison so one heap implementation serves Min and Max."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __lt__(self, other):
        return other.value < self.value

    def __eq__(self, other):
        return isinstance(other, _Rev) and other.value == self.value

    def __hash__(self):
        return hash(("_Rev", self.value))


class _OrderStatMultiset:
    """Multiset with O(1) insert and amortized-cheap extreme lookup.

    Live multiplicities plus a cached extreme.  An insert updates the
    cache with one comparison; only deleting the last copy of the cached
    extreme forces a rescan of the distinct live values, deferred to the
    next ``extreme()`` call.  This is the "buffered state" the paper says
    min needs to answer deletions — insert-heavy streams (SSSP's distance
    offers) never pay for the deletion support.
    """

    __slots__ = ("largest", "size", "_live", "_best", "_stale")

    def __init__(self, largest: bool):
        self.largest = largest
        self._live: dict = {}
        self.size = 0
        self._best = None
        self._stale = False

    def add(self, value) -> None:
        live = self._live
        live[value] = live.get(value, 0) + 1
        self.size += 1
        if not self._stale:
            best = self._best
            if best is None or (value > best if self.largest
                                else value < best):
                self._best = value

    @staticmethod
    def add_source(x: str, largest: bool) -> str:
        """``s.add(x)`` as source, for the built-ins' fold templates."""
        return (f"live = s._live\nlive[{x}] = live.get({x}, 0) + 1\n"
                "s.size += 1\nif not s._stale:\n    best = s._best\n"
                f"    if best is None or {x} {'>' if largest else '<'} best:\n"
                f"        s._best = {x}\n")

    def remove(self, value) -> None:
        count = self._live.get(value, 0)
        if count <= 0:
            raise UDFError(f"deleting value {value!r} not present in aggregate state")
        if count == 1:
            del self._live[value]
            if value == self._best:
                # The cached extreme's last copy is gone; rescan lazily.
                self._best = None
                self._stale = True
        else:
            self._live[value] = count - 1
        self.size -= 1

    def extreme(self):
        """Current min (or max), or None if empty."""
        if self.size <= 0:
            return None
        if self._stale:
            self._best = (max if self.largest else min)(self._live)
            self._stale = False
        return self._best

    #: ``s.extreme()`` as an expression, the rescan left a call.
    EXTREME_SOURCE = "s.extreme() if s._stale else s._best if s.size > 0 else None"


class Min(Aggregator):
    """MIN with deletion support via an order-statistic multiset."""

    name = "min"
    composable = True
    largest = False
    replay_idempotent = True  # re-adding a present value cannot move the extreme

    def init_state(self):
        return _OrderStatMultiset(self.largest)

    def agg_state(self, state: _OrderStatMultiset, delta: Delta, value,
                  old_value=None):
        if delta.op is DeltaOp.INSERT:
            if value is not None:
                state.add(value)
        elif delta.op is DeltaOp.DELETE:
            if value is not None:
                state.remove(value)
        elif delta.op is DeltaOp.REPLACE:
            if old_value is not None:
                state.remove(old_value)
            if value is not None:
                state.add(value)
        else:
            raise UDFError(f"{self.name} cannot interpret UPDATE deltas; "
                           "supply a user delta handler")
        return state

    @property
    def fold_source(self):
        add = "if v is not None:\n" + textwrap.indent(
            _OrderStatMultiset.add_source("v", self.largest), "    ")
        return {
            DeltaOp.INSERT: add,
            DeltaOp.DELETE: "if v is not None:\n    s.remove(v)\n",
            DeltaOp.REPLACE: "if o is not None:\n    s.remove(o)\n" + add,
            DeltaOp.UPDATE: "raise UDFError(%r)" % (
                f"{self.name} cannot interpret UPDATE deltas; supply a user "
                "delta handler")}

    result_source = _OrderStatMultiset.EXTREME_SOURCE

    def agg_result(self, state: _OrderStatMultiset):
        return state.extreme()


class Max(Min):
    """MAX — shares Min's machinery with inverted ordering."""

    name = "max"
    largest = True


class Avg(Aggregator):
    """AVG, divided into a (sum, count) pre-aggregate and a final division.

    Section 3.3: "average ... is often divided into two portions: a
    pre-aggregate operation that associates both a sum and a count with each
    group (called combiner in MapReduce), and a final aggregate operation."
    """

    name = "avg"
    composable = True

    def init_state(self):
        return {"sum": 0.0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        return _numeric_fold(state, delta, value, old_value,
                             _add_value, _remove_value)

    def agg_result(self, state):
        if state["count"] <= 0:
            return None
        return state["sum"] / state["count"]

    def pre_aggregator(self) -> Aggregator:
        return AvgPartial()

    def final_aggregator(self) -> Aggregator:
        return AvgFinal()


class AvgPartial(Aggregator):
    """The combiner half of AVG: emits ``(sum, count)`` pairs."""

    name = "avg_partial"
    composable = True

    def init_state(self):
        return {"sum": 0.0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        return Avg.agg_state(self, state, delta, value, old_value)

    def agg_result(self, state):
        if state["count"] <= 0:
            return None
        return (state["sum"], state["count"])


class AvgFinal(Aggregator):
    """The final half of AVG: accumulates ``(sum, count)`` partials."""

    name = "avg_final"

    def init_state(self):
        return {"sum": 0.0, "count": 0}

    def agg_state(self, state, delta: Delta, value, old_value=None):
        if delta.op is DeltaOp.UPDATE:
            raise UDFError("avg_final cannot interpret UPDATE deltas")
        return _numeric_fold(state, delta, value, old_value,
                             _add_partial, _remove_partial)

    def agg_result(self, state):
        if state["count"] <= 0:
            return None
        return state["sum"] / state["count"]


class ArgMin(Aggregator):
    """The appendix's general-purpose aggregate: the identifier carrying the
    minimum value.  Input values are ``(id, value)`` pairs; result is the
    ``(id, value)`` pair with the least value (ties broken by id, for
    determinism).  A pair whose value is NULL is skipped, as ``min``
    skips NULLs.  Used by the shortest-path query (Listing 2).
    """

    name = "argmin"
    largest = False
    replay_idempotent = True
    fold_names = {"_Rev": _Rev}

    def init_state(self):
        return _OrderStatMultiset(self.largest)

    def _key(self, pair):
        """The multiset entry of ``pair``; None for a NULL value."""
        ident, value = pair
        if value is None:
            return None
        # Order by value first; id tie-break keeps results deterministic.
        return (value, ident) if not self.largest else (value, _Rev(ident))

    def agg_state(self, state: _OrderStatMultiset, delta: Delta, value,
                  old_value=None):
        if delta.op is DeltaOp.UPDATE:
            raise UDFError("argmin cannot interpret UPDATE deltas")
        if delta.op is not DeltaOp.INSERT:
            old = self._key(value if delta.op is DeltaOp.DELETE
                            else old_value)
            if old is not None:
                state.remove(old)
        if delta.op is not DeltaOp.DELETE:
            new = self._key(value)
            if new is not None:
                state.add(new)
        return state

    @property
    def fold_source(self):
        def keyed(x, body):  # _key inlined, a NULL value skipped
            ident = "_Rev(ident)" if self.largest else "ident"
            return (f"ident, value = {x}\nif value is not None:\n"
                    + textwrap.indent(f"k = (value, {ident})\n" + body,
                                      "    "))

        add = keyed("v", _OrderStatMultiset.add_source("k", self.largest))
        return {DeltaOp.INSERT: add,
                DeltaOp.DELETE: keyed("v", "s.remove(k)\n"),
                DeltaOp.REPLACE: keyed("o", "s.remove(k)\n") + add,
                DeltaOp.UPDATE:
                "raise UDFError('argmin cannot interpret UPDATE deltas')"}

    result_source = (f"None if (t := {_OrderStatMultiset.EXTREME_SOURCE}) "
                     "is None else (t[1], t[0])")

    def agg_result(self, state: _OrderStatMultiset):
        top = state.extreme()
        if top is None:
            return None
        value, ident = top
        if isinstance(ident, _Rev):
            ident = ident.value
        return (ident, value)


class ArgMax(ArgMin):
    name = "argmax"
    largest = True
    result_source = (f"None if (t := {_OrderStatMultiset.EXTREME_SOURCE}) "
                     "is None else (t[1].value, t[0])")


class CollectList(Aggregator):
    """Collection-valued aggregation (Section 2 calls these essential).

    Gathers input values into a list; deletion removes one occurrence.
    NULLs are skipped.  The result is sorted so output is deterministic
    across partitionings.
    """

    name = "collect"

    def init_state(self):
        return Counter()

    def agg_state(self, state: Counter, delta: Delta, value, old_value=None):
        if delta.op is DeltaOp.INSERT:
            if value is not None:
                state[value] += 1
        elif delta.op is DeltaOp.DELETE:
            if value is None:
                return state
            if state[value] <= 0:
                raise UDFError(f"deleting {value!r} not present in collection")
            state[value] -= 1
        elif delta.op is DeltaOp.REPLACE:
            if old_value is not None:
                state[old_value] -= 1
            if value is not None:
                state[value] += 1
        else:
            raise UDFError("collect cannot interpret UPDATE deltas")
        return state

    def agg_result(self, state: Counter):
        out = []
        for value, n in state.items():
            out.extend([value] * n)
        if not out:
            return None
        return tuple(sorted(out))


#: Names the RQL front end resolves to built-in aggregators.
BUILTIN_AGGREGATES = {
    "sum": Sum,
    "count": Count,
    "min": Min,
    "max": Max,
    "avg": Avg,
    "argmin": ArgMin,
    "argmax": ArgMax,
    "collect": CollectList,
}
