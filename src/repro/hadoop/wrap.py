"""Executing native Hadoop code inside REX — the "wrap" mode (Section 4.4).

"REX allows direct use of compiled code for Hadoop by utilizing specially
designed table-valued 'wrapper' functions."  The wrappers here run the very
same :class:`~repro.hadoop.jobs.Mapper` / ``Reducer`` classes the Hadoop
simulator executes, inside REX operator pipelines:

* :class:`MapWrap` — a table-valued UDF invoking a Hadoop mapper per tuple;
* :class:`ReduceWrapAgg` — a UDA buffering a key's values and invoking a
  Hadoop reducer when the stratum closes (re-aggregating from scratch each
  stratum, exactly like a fresh reduce task);
* :class:`MapWrapJoinHandler` — runs reduce-side-join logic per delta for
  recursive wrap queries.

Wrapped code pays the paper's wrap overheads: the UDC invocation cost
*without* input batching plus the text-format conversion cost
(``wrap_format_cost``).  What wrap *saves* relative to Hadoop — job
startup, the sort-based shuffle, and DFS checkpoint writes — falls out
naturally from running inside REX's pipelined engine, which is exactly the
comparison Figures 4 and 6 make.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.common.deltas import Delta, DeltaOp, run
from repro.common.errors import UDFError
from repro.hadoop.jobs import Mapper, Reducer
from repro.udf.aggregates import Aggregator, JoinDeltaHandler
from repro.udf.base import UDF


def _wrap_call_cost(cost) -> float:
    """Unbatched reflection call per record (no input batching for wrapped
    Hadoop classes).  Text-format conversion is charged only where data
    *enters* the wrapped pipeline (:class:`MapWrap`) — for recursive
    queries that conversion "is incurred only once in the beginning and in
    the end of the query" (Section 6.3)."""
    return cost.udf_call_cost + cost.cpu_tuple_cost


def _wrap_entry_cost(cost) -> float:
    """Wrap entry point: reflection + text/binary format conversion."""
    return _wrap_call_cost(cost) + cost.wrap_format_cost


class MapWrap(UDF):
    """Table-valued wrapper executing a Hadoop mapper over (key, value).

    As the pipeline's entry point it also pays the per-record text-format
    conversion the paper's wrappers perform.
    """

    table_valued = True
    per_call_cost = staticmethod(_wrap_entry_cost)

    def __init__(self, mapper: Mapper, name: Optional[str] = None):
        self.name = name or f"MapWrap({type(mapper).__name__})"
        super().__init__()
        self.mapper = mapper

    def evaluate(self, key, value):
        return [(k, v) for k, v in self.mapper.map(key, value)]


class ReduceWrapAgg(Aggregator):
    """UDA wrapper executing a Hadoop reducer (or combiner) per group.

    State is the buffered value list for the key — the reducer input cache
    of one reduce call.  ``single_output=True`` unwraps a lone output pair
    to its value (the common aggregate shape).
    """

    def __init__(self, reducer_factory: Callable[[], Reducer],
                 single_output: bool = True):
        self.name = f"ReduceWrap({reducer_factory().__class__.__name__})"
        super().__init__()
        self.reducer_factory = reducer_factory
        self.reducer = reducer_factory()
        self.single_output = single_output

    @staticmethod
    def per_delta_cost(cost) -> float:
        return _wrap_call_cost(cost)

    def init_state(self):
        return []

    def agg_state(self, state, delta: Delta, value, old_value=None):
        if delta.op is DeltaOp.INSERT:
            state.append(value)
        elif delta.op is DeltaOp.DELETE:
            try:
                state.remove(value)
            except ValueError:
                raise UDFError(
                    f"{self.name}: deletion of absent value {value!r}"
                ) from None
        elif delta.op is DeltaOp.REPLACE:
            try:
                state[state.index(old_value)] = value
            except ValueError:
                raise UDFError(
                    f"{self.name}: replacement of absent value"
                ) from None
        else:
            raise UDFError("wrapped Hadoop reducers cannot interpret δ "
                           "deltas — Hadoop code has no delta semantics")
        return state

    def agg_result(self, state):
        if not state:
            return None
        outputs = list(self.reducer.reduce(None, list(state)))
        if not outputs:
            return None
        if self.single_output and len(outputs) == 1:
            return outputs[0][1]
        return tuple(v for _, v in outputs)


class MapWrapJoinHandler(JoinDeltaHandler):
    """Recursive wrap: reduce-side-join logic run per mutable-side delta.

    The right bucket holds the key's latest mutable record; arriving deltas
    overwrite it, then the wrapped join logic (a Hadoop Reducer taking
    tagged values, e.g. :class:`~repro.hadoop.jobs.PRJoinReducer`) runs
    over the joined record and its output pairs are re-emitted as rows.
    """

    def __init__(self, logic: Reducer, left_tag: str = "A",
                 right_tag: str = "R"):
        self.name = f"MapWrapJoin({type(logic).__name__})"
        super().__init__()
        self.logic = logic
        self.left_tag = left_tag
        self.right_tag = right_tag

    @staticmethod
    def per_delta_cost(cost) -> float:
        return _wrap_call_cost(cost)

    def update(self, left_bucket, right_bucket, delta, side):
        key, payload = delta.row[0], delta.row[1]
        if right_bucket:
            right_bucket[0] = (key, payload)
        else:
            right_bucket.append((key, payload))
        adjacency = [edge[1] for edge in left_bucket]
        tagged = [(self.left_tag, adjacency), (self.right_tag, payload)]
        return run(DeltaOp.INSERT,
                   [(k, v) for k, v in self.logic.reduce(key, tagged)])
