"""Lowering: logical plans to executable physical plans.

Tracks the *partitioning property* of every stream (which output column
positions the rows are hash-partitioned on) and inserts rehash exchanges
exactly where co-location is violated — scans start out partitioned by
their table's load key, projections preserve partitioning when the key
column passes through untouched, joins and group-bys demand their key, and
the fixpoint demands its recursion key on both inputs ("Whenever needed, a
rehash operator re-partitions data among worker nodes", Section 4.2).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.common.schema import Schema
from repro.operators.expressions import (
    ColumnRef,
    FuncCall,
    compile_exprs,
    make_key_fn,
    make_row_fn,
)
from repro.optimizer.logical import (
    LAggCall,
    LApply,
    LFeedback,
    LFilter,
    LFixpoint,
    LGroupBy,
    LJoin,
    LNode,
    LProject,
    LRehash,
    LScan,
)
from repro.runtime.plan import (
    PApply,
    PFeedback,
    PFilter,
    PFixpoint,
    PGroupBy,
    PJoin,
    PNode,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
)
from repro.udf.aggregates import AggregateSpec

#: Partitioning property values: a tuple of column positions, BROADCAST
#: (replicated everywhere), or None (unknown / arbitrary).
BROADCAST = "broadcast"
Partitioning = Optional[Tuple[int, ...]]


def lower(root: LNode) -> PhysicalPlan:
    """Lower a logical tree to a validated physical plan."""
    node, _ = _lower(root)
    return PhysicalPlan(node)


def _ensure_partitioned(pnode: PNode, schema: Schema, current: Partitioning,
                        wanted: Tuple[int, ...]) -> Tuple[PNode, Partitioning]:
    """Insert a rehash if the stream is not already partitioned on
    ``wanted`` (positions into ``schema``)."""
    if current == wanted:
        return pnode, current
    key_fn = _positional_key_fn(wanted)
    return PRehash(key_fn=key_fn, children=(pnode,)), wanted


def _positional_key_fn(positions: Tuple[int, ...]):
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    return lambda row: tuple(row[i] for i in positions)


def _lower(node: LNode) -> Tuple[PNode, Partitioning]:
    if isinstance(node, LScan):
        part: Partitioning = None
        if node.partition_key is not None:
            part = (node.schema.index_of(node.partition_key),)
        return PScan(node.table), part

    if isinstance(node, LFeedback):
        return PFeedback(), (node.schema.index_of(node.fixpoint_key),)

    if isinstance(node, LFilter):
        child, part = _lower(node.children[0])
        bound = node.predicate.bind(node.children[0].schema)
        predicate = compile_exprs([bound], result="truth")
        udf_calls = _count_udf_calls(node.predicate)
        return (PFilter(predicate=predicate, udf_calls=udf_calls,
                        children=(child,)), part)

    if isinstance(node, LProject):
        child, part = _lower(node.children[0])
        in_schema = node.children[0].schema
        row_fn = make_row_fn([expr for expr, _ in node.items], in_schema)
        return (PProject(row_fn=row_fn, children=(child,)),
                _project_partitioning(node, in_schema, part))

    if isinstance(node, LApply):
        child, part = _lower(node.children[0])
        arg_fn = make_row_fn(node.args, node.children[0].schema)
        udf = node.udf
        pnode = PApply(udf_factory=lambda _u=udf: _u, arg_fn=arg_fn,
                       mode=node.mode, children=(child,))
        # 'extend' keeps the input prefix, preserving partition positions.
        out_part = part if node.mode == "extend" else None
        return pnode, out_part

    if isinstance(node, LRehash):
        child, _ = _lower(node.children[0])
        if node.broadcast:
            return (PRehash(broadcast=True, children=(child,)), BROADCAST)
        if node.key is None:
            # Gather: route every row to a single worker.
            return (PRehash(key_fn=lambda row: (), children=(child,)), ())
        pos = (node.schema.index_of(node.key),)
        return (PRehash(key_fn=_positional_key_fn(pos), children=(child,)),
                pos)

    if isinstance(node, LJoin):
        return _lower_join(node)

    if isinstance(node, LGroupBy):
        return _lower_groupby(node)

    if isinstance(node, LFixpoint):
        return _lower_fixpoint(node)

    raise PlanError(f"cannot lower logical node {type(node).__name__}")


def _project_partitioning(node: LProject, in_schema: Schema,
                          part: Partitioning) -> Partitioning:
    """Partitioning survives a projection iff every key column is passed
    through as a bare column reference."""
    if part in (None, BROADCAST):
        return part
    out_positions = []
    for key_pos in part:
        found = None
        for i, (expr, _) in enumerate(node.items):
            if (isinstance(expr, ColumnRef)
                    and in_schema.index_of(expr.name) == key_pos):
                found = i
                break
        if found is None:
            return None
        out_positions.append(found)
    return tuple(out_positions)


def _lower_join(node: LJoin) -> Tuple[PNode, Partitioning]:
    left, left_part = _lower(node.left)
    right, right_part = _lower(node.right)
    if node.condition is None:
        # Cross join: broadcast the (small, mutable) right side so the
        # partitioned left side never moves (K-means' centroid join).
        if right_part is not BROADCAST:
            right = PRehash(broadcast=True, children=(right,))
        key = lambda r: ()
        out_part: Partitioning = None
        left_key = right_key = key
    else:
        lcol, rcol = node.condition
        lpos = (node.left.schema.index_of(lcol),)
        rpos = (node.right.schema.index_of(rcol),)
        left, left_part = _ensure_partitioned(left, node.left.schema,
                                              left_part, lpos)
        right, right_part = _ensure_partitioned(right, node.right.schema,
                                                right_part, rpos)
        left_key = _positional_key_fn(lpos)
        right_key = _positional_key_fn(rpos)
        out_part = lpos if node.handler_factory is None else None
    return (PJoin(left_key=left_key, right_key=right_key,
                  handler_factory=node.handler_factory, handler_side=1,
                  children=(left, right)), out_part)


def _make_specs_factory(aggs: Sequence[LAggCall], in_schema: Schema):
    compiled = []
    for agg in aggs:
        bound = [a.bind(in_schema) for a in agg.args]
        if not bound:
            arg_fn = lambda row: None
        else:
            arg_fn = compile_exprs(
                bound, result="value" if len(bound) == 1 else "tuple")
        compiled.append((agg, arg_fn))

    def factory():
        return [AggregateSpec(agg.aggregator_factory(), arg=arg_fn,
                              output=agg.out_fields[0].name)
                for agg, arg_fn in compiled]

    return factory


def _lower_groupby(node: LGroupBy) -> Tuple[PNode, Partitioning]:
    child, part = _lower(node.children[0])
    in_schema = node.children[0].schema
    key_positions = tuple(in_schema.index_of(k) for k in node.keys)
    if node.keys and not node.pre_aggregated:
        child, part = _ensure_partitioned(child, in_schema, part,
                                          key_positions)
    elif not node.keys and not node.pre_aggregated:
        # Global aggregate: a single group must live on a single worker.
        child, part = _ensure_partitioned(child, in_schema, part, ())
    key_fn = (make_key_fn(in_schema, node.keys) if node.keys
              else (lambda row: ()))
    pgroup = PGroupBy(
        key_fn=key_fn,
        specs_factory=_make_specs_factory(node.aggs, in_schema),
        clear_states_each_stratum=node.clear_each_stratum,
        children=(child,),
    )
    out_part: Partitioning
    if node.pre_aggregated:
        out_part = part if part != () else None
    else:
        out_part = tuple(range(len(node.keys))) if node.keys else ()
    return pgroup, out_part


def _lower_fixpoint(node: LFixpoint) -> Tuple[PNode, Partitioning]:
    key_pos = node.schema.index_of(node.key)
    base, base_part = _lower(node.children[0])
    recursive, rec_part = _lower(node.children[1])
    base, _ = _ensure_partitioned(base, node.children[0].schema,
                                  base_part, (key_pos,))
    recursive, _ = _ensure_partitioned(recursive, node.children[1].schema,
                                       rec_part, (key_pos,))
    key_fn = _positional_key_fn((key_pos,))
    return (PFixpoint(key_fn=key_fn, semantics="keyed",
                      while_handler_factory=node.while_handler_factory,
                      children=(base, recursive)), (key_pos,))


def _count_udf_calls(expr) -> int:
    """Number of UDF invocations per tuple inside an expression tree."""
    count = 1 if isinstance(expr, FuncCall) else 0
    for attr in ("left", "right", "base"):
        child = getattr(expr, attr, None)
        if child is not None:
            count += _count_udf_calls(child)
    for child in getattr(expr, "operands", ()) or ():
        count += _count_udf_calls(child)
    for child in getattr(expr, "args", ()) or ():
        count += _count_udf_calls(child)
    return count
