"""Lowering: logical plans to executable physical plans.

Exchanges are placed by :func:`~repro.optimizer.exchanges.add_exchanges`
(which adds nothing to an optimized tree); lowering then translates each
logical node one to one — every ``LRehash`` becomes one ``PRehash`` — and
tracks no partitioning of its own.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.common.errors import PlanError
from repro.common.schema import Schema
from repro.operators.expressions import (
    FuncCall,
    compile_exprs,
    make_row_fn,
)
from repro.optimizer.exchanges import add_exchanges
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


def lower(root: LNode) -> PhysicalPlan:
    """Lower a logical tree to a validated physical plan.

    ``plan.origins`` maps each operator node's ``id`` to the logical node
    it was lowered from, so analyses of the physical tree also answer for
    the logical one (``explain`` annotates logical trees that way).
    """
    placed = add_exchanges(root)
    lowered = _lower(placed)
    plan = PhysicalPlan(lowered)
    # Lowering is one to one and keeps child order: the walks pair up.
    plan.origins = {id(pnode): lnode for pnode, lnode
                    in zip(lowered.walk(), placed.walk())}
    return plan


def _no_key(row) -> tuple:
    """The empty key: a gather, a cross join, a global aggregate."""
    return ()


def _key_of(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """The key extractor for the column ``positions`` the compiler
    resolved (the empty key for none)."""
    if not positions:
        return _no_key
    if len(positions) == 1:
        i = positions[0]
        return lambda row: (row[i],)
    return lambda row: tuple(row[i] for i in positions)


def _lower(node: LNode) -> PNode:
    if isinstance(node, LScan):
        return PScan(node.table)

    if isinstance(node, LFeedback):
        return PFeedback()

    if isinstance(node, LFilter):
        child = _lower(node.children[0])
        bound = node.predicate.bind(node.children[0].schema)
        predicate = compile_exprs([bound], result="truth")
        udf_calls = _count_udf_calls(node.predicate)
        return PFilter(predicate=predicate, udf_calls=udf_calls,
                       children=(child,))

    if isinstance(node, LProject):
        child = _lower(node.children[0])
        in_schema = node.children[0].schema
        row_fn = make_row_fn([expr for expr, _ in node.items], in_schema)
        return PProject(row_fn=row_fn, children=(child,))

    if isinstance(node, LApply):
        child = _lower(node.children[0])
        arg_fn = make_row_fn(node.args, node.children[0].schema)
        udf = node.udf
        return PApply(udf_factory=lambda _u=udf: _u, arg_fn=arg_fn,
                      mode=node.mode, children=(child,))

    if isinstance(node, LRehash):
        child = _lower(node.children[0])
        if node.broadcast:
            return PRehash(broadcast=True, children=(child,))
        # No key is a gather: every row goes to a single worker.
        keys = () if node.key is None else (node.key,)
        return PRehash(key_fn=_key_of(keys), children=(child,))

    if isinstance(node, LJoin):
        return _lower_join(node)

    if isinstance(node, LGroupBy):
        return _lower_groupby(node)

    if isinstance(node, LFixpoint):
        return _lower_fixpoint(node)

    raise PlanError(f"cannot lower logical node {type(node).__name__}")


def _join_key_of(pos: int, side: str) -> Callable[[tuple], tuple]:
    """The key extractor of one ``side`` of an SQL equi-join.  In SQL a
    NULL equals nothing, not even another NULL: it becomes the two-column
    key ``(None, side)``, which no one-column key and not the other
    side's NULL equals, so a NULL-keyed row never finds a partner."""
    def key(row):
        value = row[pos]
        return (None, side) if value is None else (value,)
    return key


def _lower_join(node: LJoin) -> PNode:
    if node.condition is None:
        # Cross join: placement broadcast the (small, mutable) right side
        # so the partitioned left side never moves (K-means' centroids).
        left_key = right_key = _no_key
    else:
        lpos, rpos = node.condition
        left_key = _join_key_of(lpos, "left")
        right_key = _join_key_of(rpos, "right")
    return PJoin(left_key=left_key, right_key=right_key,
                 handler_factory=node.handler_factory, handler_side=1,
                 children=(_lower(node.left), _lower(node.right)))


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


def _lower_groupby(node: LGroupBy) -> PNode:
    child = _lower(node.children[0])
    in_schema = node.children[0].schema
    return PGroupBy(
        key_fn=_key_of(node.keys),
        specs_factory=_make_specs_factory(node.aggs, in_schema),
        clear_states_each_stratum=node.clear_each_stratum,
        children=(child,),
    )


def _lower_fixpoint(node: LFixpoint) -> PNode:
    return PFixpoint(key_fn=_key_of((node.key,)), semantics="keyed",
                     while_handler_factory=node.while_handler_factory,
                     children=(_lower(node.children[0]),
                               _lower(node.children[1])))


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
