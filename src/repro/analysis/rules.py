"""Rule passes over logical plans (Layer 1 of the plan analyzer).

Each pass walks an :class:`~repro.optimizer.logical.LNode` tree and
appends :class:`~repro.analysis.diagnostics.Diagnostic` findings to a
report.  Passes are pure — they never mutate the plan — and every
finding carries the path of plan-node labels from the root so the user
can locate the offending operator in ``explain`` output.

The invariants come straight from the paper: stratified recursion and
exactly one feedback point (Section 3), pre-aggregation only for
composable UDAs with ``multiply`` compensation under multiplicative
joins (Section 5.2), hash co-location for every stateful operator
(Section 4.2), and delta streams only into operators that can interpret
them (Section 3.3).
"""

from __future__ import annotations

from typing import Callable, List

from repro.analysis.diagnostics import Diagnostic, Severity, make
from repro.operators.expressions import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    TupleField,
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
)
from repro.optimizer.exchanges import BROADCAST, propagate
from repro.common.schema import Schema, SQLType

#: Signature of a rule pass: (root, emit) -> None.
RulePass = Callable[[LNode, Callable[[Diagnostic], None]], None]


# ---------------------------------------------------------------------------
# Tree walking with paths
# ---------------------------------------------------------------------------

def _walk_with_path(node: LNode, path: str = ""):
    """Yield (node, path) pairs; the path is '/'-joined operator labels."""
    here = f"{path}/{node.label()}" if path else node.label()
    yield node, here
    for child in node.children:
        yield from _walk_with_path(child, here)


def _feedbacks(node: LNode) -> List[LFeedback]:
    return [n for n in node.walk() if isinstance(n, LFeedback)]


# ---------------------------------------------------------------------------
# REX001 — stratification
# ---------------------------------------------------------------------------

def check_stratification(root: LNode, emit) -> None:
    """Aggregation/negation inside recursion must be stratum-separated.

    * A fixpoint nested inside another fixpoint's recursive branch is not
      stratified (the engine evaluates one fixpoint per plan; inner
      recursion would interleave two delta streams).
    * A NOT over columns of the recursive relation, applied inside the
      recursive branch, is non-monotone: a tuple derived in stratum *i*
      can invalidate derivations of stratum *i-1*.
    """
    for node, path in _walk_with_path(root):
        if not isinstance(node, LFixpoint):
            continue
        recursive = node.children[1]
        for inner, ipath in _walk_with_path(recursive, path):
            if isinstance(inner, LFixpoint):
                emit(make(
                    "REX001",
                    f"fixpoint {inner.cte_name!r} is nested inside the "
                    f"recursive branch of fixpoint {node.cte_name!r}",
                    location=ipath,
                    hint="split the query into two stratified fixpoints "
                         "(materialize the inner one first)"))
            if isinstance(inner, LFilter):
                _check_negation(inner, node, ipath, emit)


def _check_negation(filt: LFilter, fixpoint: LFixpoint, path: str,
                    emit) -> None:
    recursive_schema = fixpoint.schema

    def scan(expr: Expr, negated: bool) -> None:
        if isinstance(expr, BoolOp):
            inner_negated = negated or expr.op == "not"
            for operand in expr.operands:
                scan(operand, inner_negated)
            return
        if negated:
            over_recursive = [c for c in expr.columns()
                              if recursive_schema.has(c)]
            if over_recursive:
                emit(make(
                    "REX001",
                    f"negation over recursive column(s) "
                    f"{sorted(set(over_recursive))} of "
                    f"{fixpoint.cte_name!r} inside its own recursive "
                    f"branch is not stratified",
                    location=path,
                    hint="move the negated test out of the recursion or "
                         "restate it monotonically (e.g. via a while-state "
                         "handler)"))

    scan(filt.predicate, negated=False)


# ---------------------------------------------------------------------------
# REX002 — fixpoint shape and termination
# ---------------------------------------------------------------------------

def check_fixpoint_termination(root: LNode, emit) -> None:
    for node, path in _walk_with_path(root):
        if not isinstance(node, LFixpoint):
            continue
        base, recursive = node.children
        n_feedback = len(_feedbacks(recursive))
        if n_feedback != 1:
            emit(make(
                "REX002",
                f"recursive branch of {node.cte_name!r} references the "
                f"recursive relation {n_feedback} times (exactly one "
                f"feedback point is required)",
                location=path,
                hint="rewrite the recursive case to read the WITH "
                     "relation exactly once"))
        if _feedbacks(base):
            emit(make(
                "REX002",
                f"base case of {node.cte_name!r} references the recursive "
                f"relation (the base case must be non-recursive)",
                location=path,
                hint="seed the fixpoint from catalog tables only"))
        if node.union_all and not _has_contraction(recursive, node):
            emit(make(
                "REX002",
                f"fixpoint {node.cte_name!r} uses UNION ALL semantics and "
                f"its recursive branch has no contraction mechanism "
                f"(no filter, aggregation, or while-state handler): "
                f"termination relies entirely on the stratum cap",
                location=path,
                severity=Severity.WARNING,
                hint="add a convergence filter or a monotone while-state "
                     "handler, or run with an explicit --max-strata bound"))


def _has_contraction(recursive: LNode, fixpoint: LFixpoint) -> bool:
    """Anything that can shrink or refine the per-stratum delta set."""
    if fixpoint.while_handler_factory is not None:
        return True
    for n in recursive.walk():
        if isinstance(n, (LFilter, LGroupBy)):
            return True
        if isinstance(n, LJoin) and n.handler_factory is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# REX003 / REX004 — UDA pre-aggregation pushdown legality
# ---------------------------------------------------------------------------

def check_preaggregation(root: LNode, emit) -> None:
    parents = _parent_map(root)
    for node, path in _walk_with_path(root):
        if not isinstance(node, LGroupBy) or not node.pre_aggregated:
            continue
        for agg in node.aggs:
            template = _template(agg)
            if template is None:
                continue
            if not getattr(template, "composable", False):
                emit(make(
                    "REX003",
                    f"pre-aggregated group-by applies non-composable "
                    f"aggregate {agg.name!r}: its partial results cannot "
                    f"be unioned and finally aggregated",
                    location=path,
                    hint="mark the UDA composable (and supply a "
                         "pre_aggregator) or remove the pushdown"))
        if not _has_final_aggregation(node, parents):
            emit(make(
                "REX003",
                f"partial (combiner) group-by {node.label()} has no "
                f"final group-by above it: partial aggregates would "
                f"escape as query results",
                location=path,
                hint="place a final group-by on the same keys above the "
                     "repartitioning exchange"))
    _check_multiplicative_joins(root, emit)


def _template(agg: LAggCall):
    try:
        return agg.aggregator_factory()
    except Exception:
        return None


def _parent_map(root: LNode):
    parents = {}
    for node in root.walk():
        for child in node.children:
            parents[id(child)] = node
    return parents


def _has_final_aggregation(partial: LGroupBy, parents) -> bool:
    """A partial group-by is sound iff some ancestor re-aggregates it
    (directly, or after a join in the multiplicative-join rewrite where
    the compensation projection plays the finalizer)."""
    node = parents.get(id(partial))
    while node is not None:
        if isinstance(node, LGroupBy):
            return True
        if isinstance(node, LProject) and _has_multiply_compensation(node):
            return True
        node = parents.get(id(node))
    return False


def _has_multiply_compensation(project: LProject) -> bool:
    return any(isinstance(expr, FuncCall)
               and getattr(expr.udf, "name", "").startswith("multiply")
               for expr, _ in project.items)


def _check_multiplicative_joins(root: LNode, emit) -> None:
    """The Section 5.2 special case: pre-aggregation on *both* inputs of
    a non key-FK join under-counts group cardinalities and must be
    compensated with each UDA's ``multiply`` function.

    The optimizer's rewrite marks its side pre-aggregations with
    synthetic ``_cnt_*`` count columns; any join exhibiting that shape is
    checked for (a) ``multiply`` on every side aggregate and (b) a
    compensation projection above the join.
    """
    parents = _parent_map(root)
    for node, path in _walk_with_path(root):
        if not isinstance(node, LJoin) or node.handler_factory is not None:
            continue
        left, right = node.left, node.right
        if not (isinstance(left, LGroupBy) and isinstance(right, LGroupBy)):
            continue
        if not (_is_side_preagg(left) and _is_side_preagg(right)):
            continue
        for side in (left, right):
            for agg in side.aggs:
                template = _template(agg)
                if template is None or agg.name == "count":
                    continue
                if getattr(template, "multiply", None) is None:
                    emit(make(
                        "REX004",
                        f"aggregate {agg.name!r} is pre-aggregated on one "
                        f"input of a multiplicative join but supplies no "
                        f"multiply function",
                        location=path,
                        hint="define multiply(value, n) on the UDA or "
                             "disable both-sides pre-aggregation"))
        parent = parents.get(id(node))
        if not (isinstance(parent, LProject)
                and _has_multiply_compensation(parent)):
            emit(make(
                "REX004",
                "both inputs of a join are pre-aggregated but no multiply "
                "compensation projection sits above the join: group "
                "cardinalities would be under-counted",
                location=path,
                hint="project each partial through multiply(partial, "
                     "count_of_opposite_group) above the join"))


def _is_side_preagg(gb: LGroupBy) -> bool:
    """The rewrite's side group-bys carry a synthetic count column named
    ``_cnt_*`` (added 'transparently by the optimizer')."""
    return any(f.name.startswith("_cnt_") for f in gb.schema)


# ---------------------------------------------------------------------------
# REX005 / REX006 — partitioning soundness
# ---------------------------------------------------------------------------

def check_partitioning(root: LNode, emit) -> None:
    """Walk the exchange-placement model itself
    (:func:`repro.optimizer.exchanges.propagate`): flag every stateful
    input whose stream does not satisfy its requirement (a missing
    exchange, which placement would have added) and every exchange whose
    input already has the partitioning it produces (a redundant one)."""
    paths = {id(n): p for n, p in _walk_with_path(root)}

    def missing(consumer, child, part, wanted, what):
        emit(make(
            "REX005",
            f"{what} requires input {_describe(wanted, child)} but the "
            f"stream arrives {_describe(part, child)} and no rehash in "
            f"between",
            location=paths[id(consumer)],
            hint="insert a Rehash exchange on the operator's key (the "
                 "optimizer's exchange placement does this automatically)"))
        return child

    def redundant(rehash, part):
        emit(make(
            "REX006",
            f"{rehash.label()} over a stream that is already "
            f"{_describe(part, rehash)}",
            location=paths[id(rehash)],
            hint="drop the exchange; its input already has the "
                 "partitioning it produces"))

    propagate(root, missing, redundant)


def _describe(part, node: LNode) -> str:
    if part is None:
        return "arbitrarily partitioned"
    if part == BROADCAST:
        return "broadcast"
    if part == ():
        return "gathered"
    cols = ", ".join(node.schema[p].name for p in part)
    return f"partitioned on ({cols})"


# ---------------------------------------------------------------------------
# REX007 — delta-annotation soundness
# ---------------------------------------------------------------------------

def check_delta_soundness(root: LNode, emit) -> None:
    """Handler joins are the producers of programmable ``δ(E)`` deltas;
    their payloads are only meaningful to an interpreting stateful
    consumer (an aggregation, or the fixpoint's while-state handler).
    A handler join whose output reaches the fixpoint with neither in
    between would feed raw payloads into keyed replacement semantics.

    Conversely a handler join placed inside a recursive branch but not
    fed by the feedback never sees the recursion's deltas.
    """
    parents = _parent_map(root)
    for node, path in _walk_with_path(root):
        if not isinstance(node, LFixpoint):
            continue
        recursive = node.children[1]
        for inner, ipath in _walk_with_path(recursive, path):
            if not isinstance(inner, LJoin) \
                    or inner.handler_factory is None:
                continue
            if not _feedbacks(inner):
                emit(make(
                    "REX007",
                    "join delta handler inside the recursive branch is "
                    "not fed by the recursive relation: it will never "
                    "observe the recursion's deltas",
                    location=ipath,
                    hint="join the handler's mutable side with the WITH "
                         "relation (the fixpoint receiver)"))
            if not _payload_interpreted(inner, node, parents):
                emit(make(
                    "REX007",
                    "join delta handler output flows into the fixpoint "
                    "with no aggregation or while-state handler to "
                    "interpret its value-update (δ) payloads",
                    location=ipath,
                    hint="aggregate the handler's output (GROUP BY) or "
                         "attach a while-state delta handler to the "
                         "fixpoint"))


def _payload_interpreted(handler_join: LJoin, fixpoint: LFixpoint,
                         parents) -> bool:
    if fixpoint.while_handler_factory is not None:
        return True
    node = parents.get(id(handler_join))
    while node is not None and node is not fixpoint:
        if isinstance(node, LGroupBy):
            return True
        node = parents.get(id(node))
    return False


# ---------------------------------------------------------------------------
# REX008 — schema / arity / type inference
# ---------------------------------------------------------------------------

_NUMERIC = (SQLType.INTEGER, SQLType.DOUBLE, SQLType.ANY)
_ARITH_OPS = ("+", "-", "*", "/", "%")


def check_schemas(root: LNode, emit) -> None:
    for node, path in _walk_with_path(root):
        if isinstance(node, LFilter):
            child_schema = node.children[0].schema
            _check_expr(node.predicate, child_schema, path, emit)
            out = node.predicate.output_type(child_schema)
            if out not in (SQLType.BOOLEAN, SQLType.ANY):
                emit(make(
                    "REX008",
                    f"filter predicate has type {out.value}, expected "
                    f"Boolean",
                    location=path,
                    hint="wrap the expression in a comparison"))
        elif isinstance(node, LProject):
            child_schema = node.children[0].schema
            for expr, _field in node.items:
                _check_expr(expr, child_schema, path, emit)
        elif isinstance(node, LApply):
            child_schema = node.children[0].schema
            for arg in node.args:
                _check_expr(arg, child_schema, path, emit)
            declared = getattr(node.udf, "input_fields", ())
            if declared and len(node.args) != len(declared):
                emit(make(
                    "REX008",
                    f"UDF {node.udf.name!r} declares {len(declared)} "
                    f"input(s) but is applied to {len(node.args)} "
                    f"argument(s)",
                    location=path))
        elif isinstance(node, LJoin):
            _check_join_schema(node, path, emit)
        elif isinstance(node, LGroupBy):
            _check_groupby_schema(node, path, emit)
        elif isinstance(node, LFixpoint):
            _check_fixpoint_schema(node, path, emit)


def _check_expr(expr: Expr, schema: Schema, path: str, emit) -> None:
    if isinstance(expr, ColumnRef):
        if not schema.has(expr.name):
            emit(make(
                "REX008",
                f"column {expr.name!r} not found in input schema "
                f"({', '.join(f.name for f in schema)})",
                location=path,
                hint="check spelling and relation qualifiers"))
        return
    if isinstance(expr, Literal):
        return
    if isinstance(expr, BinaryOp):
        _check_expr(expr.left, schema, path, emit)
        _check_expr(expr.right, schema, path, emit)
        if expr.op in _ARITH_OPS:
            for side in (expr.left, expr.right):
                t = side.output_type(schema)
                if t not in _NUMERIC:
                    emit(make(
                        "REX008",
                        f"arithmetic {expr.op!r} over non-numeric operand "
                        f"{side!r} of type {t.value}",
                        location=path,
                        hint="cast the operand or fix the column type"))
        return
    if isinstance(expr, BoolOp):
        for operand in expr.operands:
            _check_expr(operand, schema, path, emit)
        return
    if isinstance(expr, FuncCall):
        for arg in expr.args:
            _check_expr(arg, schema, path, emit)
        declared = getattr(expr.udf, "input_fields", ())
        if declared and len(expr.args) != len(declared):
            emit(make(
                "REX008",
                f"UDF {expr.udf.name!r} expects {len(declared)} "
                f"argument(s), got {len(expr.args)}",
                location=path))
        return
    if isinstance(expr, TupleField):
        _check_expr(expr.base, schema, path, emit)


def _check_join_schema(node: LJoin, path: str, emit) -> None:
    if node.condition is None:
        return
    left = node.left.schema[node.condition[0]]
    right = node.right.schema[node.condition[1]]
    if not _types_joinable(left.type, right.type):
        emit(make(
            "REX008",
            f"join keys {left.qualified!r} ({left.type.value}) and "
            f"{right.qualified!r} ({right.type.value}) have incompatible "
            f"types",
            location=path,
            hint="equality across these types never matches"))


def _types_joinable(a: SQLType, b: SQLType) -> bool:
    if SQLType.ANY in (a, b) or a is b:
        return True
    return a.is_numeric() and b.is_numeric()


def _check_groupby_schema(node: LGroupBy, path: str, emit) -> None:
    child_schema = node.children[0].schema
    for agg in node.aggs:
        for arg in agg.args:
            _check_expr(arg, child_schema, path, emit)
        template = _template(agg)
        declared = getattr(template, "input_fields", ()) if template else ()
        if declared and agg.args and len(agg.args) != len(declared):
            emit(make(
                "REX008",
                f"aggregate {agg.name!r} expects {len(declared)} "
                f"argument(s), got {len(agg.args)}",
                location=path))


def _check_fixpoint_schema(node: LFixpoint, path: str, emit) -> None:
    base, recursive = node.children
    if len(base.schema) != len(recursive.schema):
        emit(make(
            "REX008",
            f"fixpoint {node.cte_name!r}: base case produces "
            f"{len(base.schema)} column(s) but the recursive case "
            f"produces {len(recursive.schema)}",
            location=path,
            hint="the two cases must be union-compatible"))


#: All logical passes in catalog order.
LOGICAL_PASSES: List[RulePass] = [
    check_stratification,
    check_fixpoint_termination,
    check_preaggregation,
    check_delta_soundness,
    check_schemas,
    check_partitioning,
]
