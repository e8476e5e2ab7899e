"""Logical query algebra.

The RQL compiler lowers ASTs to this algebra; the optimizer transforms it
(join order, UDF placement, pre-aggregation) and the physical generator
lowers the winner to :mod:`repro.runtime.plan` nodes.  Nodes carry their
output :class:`~repro.common.schema.Schema` and are immutable — transforms
build new trees.  Every key (partitioning, join, group-by, fixpoint,
rehash) is a column position the RQL compiler resolved once; no node
looks a name up.  Expressions stay name-based and are bound at lowering,
because rewrites move them between schemas.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError
from repro.common.schema import Field, Schema, SQLType
from repro.operators.expressions import Expr


def _column(schema: Schema, pos: int, what: str) -> Field:
    """The field at key position ``pos``; a position out of range is a
    planner bug, refused where the node is built."""
    if not 0 <= pos < len(schema):
        raise PlanError(f"{what} position {pos} is out of range for {schema}")
    return schema[pos]


def _moved(old: "LNode", new: "LNode", positions: Sequence[int]
           ) -> Tuple[int, ...]:
    """``positions`` of ``old``'s output in ``new``'s.  An alternative the
    optimizer puts in a child's place outputs the same columns, but join
    commutation reorders them."""
    if old.schema.fields == new.schema.fields:
        return tuple(positions)
    return tuple(new.schema.fields.index(old.schema[p]) for p in positions)


class LNode:
    """Base logical node; subclasses set ``children`` and ``schema``."""

    children: Tuple["LNode", ...] = ()
    schema: Schema

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def with_children(self, children: Sequence["LNode"]) -> "LNode":
        raise NotImplementedError

    def label(self) -> str:
        return type(self).__name__[1:]


class LScan(LNode):
    """Scan of a catalog table (schema re-qualified to the FROM binding)."""

    def __init__(self, table: str, schema: Schema,
                 partition_key: Optional[int], binding: Optional[str] = None):
        self.table = table
        self.partition_key = partition_key
        self.binding = binding or table
        self.schema = schema.renamed(self.binding)
        self.children = ()
        if partition_key is not None:
            _column(self.schema, partition_key, "partition key")

    def with_children(self, children):
        assert not children
        return self

    def label(self):
        return f"Scan({self.table})"


class LFeedback(LNode):
    """Reference to the recursive (WITH) relation inside the recursive
    branch — physically the fixpoint receiver."""

    def __init__(self, cte_name: str, schema: Schema, fixpoint_key: int):
        self.cte_name = cte_name
        self.fixpoint_key = fixpoint_key
        self.schema = schema.renamed(cte_name)
        self.children = ()
        _column(self.schema, fixpoint_key, "fixpoint key")

    def with_children(self, children):
        assert not children
        return self

    def label(self):
        return f"FixpointReceiver({self.cte_name})"


class LFilter(LNode):
    def __init__(self, child: LNode, predicate: Expr,
                 selectivity: Optional[float] = None,
                 cost_per_tuple: Optional[float] = None):
        self.children = (child,)
        self.predicate = predicate
        self.schema = child.schema
        #: Optimizer annotations (predicate migration, Section 5.1).
        self.selectivity = selectivity
        self.cost_per_tuple = cost_per_tuple

    def with_children(self, children):
        (child,) = children
        return LFilter(child, self.predicate, self.selectivity,
                       self.cost_per_tuple)

    def label(self):
        return f"Filter({self.predicate!r})"


class LProject(LNode):
    """Projection: list of (expression, output field)."""

    def __init__(self, child: LNode, items: Sequence[Tuple[Expr, Field]]):
        self.children = (child,)
        self.items = list(items)
        self.schema = Schema([f for _, f in self.items])

    def with_children(self, children):
        (child,) = children
        return LProject(child, self.items)

    def label(self):
        return f"Project({', '.join(f.name for _, f in self.items)})"


class LApply(LNode):
    """applyFunction: extends rows with (possibly table-valued) UDF output."""

    def __init__(self, child: LNode, udf, args: Sequence[Expr],
                 out_fields: Sequence[Field], mode: str = "extend"):
        self.children = (child,)
        self.udf = udf
        self.args = list(args)
        self.out_fields = list(out_fields)
        self.mode = mode
        if mode == "extend":
            self.schema = child.schema.concat(Schema(self.out_fields))
        else:
            self.schema = Schema(self.out_fields)

    def with_children(self, children):
        (child,) = children
        return LApply(child, self.udf, self.args, self.out_fields, self.mode)

    def label(self):
        return f"ApplyFn({self.udf.name})"


class LJoin(LNode):
    """Equi-join (or handler join).  ``condition`` is the key positions
    (left, right) in the two inputs, or None for a broadcast cross join
    (K-means' centroid join).

    With ``handler_factory`` set, deltas arriving from the right child are
    processed by a user join delta handler and the output schema is the
    handler's declared output (Section 3.3's join-state handler)."""

    def __init__(self, left: LNode, right: LNode,
                 condition: Optional[Tuple[int, int]],
                 handler_factory: Optional[Callable[[], Any]] = None,
                 handler_schema: Optional[Schema] = None):
        self.children = (left, right)
        self.condition = condition
        if condition is not None:
            _column(left.schema, condition[0], "left join key")
            _column(right.schema, condition[1], "right join key")
        self.handler_factory = handler_factory
        if handler_factory is not None:
            if handler_schema is None:
                raise PlanError("handler join requires an output schema")
            self.schema = handler_schema
        else:
            self.schema = left.schema.concat(right.schema)

    @property
    def left(self) -> LNode:
        return self.children[0]

    @property
    def right(self) -> LNode:
        return self.children[1]

    def with_children(self, children):
        left, right = children
        condition = self.condition and (
            _moved(self.left, left, self.condition[:1])
            + _moved(self.right, right, self.condition[1:]))
        return LJoin(left, right, condition, self.handler_factory,
                     self.schema if self.handler_factory else None)

    def swapped(self) -> "LJoin":
        """Commuted join (only for plain equi-joins)."""
        if self.handler_factory is not None:
            raise PlanError("handler joins fix their input roles")
        cond = (self.condition[1], self.condition[0]) if self.condition else None
        return LJoin(self.right, self.left, cond)

    def label(self):
        condition = None
        if self.condition is not None:
            lpos, rpos = self.condition
            condition = (self.left.schema[lpos].name,
                         self.right.schema[rpos].name)
        if self.handler_factory is not None:
            name = getattr(self.handler_factory(), "name", "handler")
            return f"Join[{name}]({condition})"
        return f"Join({condition})"


class LAggCall:
    """One aggregate column: resolved aggregator + argument expression(s).

    ``out_fields`` may list several fields when the aggregate is
    tuple-valued and expanded with ``.{a, b}`` (e.g. ArgMin).
    """

    def __init__(self, name: str, aggregator_factory: Callable[[], Any],
                 args: Sequence[Expr], out_fields: Sequence[Field],
                 composable: bool = False):
        self.name = name
        self.aggregator_factory = aggregator_factory
        self.args = list(args)
        self.out_fields = list(out_fields)
        self.composable = composable

    def __repr__(self):
        return f"{self.name}({', '.join(map(repr, self.args))})"


class LGroupBy(LNode):
    """Group-by with aggregate calls.  ``pre_aggregated`` marks the partial
    (combiner) instance the optimizer pushes below a rehash (Section 5.2).
    ``keys`` are input column positions; they lead the output schema."""

    def __init__(self, child: LNode, keys: Sequence[int],
                 aggs: Sequence[LAggCall], pre_aggregated: bool = False,
                 clear_each_stratum: bool = False):
        self.children = (child,)
        self.keys = tuple(keys)
        self.aggs = list(aggs)
        self.pre_aggregated = pre_aggregated
        self.clear_each_stratum = clear_each_stratum
        key_fields = [_column(child.schema, k, "group-by key")
                      for k in self.keys]
        agg_fields = [f for agg in self.aggs for f in agg.out_fields]
        self.schema = Schema(key_fields + agg_fields)

    def with_children(self, children):
        (child,) = children
        return LGroupBy(child, _moved(self.children[0], child, self.keys),
                        self.aggs, self.pre_aggregated,
                        self.clear_each_stratum)

    def label(self):
        aggs = ", ".join(repr(a) for a in self.aggs)
        kind = "PreAgg" if self.pre_aggregated else "GroupBy"
        keys = ", ".join(f.name for f in self.schema.fields[:len(self.keys)])
        return f"{kind}({keys}; {aggs})"


class LFixpoint(LNode):
    """Stratified recursion: children = (base, recursive)."""

    def __init__(self, base: LNode, recursive: LNode, key: int,
                 cte_name: str, union_all: bool = False,
                 schema: Optional[Schema] = None,
                 while_handler_factory: Optional[Callable[[], Any]] = None):
        self.children = (base, recursive)
        self.key = key
        self.cte_name = cte_name
        self.union_all = union_all
        #: Optional user while-state handler (Section 3.3) governing how
        #: arriving rows refine the fixpoint relation (e.g. monotone min).
        self.while_handler_factory = while_handler_factory
        # The WITH clause's declared column names take precedence over the
        # base case's output names.
        self.schema = schema if schema is not None \
            else base.schema.renamed(cte_name)
        _column(self.schema, key, "fixpoint key")

    def with_children(self, children):
        base, recursive = children
        return LFixpoint(base, recursive, self.key, self.cte_name,
                         self.union_all, schema=self.schema,
                         while_handler_factory=self.while_handler_factory)

    def label(self):
        return f"Fixpoint({self.cte_name} BY {self.schema[self.key].name})"


class LRehash(LNode):
    """Explicit repartitioning, inserted by the optimizer."""

    def __init__(self, child: LNode, key: Optional[int],
                 broadcast: bool = False):
        self.children = (child,)
        self.key = key
        self.broadcast = broadcast
        self.schema = child.schema
        if key is not None:
            _column(self.schema, key, "rehash key")

    def with_children(self, children):
        (child,) = children
        return LRehash(child, self.key, self.broadcast)

    def label(self):
        if self.broadcast:
            return "Rehash(broadcast)"
        if self.key is None:
            return "Gather"
        return f"Rehash({self.schema[self.key].name})"


def table_arity(root: LNode) -> Dict[str, int]:
    """Column count of every table ``root`` scans (what the column-lineage
    analysis needs to know the width of a physical scan)."""
    return {n.table: len(n.schema.fields) for n in root.walk()
            if isinstance(n, LScan)}
