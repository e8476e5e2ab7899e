"""Semantic analysis: RQL ASTs to logical plans.

Resolves FROM bindings against the catalog and the enclosing WITH relation,
resolves calls against the UDF registry (scalar UDF / aggregate / join
delta handler — the namespaces the paper discovers via reflection), type-
checks what it can, and emits :mod:`repro.optimizer.logical` trees.

This is the only code that resolves a user-written column name, by the
one rule of :meth:`Schema.index_of`.  Select, WHERE, join and GROUP BY
names resolve against the whole FROM list, as in SQL; every key the
plan carries (partitioning, join, group-by, fixpoint) and every ORDER BY
item leaves here as a column position.

Two paper idioms get dedicated treatment:

* **Handler joins** — ``SELECT H(args).{out...} FROM immutable, recursive
  WHERE a.k = b.k GROUP BY k`` with ``H`` a registered join delta handler
  compiles to a handler join (Listing 1's ``PRAgg`` pattern).  Without a
  WHERE clause the mutable side broadcasts (Listing 3's ``KMAgg``).  Extra
  select items naming the grouping key are tolerated, as in the listings.
* **Aggregate expansion** — tuple-valued aggregates projected with
  ``.{a, b}`` (Listing 2's ``ArgMin(...).{id, dist}``) become a single
  aggregate column expanded by positional tuple access in the projection.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import TypeCheckError
from repro.common.schema import Field, Schema, SQLType
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
    LScan,
)
from repro.rql import ast
from repro.storage.tables import Catalog
from repro.udf.builtins import Count
from repro.udf.registry import UDFRegistry

#: A top-level ORDER BY / LIMIT, applied by the requestor to the collected
#: rows: ((output position, descending), ...) and the row limit.
Presentation = Tuple[Tuple[Tuple[int, bool], ...], Optional[int]]


class Compiler:
    """Stateful compilation of one query."""

    def __init__(self, catalog: Catalog, registry: UDFRegistry):
        self.catalog = catalog
        self.registry = registry
        self._cte: Optional[Tuple[str, Schema, int]] = None  # name, schema, key
        self._gensym = itertools.count()
        self.presentation: Optional[Presentation] = None

    # ------------------------------------------------------------------
    def compile(self, query: ast.Query) -> LNode:
        """Compile a top-level query.  Its ORDER BY / LIMIT, which the
        requestor applies to the collected rows, is not part of the plan:
        it is left in :attr:`presentation`, sort keys as output
        positions."""
        if isinstance(query, ast.WithRecursive):
            return self._compile_with(query)
        return self._compile_select(query, top=True)

    def _compile_with(self, query: ast.WithRecursive) -> LNode:
        base = self._compile_select(query.base)
        if query.columns:
            if len(query.columns) != len(base.schema):
                raise TypeCheckError(
                    f"WITH {query.name} declares {len(query.columns)} columns "
                    f"but its base case produces {len(base.schema)}"
                )
            cte_schema = Schema([
                Field(col, f.type, query.name)
                for col, f in zip(query.columns, base.schema)
            ])
        else:
            cte_schema = base.schema.renamed(query.name)
        key = cte_schema.index_of(query.fixpoint_key)
        self._cte = (query.name, cte_schema, key)
        recursive = self._compile_select(query.recursive)
        if len(recursive.schema) != len(cte_schema):
            raise TypeCheckError(
                f"recursive case of {query.name} produces "
                f"{len(recursive.schema)} columns, expected {len(cte_schema)}"
            )
        self._cte = None
        return LFixpoint(base, recursive, key=key,
                         cte_name=query.name, union_all=query.union_all,
                         schema=cte_schema)

    # ------------------------------------------------------------------
    def _compile_select(self, sel: ast.Select, top: bool = False) -> LNode:
        presented = bool(sel.order_by) or sel.limit is not None
        if presented and not top:
            # Presentation clauses are applied at the requestor over the
            # collected result; they are meaningless on subqueries.
            raise TypeCheckError(
                "ORDER BY / LIMIT are only supported on the top-level "
                "query")
        sources = [(ref.binding, self._compile_from(ref))
                   for ref in sel.from_]
        handler_item = self._find_handler_item(sel)
        order: Tuple[Tuple[int, bool], ...] = ()
        if handler_item is not None:
            if top:
                # The handler's non-key outputs ride as δ payloads, which
                # have no row image in a collected result.
                raise TypeCheckError(
                    "a join-handler SELECT must feed a GROUP BY or a "
                    "recursive case; it cannot be the top-level query")
            node = self._compile_handler_join(sel, sources, handler_item)
        else:
            node = self._join_sources(sources, sel.where)
            node, items = self._expand_table_functions(node, list(sel.items))
            if sel.order_by:
                order = self._order_keys(sel.order_by, items, node.schema)
            if sel.group_by or self._has_aggregates(items):
                node = self._compile_groupby(sel, node, items)
            else:
                node = LProject(node, [
                    (self._expr(item.expr, node.schema),
                     self._out_field(item, node.schema, i))
                    for i, item in enumerate(items)])
        if presented:
            self.presentation = (order, sel.limit)
        return node

    def _compile_from(self, ref: ast.TableRef) -> LNode:
        if ref.subquery is not None:
            node = self._compile_select(ref.subquery)
            if ref.alias:
                items = [(ColumnRef(f.qualified),
                          Field(f.name, f.type, ref.alias))
                         for f in node.schema]
                node = LProject(node, items)
            return node
        name = ref.name
        if self._cte is not None and name == self._cte[0]:
            cte_name, schema, key = self._cte
            return LFeedback(cte_name, schema, key)
        if self.catalog.has(name):
            table = self.catalog.get(name)
            return LScan(name, table.schema, table.key_index,
                         binding=ref.binding)
        raise TypeCheckError(f"unknown relation {name!r}")

    # -- handler joins --------------------------------------------------
    def _find_handler_item(self, sel: ast.Select
                           ) -> Optional[ast.FieldExpansion]:
        found = None
        for item in sel.items:
            expr = item.expr
            if (isinstance(expr, ast.FieldExpansion)
                    and self.registry.is_join_handler(expr.call.func)):
                if found is not None:
                    raise TypeCheckError(
                        "at most one join delta handler per SELECT")
                found = expr
        return found

    def _compile_handler_join(self, sel: ast.Select,
                              sources: List[Tuple[str, LNode]],
                              item: ast.FieldExpansion) -> LNode:
        if len(sources) != 2:
            raise TypeCheckError(
                f"join handler {item.call.func} requires exactly two "
                "relations in FROM")
        for other in sel.items:
            if other.expr is item:
                continue
            if not isinstance(other.expr, ast.Name):
                raise TypeCheckError(
                    "handler-join SELECT may only name the handler call "
                    "and plain key columns")
        # The handler processes the mutable side: the recursive relation if
        # present, otherwise the second FROM entry.
        mutable_idx = next(
            (i for i, (_, node) in enumerate(sources)
             if isinstance(node, LFeedback)),
            1,
        )
        immutable_idx = 1 - mutable_idx
        left = sources[immutable_idx][1]
        right = sources[mutable_idx][1]

        condition = None
        if sel.where is not None:
            condition, rest = self._extract_join_condition(
                self._split_conjuncts(sel.where),
                left.schema.concat(right.schema), len(left.schema),
                len(right.schema))
            if rest:
                raise TypeCheckError(
                    "handler joins support a single equality join "
                    "condition")
        handler_factory = self.registry.join_handler_factory(item.call.func)
        handler = handler_factory()
        declared = {name: ftype
                    for name, ftype in getattr(handler, "output_fields", ())}
        out_fields = [Field(f, declared.get(f, SQLType.ANY))
                      for f in item.fields]
        return LJoin(left, right, condition,
                     handler_factory=handler_factory,
                     handler_schema=Schema(out_fields))

    # -- generic joins -----------------------------------------------------
    def _join_sources(self, sources: List[Tuple[str, LNode]],
                      where: Optional[ast.AstExpr]) -> LNode:
        """Left-deep join of the FROM relations, in order; each joins on
        the first ``a = b`` conjunct between it and those before it."""
        conjuncts = self._split_conjuncts(where)
        scope = Schema([f for _, source in sources for f in source.schema])
        node = sources[0][1]
        for _, right in sources[1:]:
            condition, conjuncts = self._extract_join_condition(
                conjuncts, scope, len(node.schema), len(right.schema))
            node = LJoin(node, right, condition)
        for conjunct in conjuncts:
            node = LFilter(node, self._expr(conjunct, node.schema))
        return node

    def _split_conjuncts(self, where: Optional[ast.AstExpr]
                         ) -> List[ast.AstExpr]:
        if where is None:
            return []
        if isinstance(where, ast.Binary) and where.op == "and":
            return (self._split_conjuncts(where.left)
                    + self._split_conjuncts(where.right))
        return [where]

    def _extract_join_condition(self, conjuncts: List[ast.AstExpr],
                                scope: Schema, width: int,
                                right_width: int
                                ) -> Tuple[Tuple[int, int],
                                           List[ast.AstExpr]]:
        """The first ``a = b`` conjunct equating one of ``scope``'s first
        ``width`` columns (the left input) with one of the next
        ``right_width`` (the right input), as (left, right) input
        positions, and the other conjuncts."""
        end = width + right_width
        for i, c in enumerate(conjuncts):
            if (isinstance(c, ast.Binary) and c.op == "="
                    and isinstance(c.left, ast.Name)
                    and isinstance(c.right, ast.Name)):
                a, b = sorted((scope.index_of(c.left.text),
                               scope.index_of(c.right.text)))
                if a < width <= b < end:
                    return (a, b - width), conjuncts[:i] + conjuncts[i + 1:]
        raise TypeCheckError(
            "no equality join condition found between the FROM relations")

    # -- table-valued functions (the dependent join, Section 4.2) ---------
    def _expand_table_functions(self, node: LNode,
                                items: List[ast.SelectItem]):
        """Rewrite ``f(args).{a, b}`` select items over table-valued UDFs
        into applyFunction operators — the paper's dependent join, which
        "passes an input to a table-valued function and combines the
        results: this operator even supports calls to multiple table-valued
        functions in the same operation".  Expanded columns become plain
        references; everything else is untouched (aggregate and handler
        expansions are resolved elsewhere).
        """
        rewritten: List[ast.SelectItem] = []
        for item in items:
            expr = item.expr
            is_tvf = (isinstance(expr, ast.FieldExpansion)
                      and self.registry.is_function(expr.call.func)
                      and getattr(self.registry.function(expr.call.func),
                                  "table_valued", False))
            if not is_tvf:
                rewritten.append(item)
                continue
            udf = self.registry.function(expr.call.func)
            args = [self._expr(a, node.schema) for a in expr.call.args]
            declared = list(getattr(udf, "output_fields", ()) or ())
            if declared:
                # The function always emits its full declared row; the
                # expansion list selects a subset of it in the projection.
                unknown = [f for f in expr.fields
                           if f not in {n for n, _ in declared}]
                if unknown:
                    raise TypeCheckError(
                        f"{expr.call.func} does not declare output "
                        f"column(s) {unknown}")
                out_fields = [Field(n, t) for n, t in declared]
            else:
                out_fields = [Field(f, SQLType.ANY) for f in expr.fields]
            node = LApply(node, udf, args, out_fields, mode="extend")
            rewritten.extend(ast.SelectItem(ast.Name((f,)), alias=None)
                             for f in expr.fields)
        return node, rewritten

    # -- aggregation -----------------------------------------------------
    def _has_aggregates(self, items: List[ast.SelectItem]) -> bool:
        return any(self._contains_aggregate(item.expr) for item in items)

    def _contains_aggregate(self, expr: ast.AstExpr) -> bool:
        if isinstance(expr, ast.Call):
            return self.registry.is_aggregate(expr.func)
        if isinstance(expr, ast.FieldExpansion):
            return self.registry.is_aggregate(expr.call.func)
        if isinstance(expr, ast.Binary):
            return (self._contains_aggregate(expr.left)
                    or self._contains_aggregate(expr.right))
        if isinstance(expr, ast.Unary):
            return self._contains_aggregate(expr.operand)
        return False

    def _compile_groupby(self, sel: ast.Select, child: LNode,
                         items: List[ast.SelectItem]) -> LNode:
        keys = [child.schema.index_of(name.text) for name in sel.group_by]
        aggs: List[LAggCall] = []

        def lift(expr: ast.AstExpr) -> ast.AstExpr:
            """Replace aggregate calls with references to synthetic
            columns, collecting LAggCalls along the way."""
            if isinstance(expr, ast.Name):
                # A select column names a FROM column, as in SQL; it must
                # then be a group key to survive into the group-by output.
                child.schema.index_of(expr.text)
                return expr
            if isinstance(expr, ast.Call) and self.registry.is_aggregate(expr.func):
                col = f"_agg{next(self._gensym)}"
                aggs.append(self._agg_call(expr, child.schema, col))
                return ast.Name((col,))
            if isinstance(expr, ast.Binary):
                return ast.Binary(expr.op, lift(expr.left), lift(expr.right))
            if isinstance(expr, ast.Unary):
                return ast.Unary(expr.op, lift(expr.operand))
            return expr

        # One slot per SELECT item, in order: the projected fields of an
        # aggregate's expansion, or a lifted scalar, compiled over the
        # group-by's output schema once that exists.
        slots = []
        for i, item in enumerate(items):
            expr = item.expr
            if not isinstance(expr, ast.FieldExpansion):
                slots.append((lift(expr), self._item_name(item, i)))
                continue
            if not self.registry.is_aggregate(expr.call.func):
                raise TypeCheckError(f"{expr.call.func} is not an aggregate")
            col = f"_agg{next(self._gensym)}"
            aggs.append(self._agg_call(expr.call, child.schema, col))
            slots.append([(TupleField(ColumnRef(col), j),
                           Field(fname, SQLType.ANY))
                          for j, fname in enumerate(expr.fields)])

        groupby = LGroupBy(child, keys, aggs)
        projection: List[Tuple[Expr, Field]] = []
        for slot in slots:
            if isinstance(slot, list):
                projection.extend(slot)
                continue
            lifted, name = slot
            compiled = self._expr(lifted, groupby.schema)
            projection.append(
                (compiled, Field(name, compiled.output_type(groupby.schema))))
        return LProject(groupby, projection)

    def _agg_call(self, call: ast.Call, schema: Schema, out_col: str
                  ) -> LAggCall:
        name = call.func.lower()
        if name == "count":
            factory = lambda: Count(count_star=call.star)
        else:
            factory = lambda: self.registry.aggregator(name)
        args = [] if call.star else [self._expr(a, schema) for a in call.args]
        template = factory()
        declared = template.output_fields
        out_type = declared[0][1] if len(declared) == 1 else SQLType.ANY
        return LAggCall(name, factory, args,
                        out_fields=[Field(out_col, out_type)],
                        composable=getattr(template, "composable", False))

    # -- expressions ---------------------------------------------------------
    def _expr(self, expr: ast.AstExpr, schema: Schema) -> Expr:
        if isinstance(expr, ast.Name):
            schema.index_of(expr.text)
            return ColumnRef(expr.text)
        if isinstance(expr, ast.NumberLit):
            return Literal(expr.value)
        if isinstance(expr, ast.StringLit):
            return Literal(expr.value)
        if isinstance(expr, ast.BoolLit):
            return Literal(expr.value)
        if isinstance(expr, ast.Unary):
            if expr.op == "-":
                return BinaryOp("-", Literal(0), self._expr(expr.operand, schema))
            return BoolOp("not", [self._expr(expr.operand, schema)])
        if isinstance(expr, ast.Binary):
            if expr.op in ("and", "or"):
                return BoolOp(expr.op, [self._expr(expr.left, schema),
                                        self._expr(expr.right, schema)])
            return BinaryOp(expr.op, self._expr(expr.left, schema),
                            self._expr(expr.right, schema))
        if isinstance(expr, ast.Call):
            if self.registry.is_aggregate(expr.func):
                raise TypeCheckError(
                    f"aggregate {expr.func} not allowed in this context")
            fn = self.registry.function(expr.func)
            if fn.input_fields and len(expr.args) != len(fn.input_fields):
                raise TypeCheckError(
                    f"{expr.func} expects {len(fn.input_fields)} arguments, "
                    f"got {len(expr.args)}")
            return FuncCall(fn, [self._expr(a, schema) for a in expr.args])
        raise TypeCheckError(f"unsupported expression {expr!r}")

    def _order_keys(self, order_by: Sequence[ast.OrderItem],
                    items: Sequence[ast.SelectItem], scope: Schema
                    ) -> Tuple[Tuple[int, bool], ...]:
        """Resolve ORDER BY names to output positions, as SQL does: a name
        is an output alias (an ``AS`` or an aggregate's ``.{...}``
        expansion field), or else a FROM column (``scope``) that the
        SELECT list projects."""
        outputs: List[Tuple[Optional[str], Optional[int]]] = []
        for item in items:  # (alias, FROM position of a bare column)
            expr = item.expr
            if isinstance(expr, ast.FieldExpansion):
                outputs.extend((f, None) for f in expr.fields)
            else:
                outputs.append((item.alias, scope.index_of(expr.text)
                                if isinstance(expr, ast.Name) else None))
        keys = []
        for order in order_by:
            name = order.name.text
            found = [i for i, (alias, _) in enumerate(outputs)
                     if alias == name]
            if not found:
                pos = scope.index_of(name)
                found = [i for i, (_, src) in enumerate(outputs)
                         if src == pos]
            if not found:
                raise TypeCheckError(
                    f"ORDER BY {name!r} is not a column of the SELECT list")
            keys.append((found[0], order.descending))
        return tuple(keys)

    def _item_name(self, item: ast.SelectItem, index: int) -> str:
        if item.alias:
            return item.alias
        if isinstance(item.expr, ast.Name):
            return item.expr.parts[-1]
        return f"_col{index}"

    def _out_field(self, item: ast.SelectItem, schema: Schema,
                   index: int) -> Field:
        expr = self._expr(item.expr, schema)
        return Field(self._item_name(item, index), expr.output_type(schema))


def compile_query(query: ast.Query, catalog: Catalog,
                  registry: UDFRegistry) -> LNode:
    """Compile a parsed RQL query into a logical plan (without its
    top-level ORDER BY / LIMIT, see :attr:`Compiler.presentation`)."""
    return Compiler(catalog, registry).compile(query)

