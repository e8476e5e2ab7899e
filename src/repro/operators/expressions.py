"""Row expressions: the compiled form of RQL scalar expressions.

The RQL front end and the optimizer both manipulate these trees; binding an
expression against a :class:`~repro.common.schema.Schema` resolves column
references to positional indices, after which :meth:`Expr.eval` is a pure
function of the row.  User functions appear as :class:`FuncCall` nodes whose
cost/selectivity metadata the optimizer reads for predicate ordering.

:meth:`Expr.eval` is the reference semantics.  Plans never walk the tree
per row: :func:`compile_exprs` turns bound trees into one generated Python
function that does what ``eval`` does, in the same order.
"""

from __future__ import annotations

import functools
import hashlib
import linecache
import operator
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import PlanError, SchemaError
from repro.common.schema import Schema, SQLType


class Expr:
    """Base class; subclasses are immutable once bound."""

    def bind(self, schema: Schema) -> "Expr":
        """Return a copy with column references resolved against ``schema``."""
        raise NotImplementedError

    def eval(self, row) -> Any:
        raise NotImplementedError

    def output_type(self, schema: Optional[Schema] = None) -> SQLType:
        return SQLType.ANY

    def columns(self) -> List[str]:
        """Unbound column names referenced (for planning)."""
        return []


class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    def __init__(self, name: str, index: Optional[int] = None):
        self.name = name
        self.index = index

    def bind(self, schema: Schema) -> "ColumnRef":
        return ColumnRef(self.name, schema.index_of(self.name))

    def eval(self, row):
        if self.index is None:
            raise PlanError(f"unbound column reference {self.name!r}")
        return row[self.index]

    def output_type(self, schema=None):
        if schema is not None and schema.has(self.name):
            return schema.field(self.name).type
        return SQLType.ANY

    def columns(self):
        return [self.name]

    def __repr__(self):
        return f"col({self.name})"


class Literal(Expr):
    def __init__(self, value: Any):
        self.value = value

    def bind(self, schema):
        return self

    def eval(self, row):
        return self.value

    def output_type(self, schema=None):
        if isinstance(self.value, bool):
            return SQLType.BOOLEAN
        if isinstance(self.value, int):
            return SQLType.INTEGER
        if isinstance(self.value, float):
            return SQLType.DOUBLE
        if isinstance(self.value, str):
            return SQLType.VARCHAR
        return SQLType.ANY

    def __repr__(self):
        return f"lit({self.value!r})"


def _null_safe(fn):
    """SQL semantics: any NULL operand yields NULL."""
    def wrapped(a, b):
        if a is None or b is None:
            return None
        return fn(a, b)
    return wrapped


_ARITH = {
    "+": _null_safe(operator.add),
    "-": _null_safe(operator.sub),
    "*": _null_safe(operator.mul),
    "/": _null_safe(lambda a, b: a / b if b != 0 else None),
    "%": _null_safe(lambda a, b: a % b if b != 0 else None),
}

_COMPARE = {
    "=": _null_safe(operator.eq),
    "<>": _null_safe(operator.ne),
    "!=": _null_safe(operator.ne),
    "<": _null_safe(operator.lt),
    "<=": _null_safe(operator.le),
    ">": _null_safe(operator.gt),
    ">=": _null_safe(operator.ge),
}


class BinaryOp(Expr):
    """Arithmetic or comparison over two sub-expressions."""

    def __init__(self, op: str, left: Expr, right: Expr):
        table = _ARITH if op in _ARITH else _COMPARE
        if op not in table:
            raise PlanError(f"unknown operator {op!r}")
        self.op = op
        self.left = left
        self.right = right
        self._fn = table[op]

    def bind(self, schema):
        return BinaryOp(self.op, self.left.bind(schema), self.right.bind(schema))

    def eval(self, row):
        return self._fn(self.left.eval(row), self.right.eval(row))

    def output_type(self, schema=None):
        if self.op in _COMPARE:
            return SQLType.BOOLEAN
        lt = self.left.output_type(schema)
        rt = self.right.output_type(schema)
        if lt is SQLType.DOUBLE or rt is SQLType.DOUBLE or self.op == "/":
            return SQLType.DOUBLE
        if lt is SQLType.INTEGER and rt is SQLType.INTEGER:
            return SQLType.INTEGER
        return SQLType.ANY

    def columns(self):
        return self.left.columns() + self.right.columns()

    def __repr__(self):
        return f"({self.left!r} {self.op} {self.right!r})"


class BoolOp(Expr):
    """AND / OR / NOT with SQL three-valued logic collapsed to
    None-propagation (sufficient for the supported queries)."""

    def __init__(self, op: str, operands: Sequence[Expr]):
        if op not in ("and", "or", "not"):
            raise PlanError(f"unknown boolean operator {op!r}")
        if op == "not" and len(operands) != 1:
            raise PlanError("NOT takes exactly one operand")
        self.op = op
        self.operands = list(operands)

    def bind(self, schema):
        return BoolOp(self.op, [e.bind(schema) for e in self.operands])

    def eval(self, row):
        if self.op == "not":
            v = self.operands[0].eval(row)
            return None if v is None else not v
        values = [e.eval(row) for e in self.operands]
        if self.op == "and":
            if any(v is False for v in values):
                return False
            return None if any(v is None for v in values) else True
        if any(v is True for v in values):
            return True
        return None if any(v is None for v in values) else False

    def output_type(self, schema=None):
        return SQLType.BOOLEAN

    def columns(self):
        return [c for e in self.operands for c in e.columns()]

    def __repr__(self):
        return f"{self.op}({', '.join(map(repr, self.operands))})"


class FuncCall(Expr):
    """A scalar UDF call; ``udf`` is a resolved UDF object."""

    def __init__(self, udf, args: Sequence[Expr]):
        self.udf = udf
        self.args = list(args)

    def bind(self, schema):
        return FuncCall(self.udf, [a.bind(schema) for a in self.args])

    def eval(self, row):
        return self.udf(*(a.eval(row) for a in self.args))

    def output_type(self, schema=None):
        if self.udf.output_fields:
            return self.udf.output_fields[0][1]
        return SQLType.ANY

    def columns(self):
        return [c for a in self.args for c in a.columns()]

    def __repr__(self):
        return f"{self.udf.name}({', '.join(map(repr, self.args))})"


class TupleField(Expr):
    """Positional access into a tuple-valued expression.

    Supports the RQL ``expr.{a, b}`` expansion: e.g. ``ArgMin(...)`` yields a
    pair, and ``TupleField(agg_col, 0)`` / ``TupleField(agg_col, 1)`` project
    its components into separate output columns.
    """

    def __init__(self, base: Expr, index: int):
        self.base = base
        self.index = index

    def bind(self, schema):
        return TupleField(self.base.bind(schema), self.index)

    def eval(self, row):
        value = self.base.eval(row)
        if value is None:
            return None
        return value[self.index]

    def columns(self):
        return self.base.columns()

    def __repr__(self):
        return f"{self.base!r}.[{self.index}]"


def make_row_fn(exprs: Sequence[Expr], schema: Schema) -> Callable[[tuple], tuple]:
    """Compile a projection: row -> tuple of evaluated expressions."""
    return compile_exprs([e.bind(schema) for e in exprs])


#: Python spelling of each :class:`BinaryOp` operator.
_PY_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "%": "%", "=": "==",
           "<>": "!=", "!=": "!=", "<": "<", "<=": "<=", ">": ">",
           ">=": ">="}


class _Codegen:
    """Straight-line code for bound trees: one statement per node, in the
    order :meth:`Expr.eval` evaluates them.

    Column and tuple indices are written into the source as integers, so
    :mod:`repro.analysis.effects` reads ``row[i]`` exactly.  Literals and
    UDF objects are bound by name in the function's globals.  Any other
    node (an unknown ``Expr`` subclass, or an unbound column reference) is
    bound the same way and runs its own ``eval``; for the unbound column
    that raises, as the tree walk does.
    """

    def __init__(self):
        self.lines: List[str] = []
        self.names: Dict[str, Any] = {}

    def _bind(self, prefix: str, obj) -> str:
        name = f"{prefix}{len(self.names)}"
        self.names[name] = obj
        return name

    def _assign(self, code: str) -> str:
        name = f"v{len(self.lines)}"
        self.lines.append(f"    {name} = {code}")
        return name

    def value(self, expr: Expr) -> str:
        """Emit ``expr``'s statements; return the name holding its value."""
        kind = type(expr)
        if kind is Literal:
            return self._bind("_k", expr.value)
        if kind is ColumnRef and expr.index is not None:
            return self._assign(f"row[{expr.index:d}]")
        if kind is BinaryOp:
            a, b = self.value(expr.left), self.value(expr.right)
            result = f"{a} {_PY_OPS[expr.op]} {b}"
            if expr.op in ("/", "%"):
                result = f"{result} if {b} != 0 else None"
            return self._assign(
                f"None if {a} is None or {b} is None else {result}")
        if kind is BoolOp:
            values = [self.value(e) for e in expr.operands]
            if expr.op == "not":
                v = values[0]
                return self._assign(f"None if {v} is None else not {v}")
            wins, loses = ("False", "True") if expr.op == "and" \
                else ("True", "False")
            decided = " or ".join(f"{v} is {wins}" for v in values)
            unknown = " or ".join(f"{v} is None" for v in values)
            return self._assign(f"{wins} if {decided or 'False'} else None "
                                f"if {unknown or 'False'} else {loses}")
        if kind is FuncCall:
            args = [self.value(a) for a in expr.args]
            return self._assign(
                f"{self._bind('_f', expr.udf)}({', '.join(args)})")
        if kind is TupleField:
            base = self.value(expr.base)
            return self._assign(
                f"None if {base} is None else {base}[{expr.index:d}]")
        return self._assign(f"{self._bind('_e', expr)}.eval(row)")


def compile_exprs(exprs: Sequence[Expr],
                  result: str = "tuple") -> Callable[[tuple], Any]:
    """One generated function of the row computing bound ``exprs``.

    ``result`` shapes the return: ``"tuple"`` (a projection or argument
    list), ``"value"`` (the single expression's value) or ``"truth"``
    (``bool`` of it, a filter predicate).  The source is registered in
    :mod:`linecache` under a name hashed from its text, so tracebacks show
    the generated line and :mod:`repro.analysis.effects` reads it like any
    other function; the same plan shape compiles to the same entry.
    """
    gen = _Codegen()
    values = [gen.value(e) for e in exprs]
    if result == "tuple":
        ret = f"({', '.join(values)}{',' if len(values) == 1 else ''})"
    elif result in ("value", "truth") and len(values) == 1:
        ret = values[0] if result == "value" else f"_truth({values[0]})"
    else:
        raise PlanError(f"cannot compile {len(values)} expression(s) "
                        f"as {result!r}")
    source = "\n".join(["def rql_expr(row):", *gen.lines,
                        f"    return {ret}", ""])
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    filename = f"<rql-expr-{digest}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    # A predicate calls ``bool`` as ``_truth``, a name outside the effect
    # analysis's pure whitelist.  Its reads are exact, but a provably pure
    # RQL predicate would license filter pushdowns that no RQL plan has
    # taken so far; that plan change is left to its own review.
    namespace = dict(gen.names, __name__=__name__, _truth=bool)
    exec(_code(source, filename), namespace)
    return namespace["rql_expr"]


@functools.lru_cache(maxsize=None)
def _code(source: str, filename: str):
    """One code object per distinct source.  Profilers count calls per code
    object but report them under (file, line, name), and ``pstats`` keeps
    only one of several code objects sharing that label."""
    return compile(source, filename, "exec")
