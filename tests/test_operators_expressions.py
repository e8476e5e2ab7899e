"""Unit tests for the compiled expression layer."""

import inspect
import linecache
import traceback

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.effects import extract_effects
from repro.cluster import Cluster
from repro.common import Schema
from repro.common.errors import PlanError, SchemaError
from repro.common.schema import SQLType
from repro.operators import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    Expr,
    FuncCall,
    Literal,
    TupleField,
    make_row_fn,
)
from repro.operators.expressions import _PY_OPS, compile_exprs
from repro.optimizer import lower
from repro.rql import RQLSession, compile_query, parse
from repro.udf import udf

SCHEMA = Schema.of("a:Integer", "b:Double", "s:Varchar")


def ev(expr, row, schema=SCHEMA):
    return expr.bind(schema).eval(row)


class TestColumnAndLiteral:
    def test_column_lookup(self):
        assert ev(ColumnRef("b"), (1, 2.5, "x")) == 2.5

    def test_unknown_column_raises_on_bind(self):
        with pytest.raises(SchemaError):
            ColumnRef("zzz").bind(SCHEMA)

    def test_unbound_eval_raises(self):
        with pytest.raises(PlanError):
            ColumnRef("a").eval((1,))

    def test_literal(self):
        assert ev(Literal(42), (0, 0.0, "")) == 42

    def test_literal_types(self):
        assert Literal(1).output_type() is SQLType.INTEGER
        assert Literal(1.5).output_type() is SQLType.DOUBLE
        assert Literal("x").output_type() is SQLType.VARCHAR
        assert Literal(True).output_type() is SQLType.BOOLEAN


class TestBinaryOps:
    def test_arithmetic(self):
        e = BinaryOp("+", ColumnRef("a"), Literal(2))
        assert ev(e, (3, 0.0, "")) == 5

    def test_nested(self):
        e = BinaryOp("*", BinaryOp("-", ColumnRef("a"), Literal(1)), Literal(10))
        assert ev(e, (4, 0.0, "")) == 30

    def test_division_by_zero_is_null(self):
        e = BinaryOp("/", Literal(1), Literal(0))
        assert ev(e, (0, 0.0, "")) is None

    def test_null_propagation(self):
        e = BinaryOp("+", ColumnRef("a"), Literal(2))
        assert ev(e, (None, 0.0, "")) is None

    def test_comparisons(self):
        assert ev(BinaryOp(">", ColumnRef("a"), Literal(1)), (2, 0.0, "")) is True
        assert ev(BinaryOp("=", ColumnRef("s"), Literal("x")), (0, 0.0, "x")) is True
        assert ev(BinaryOp("<>", Literal(1), Literal(1)), ()) is False

    def test_unknown_operator_rejected(self):
        with pytest.raises(PlanError):
            BinaryOp("**", Literal(1), Literal(2))

    def test_comparison_type_is_boolean(self):
        assert BinaryOp("<", Literal(1), Literal(2)).output_type() is SQLType.BOOLEAN

    def test_arith_type_widening(self):
        e = BinaryOp("+", ColumnRef("a"), ColumnRef("b"))
        assert e.bind(SCHEMA).output_type(SCHEMA) is SQLType.DOUBLE


class TestBoolOps:
    def test_and_or_not(self):
        t, f = Literal(True), Literal(False)
        assert ev(BoolOp("and", [t, t]), ()) is True
        assert ev(BoolOp("and", [t, f]), ()) is False
        assert ev(BoolOp("or", [f, t]), ()) is True
        assert ev(BoolOp("not", [f]), ()) is True

    def test_sql_three_valued_logic(self):
        t, f, n = Literal(True), Literal(False), Literal(None)
        assert ev(BoolOp("and", [f, n]), ()) is False   # FALSE AND NULL
        assert ev(BoolOp("and", [t, n]), ()) is None    # TRUE AND NULL
        assert ev(BoolOp("or", [t, n]), ()) is True     # TRUE OR NULL
        assert ev(BoolOp("or", [f, n]), ()) is None     # FALSE OR NULL
        assert ev(BoolOp("not", [n]), ()) is None

    def test_not_arity_enforced(self):
        with pytest.raises(PlanError):
            BoolOp("not", [Literal(True), Literal(False)])


class TestFuncCallAndTupleField:
    def test_func_call(self):
        @udf(out_types=["Integer"])
        def triple(x):
            return 3 * x

        e = FuncCall(triple, [ColumnRef("a")])
        assert ev(e, (2, 0.0, "")) == 6
        assert e.output_type() is SQLType.INTEGER

    def test_tuple_field_expansion(self):
        @udf(table_valued=False)
        def pair(x):
            return (x, x + 1)

        base = FuncCall(pair, [ColumnRef("a")])
        assert ev(TupleField(base, 0), (5, 0.0, "")) == 5
        assert ev(TupleField(base, 1), (5, 0.0, "")) == 6

    def test_tuple_field_of_null(self):
        assert ev(TupleField(Literal(None), 0), ()) is None

    def test_columns_collected(self):
        e = BinaryOp("+", ColumnRef("a"), BinaryOp("*", ColumnRef("b"), Literal(2)))
        assert sorted(e.columns()) == ["a", "b"]


class TestCompiledHelpers:
    def test_make_row_fn(self):
        fn = make_row_fn([ColumnRef("s"), BinaryOp("+", ColumnRef("a"), Literal(1))],
                         SCHEMA)
        assert fn((1, 0.0, "q")) == ("q", 2)


# ---------------------------------------------------------------------------
# compile_exprs: the generated function is eval, value for value and call
# for call.
# ---------------------------------------------------------------------------
WIDTH = 4
ZEROS = (0, 0.0, -0.0, False)
VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                   st.sampled_from([0.0, -0.0, 0.5, -2.5, 3.0]),
                   st.sampled_from(["", "a", "bc"]), st.sampled_from(ZEROS))
#: Every zero divisor under both NULL-able division operators.
DIVISIONS = [BinaryOp(op, ColumnRef("c0", 0), Literal(zero))
             for op in ("/", "%") for zero in ZEROS]
CALLS = []


class RecordingUDF:
    """A scalar UDF that logs every call, so call order can be compared."""

    def __init__(self, name, fn):
        self.name = name
        self.fn = fn

    def __call__(self, *args):
        CALLS.append((self.name, args))
        return self.fn(*args)


def _strict(*args):
    if any(a is None for a in args):
        raise ValueError("NULL argument")
    return len(args)


UDFS = [RecordingUDF("pack", lambda *args: args),
        RecordingUDF("first", lambda *args: args[0]),
        RecordingUDF("strict", _strict)]
PACK, FIRST, STRICT = UDFS


def _first(i):
    return FuncCall(FIRST, [ColumnRef(f"c{i}", i)])


#: Sibling operands that each call a UDF: only their call order tells
#: an evaluation order apart.
CALL_ORDERS = [
    FuncCall(PACK, [_first(0), _first(1), FuncCall(STRICT, [])]),
    BinaryOp("+", _first(1), _first(2)),
    BoolOp("or", [_first(2), _first(3), _first(0)]),
    TupleField(FuncCall(PACK, [_first(3), _first(0)]), 1),
]


def trees(depth):
    """Bound trees over all six node kinds, at most ``depth`` levels."""
    leaf = st.one_of(
        st.integers(0, WIDTH - 1).map(lambda i: ColumnRef(f"c{i}", i)),
        VALUES.map(Literal))
    if depth == 0:
        return leaf
    sub = trees(depth - 1)
    # 0-3 operands, evenly: st.lists leans to empty lists, and call order
    # is only observable with several operands.
    operands = st.integers(0, 3).flatmap(
        lambda n: st.tuples(*[sub] * n).map(list))
    return st.one_of(
        leaf,
        st.builds(BinaryOp, st.sampled_from(sorted(_PY_OPS)), sub, sub),
        sub.map(lambda e: BoolOp("not", [e])),
        st.builds(BoolOp, st.sampled_from(["and", "or"]), operands),
        st.builds(FuncCall, st.sampled_from(UDFS), operands),
        st.builds(TupleField, sub, st.integers(0, 2)))


def outcome(fn, row):
    """(value and its type, or the exception type) plus the UDF calls."""
    CALLS.clear()
    try:
        value = fn(row)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return ("raised", type(exc)), list(CALLS)
    return ("returned", type(value), repr(value)), list(CALLS)


class TestCompiledMatchesEval:
    @settings(max_examples=200, deadline=None)
    @given(exprs=st.lists(trees(4), min_size=1, max_size=3),
           row=st.tuples(*[VALUES] * WIDTH))
    @example(exprs=DIVISIONS, row=(7, None, None, None))
    @example(exprs=DIVISIONS, row=(-2.5, None, None, None))
    @example(exprs=CALL_ORDERS, row=(1, 2, 3, 4))
    @example(exprs=CALL_ORDERS[:1], row=(1, None, "a", 0.5))
    def test_tuple_result(self, exprs, row):
        compiled = compile_exprs(exprs)
        assert outcome(compiled, row) == outcome(
            lambda r: tuple(e.eval(r) for e in exprs), row)

    @settings(max_examples=200, deadline=None)
    @given(expr=trees(4), row=st.tuples(*[VALUES] * WIDTH))
    def test_value_and_truth_results(self, expr, row):
        assert outcome(compile_exprs([expr], result="value"), row) == \
            outcome(expr.eval, row)
        assert outcome(compile_exprs([expr], result="truth"), row) == \
            outcome(lambda r: bool(expr.eval(r)), row)

    def test_other_expr_subclasses_run_their_own_eval(self):
        class Doubled(Expr):
            def __init__(self, inner):
                self.inner = inner

            def eval(self, row):
                return 2 * self.inner.eval(row)

        fn = compile_exprs([Doubled(ColumnRef("a", 0)), ColumnRef("a")])
        with pytest.raises(PlanError):  # the unbound column, via its eval
            fn((4,))
        assert compile_exprs([Doubled(ColumnRef("a", 0))])((4,)) == (8,)

    def test_literals_are_bound_not_formatted(self):
        fn = compile_exprs([BinaryOp("=", ColumnRef("s", 0),
                                     Literal("'); import os; ('"))])
        assert fn(("x",)) == (False,)
        assert "import" not in inspect.getsource(fn)

    def test_reads_are_exact_for_the_effect_analysis(self):
        bound = BinaryOp(">", ColumnRef("b"), Literal(1)).bind(SCHEMA)
        summary = extract_effects(compile_exprs([bound], result="truth"))
        assert summary.proves_reads() and summary.reads == {1}

    def test_traceback_shows_the_generated_line(self):
        bound = BinaryOp("+", ColumnRef("a"), ColumnRef("s")).bind(SCHEMA)
        fn = compile_exprs([bound], result="value")
        with pytest.raises(TypeError) as info:
            fn((1, 0.0, "x"))
        last = traceback.extract_tb(info.value.__traceback__)[-1]
        assert last.filename.startswith("<rql-expr-")
        assert "v0 + v1" in last.line

    def test_relowering_a_query_adds_no_linecache_entries(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["a:Integer", "b:Double"],
                             [(1, 2.0)], None)
        session = RQLSession(cluster)
        node = session.optimizer.optimize(compile_query(
            parse("SELECT a, sum(b * 3.5), count(*) FROM t "
                  "WHERE a % 7 <> 2 AND b <= 9.25 GROUP BY a"),
            cluster.catalog, session.registry))
        growth = []
        for _ in range(100):
            before = len(linecache.cache)
            lower(node)
            growth.append(len(linecache.cache) - before)
        assert growth[0] > 0
        assert not any(growth[1:])
