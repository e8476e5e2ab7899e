"""Seeded corpus of deliberately-broken plans for the static analyzer.

Each case is a named builder returning a plan plus the diagnostic codes
the analyzer must report for it; ``GOOD_CASES`` are well-formed plans
that must produce zero error-level diagnostics.  The corpus is the
analyzer's regression anchor: every published code has at least one
case here that triggers it (and CI runs the analyzer over all of them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, FrozenSet, List, Union

from repro.common.deltas import DeltaOp
from repro.common.schema import Field as F
from repro.common.schema import Schema, SQLType
from repro.operators.expressions import (
    BinaryOp,
    BoolOp,
    ColumnRef,
    FuncCall,
    Literal,
)
from repro.optimizer.logical import (
    LAggCall,
    LFilter,
    LFixpoint,
    LFeedback,
    LGroupBy,
    LJoin,
    LNode,
    LProject,
    LRehash,
    LScan,
)
from repro.runtime.plan import (
    PApply,
    PCollect,
    PFeedback,
    PFilter,
    PFixpoint,
    PGroupBy,
    PJoin,
    PNode,
    PProject,
    PRehash,
    PScan,
    PUnion,
)
from repro.udf import AggregateSpec
from repro.udf.builtins import CollectList, Count, Sum


@dataclass(frozen=True)
class Case:
    name: str
    build: Callable[[], Union[LNode, PNode]]
    expected: FrozenSet[str] = field(default_factory=frozenset)

    def plan(self):
        return self.build()


def _schema(*cols) -> Schema:
    return Schema([F(n, t) for n, t in cols])


def _edges(partition_key=None) -> LScan:
    return LScan("edges",
                 _schema(("srcId", SQLType.INTEGER),
                         ("destId", SQLType.INTEGER),
                         ("weight", SQLType.DOUBLE)),
                 partition_key=partition_key)


def _seed(partition_key=0) -> LScan:
    return LScan("seed",
                 _schema(("node", SQLType.INTEGER),
                         ("val", SQLType.DOUBLE)),
                 partition_key=partition_key)


def _feedback(cte="R") -> LFeedback:
    return LFeedback(cte,
                     _schema(("node", SQLType.INTEGER),
                             ("val", SQLType.DOUBLE)),
                     fixpoint_key=0)


def _converged(child: LNode) -> LFilter:
    """A convergence filter (contraction) over (node, val)."""
    return LFilter(child, BinaryOp(">", ColumnRef("val"), Literal(0.0)))


class _Handler:
    name = "H"


def _handler_factory():
    return _Handler()


class _NoMultiplySum(Sum):
    name = "sum_nm"
    multiply = None


class _TypedSum(Sum):
    """SUM with an explicit single-argument declaration (arity checks
    need declared in_types; the built-ins leave them open)."""

    name = "tsum"
    in_types = ("x:Double",)


class _MultiplyUDF:
    """Stands in for the optimizer's synthesized compensation UDF."""

    name = "multiply_val"
    input_fields = ()
    output_fields = ()
    table_valued = False


# ---------------------------------------------------------------------------
# Logical bad plans
# ---------------------------------------------------------------------------

def nested_fixpoint() -> LNode:
    inner = LFixpoint(_seed(), _converged(_feedback("Inner")),
                      key=0, cte_name="Inner")
    return LFixpoint(_seed(), _converged(inner), key=0, cte_name="R")


def negation_in_recursion() -> LNode:
    guard = LFilter(
        _feedback(),
        BoolOp("not", [BinaryOp(">", ColumnRef("val"), Literal(0.5))]))
    return LFixpoint(_seed(), guard, key=0, cte_name="R")


def double_feedback() -> LNode:
    recursive = LJoin(_feedback(), _feedback(), condition=(0, 0))
    return LFixpoint(_seed(), _converged(recursive),
                     key=0, cte_name="R")


def feedback_in_base() -> LNode:
    return LFixpoint(_converged(_feedback()), _converged(_feedback()),
                     key=0, cte_name="R")


def union_all_no_contraction() -> LNode:
    recursive = LProject(
        _feedback(),
        [(ColumnRef("node"), F("node", SQLType.INTEGER)),
         (ColumnRef("val"), F("val", SQLType.DOUBLE))])
    return LFixpoint(_seed(), recursive, key=0, cte_name="R",
                     union_all=True)


def non_composable_preagg() -> LNode:
    partial = LGroupBy(
        _edges(0), [0],
        [LAggCall("collect", CollectList, [ColumnRef("weight")],
                  [F("ws", SQLType.LIST)])],
        pre_aggregated=True)
    return LGroupBy(LRehash(partial, 0), [0],
                    [LAggCall("collect", CollectList, [ColumnRef("ws")],
                              [F("ws2", SQLType.LIST)])])


def escaping_partials() -> LNode:
    return LGroupBy(
        _edges(0), [0],
        [LAggCall("sum", Sum, [ColumnRef("weight")],
                  [F("_p0", SQLType.DOUBLE)], composable=True)],
        pre_aggregated=True)


def _side_preagg(scan: LScan, key: int, agg_factory, agg_name: str,
                 cnt_name: str, partial: str = "_m0") -> LGroupBy:
    return LGroupBy(
        scan, [key],
        [LAggCall(agg_name, agg_factory, [ColumnRef("weight")],
                  [F(partial, SQLType.DOUBLE)], composable=True),
         LAggCall("count", Count, [],
                  [F(cnt_name, SQLType.INTEGER)], composable=True)],
        pre_aggregated=True)


def multiplicative_no_multiply() -> LNode:
    left = _side_preagg(_edges(0), 0,
                        _NoMultiplySum, "sum_nm", "_cnt_1")
    # The right side's partial has its own name: an unqualified "_m0"
    # on both sides would be an ambiguous reference.
    right = _side_preagg(_edges(0), 0, Sum, "sum", "_cnt_2", partial="_m1")
    join = LJoin(left, right, condition=(0, 0))
    return LProject(
        join,
        [(FuncCall(_MultiplyUDF(), [ColumnRef("_m1")]),
          F("total", SQLType.DOUBLE))])


def multiplicative_no_compensation() -> LNode:
    left = _side_preagg(_edges(0), 0, Sum, "sum", "_cnt_1")
    right = _side_preagg(_edges(0), 0, Sum, "sum", "_cnt_2")
    return LJoin(left, right, condition=(0, 0))


def missing_rehash() -> LNode:
    return LGroupBy(
        _edges(partition_key=None), [0],
        [LAggCall("sum", Sum, [ColumnRef("weight")],
                  [F("total", SQLType.DOUBLE)], composable=True)])


def redundant_rehash() -> LNode:
    rehash = LRehash(_edges(partition_key=0), 0)
    return LGroupBy(
        rehash, [0],
        [LAggCall("sum", Sum, [ColumnRef("weight")],
                  [F("total", SQLType.DOUBLE)], composable=True)])


def starved_handler() -> LNode:
    handler_join = LJoin(
        _edges(0), _seed(0), condition=None,
        handler_factory=_handler_factory,
        handler_schema=_schema(("node", SQLType.INTEGER),
                               ("val", SQLType.DOUBLE)))
    recursive = LJoin(_converged(handler_join), _feedback(),
                      condition=(0, 0))
    return LFixpoint(_seed(), recursive, key=0, cte_name="R")


def uninterpreted_payload() -> LNode:
    handler_join = LJoin(
        _feedback(), _edges(0), condition=None,
        handler_factory=_handler_factory,
        handler_schema=_schema(("node", SQLType.INTEGER),
                               ("val", SQLType.DOUBLE)))
    return LFixpoint(_seed(), handler_join, key=0, cte_name="R")


def unknown_column() -> LNode:
    return LFilter(_edges(), BinaryOp(">", ColumnRef("nope"), Literal(0)))


def join_type_mismatch() -> LNode:
    names = LScan("names", _schema(("id", SQLType.INTEGER),
                                   ("label", SQLType.VARCHAR)),
                  partition_key=None)
    return LJoin(LRehash(_edges(), 0), LRehash(names, 1),
                 condition=(0, 1))


def aggregate_arity_mismatch() -> LNode:
    return LGroupBy(
        LRehash(_edges(), 0), [0],
        [LAggCall("tsum", _TypedSum,
                  [ColumnRef("weight"), ColumnRef("destId")],
                  [F("total", SQLType.DOUBLE)], composable=True)])


def fixpoint_arity_mismatch() -> LNode:
    wide = LProject(
        _converged(_feedback()),
        [(ColumnRef("node"), F("node", SQLType.INTEGER)),
         (ColumnRef("val"), F("val", SQLType.DOUBLE)),
         (Literal(0), F("extra", SQLType.INTEGER))])
    return LFixpoint(_seed(), wide, key=0, cte_name="R")


# ---------------------------------------------------------------------------
# Physical bad plans (bare PNode trees: PhysicalPlan's constructor would
# reject some of these shapes outright — the analyzer must explain them)
# ---------------------------------------------------------------------------

def _key0(row):
    return (row[0],)


def phys_two_fixpoints() -> PNode:
    def fp():
        return PFixpoint(key_fn=_key0,
                         children=(PScan("seed"), PFeedback()))
    return PCollect(children=(PUnion(children=(fp(), fp())),))


def phys_feedback_without_fixpoint() -> PNode:
    return PCollect(children=(PFeedback(),))


def phys_double_feedback() -> PNode:
    recursive = PJoin(left_key=_key0, right_key=_key0,
                      children=(PFeedback(), PFeedback()))
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


def phys_broadcast_broadcast() -> PNode:
    inner = PRehash(broadcast=True, children=(PScan("edges"),))
    return PCollect(children=(PRehash(broadcast=True, children=(inner,)),))


def phys_starved_handler() -> PNode:
    handler_join = PJoin(left_key=_key0, right_key=_key0,
                         handler_factory=_handler_factory,
                         children=(PScan("edges"), PScan("seed")))
    recursive = PUnion(children=(handler_join, PFeedback()))
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


# ---------------------------------------------------------------------------
# Delta-polarity & monotonicity plans (REX30x): each case anchors one
# verdict of the abstract interpretation.  These are mostly *well-formed*
# plans — REX300/301/304 are INFO proofs, not defects — so they live in
# their own list rather than BAD_CASES.
# ---------------------------------------------------------------------------

class _DeltaAwareUDF:
    """A delta-aware applyFunction UDF with a declared emission polarity."""

    table_valued = False

    def __call__(self, delta):
        return ()


class _RetractingRelax(_DeltaAwareUDF):
    """An SSSP-style relaxation that may withdraw offers (emits '-')."""

    name = "relax_retract"
    emits_polarity = frozenset({DeltaOp.INSERT, DeltaOp.DELETE})


class _ReplaceOnlyUpdate(_DeltaAwareUDF):
    """A k-means-style centroid update emitting only replacements."""

    name = "centroid_replace"
    emits_polarity = frozenset({DeltaOp.REPLACE})


class _UpdateOnlyUDF(_DeltaAwareUDF):
    """Emits only δ value-update annotations."""

    name = "delta_adjust"
    emits_polarity = frozenset({DeltaOp.UPDATE})


class _InsertOnlyHandler:
    """A join delta handler declared to emit pure insertions."""

    name = "offers"
    emits_polarity = frozenset({DeltaOp.INSERT})


def _ident(row):
    return row


def _sum_specs():
    return [AggregateSpec(Sum(), arg=lambda r: r[1], output="total")]


def polarity_monotone_fixpoint() -> PNode:
    """PageRank-style loop: nothing in the body can retract -> REX301."""
    recursive = PProject.over(PFeedback(), _ident)
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


def polarity_dead_delete_fixpoint() -> PNode:
    """Same monotone loop seen from the fixpoint's delete handling: the
    '-' branch of keyed dedup is provably unreachable -> REX304."""
    recursive = PProject.over(PFeedback(), _ident)
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


def polarity_retracting_body() -> PNode:
    """A relaxation that withdraws offers: the loop can shrink -> REX302."""
    recursive = PApply(udf_factory=_RetractingRelax, arg_fn=_ident,
                       delta_aware=True, children=(PFeedback(),))
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


def polarity_replacement_only_groupby() -> PNode:
    """Replacement-only stream into a group-by: a '->' may arrive before
    any base image exists -> REX305."""
    updates = PApply(udf_factory=_ReplaceOnlyUpdate, arg_fn=_ident,
                     delta_aware=True, children=(PScan("centroids"),))
    return PCollect(children=(
        PGroupBy(key_fn=_key0, specs_factory=_sum_specs,
                 children=(PRehash.by(updates, _key0),)),))


def polarity_update_into_keyed_fixpoint() -> PNode:
    """δ annotations reaching a keyed fixpoint with no while handler:
    the operator rejects them at runtime -> REX305."""
    recursive = PApply(udf_factory=_UpdateOnlyUDF, arg_fn=_ident,
                       delta_aware=True, children=(PFeedback(),))
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


def polarity_insert_only_groupby() -> PNode:
    """Scan-fed group-by is proven insert-only -> REX300 (and its
    retraction branches are dead -> REX304)."""
    return PCollect(children=(
        PGroupBy(key_fn=_key0, specs_factory=_sum_specs,
                 children=(PRehash.by(PScan("edges"), _key0),)),))


def polarity_declared_handler_proof() -> PNode:
    """A declared insert-only join handler propagates the proof to the
    downstream group-by -> REX300."""
    join = PJoin(left_key=_key0, right_key=_key0,
                 handler_factory=_InsertOnlyHandler, handler_side=1,
                 children=(PScan("edges"), PScan("seed")))
    return PCollect(children=(
        PGroupBy(key_fn=_key0, specs_factory=_sum_specs,
                 children=(PRehash.by(join, _key0),)),))


def polarity_undeclared_join_handler() -> PNode:
    """A join delta handler with no emits_polarity widens to any -> REX306."""
    join = PJoin(left_key=_key0, right_key=_key0,
                 handler_factory=_handler_factory, handler_side=1,
                 children=(PScan("edges"), PScan("seed")))
    return PCollect(children=(join,))


def polarity_undeclared_while_handler() -> PNode:
    """A while delta handler with no emits_polarity widens to any -> REX306."""
    return PCollect(children=(
        PFixpoint(key_fn=_key0, while_handler_factory=_handler_factory,
                  children=(PScan("seed"), PUnion(children=(PFeedback(),)))),))


POLARITY_CASES: List[Case] = [
    Case("polarity_monotone_fixpoint", polarity_monotone_fixpoint,
         frozenset({"REX301"})),
    Case("polarity_dead_delete_fixpoint", polarity_dead_delete_fixpoint,
         frozenset({"REX304"})),
    Case("polarity_retracting_body", polarity_retracting_body,
         frozenset({"REX302"})),
    Case("polarity_replacement_only_groupby",
         polarity_replacement_only_groupby, frozenset({"REX305"})),
    Case("polarity_update_into_keyed_fixpoint",
         polarity_update_into_keyed_fixpoint, frozenset({"REX305"})),
    Case("polarity_insert_only_groupby", polarity_insert_only_groupby,
         frozenset({"REX300", "REX304"})),
    Case("polarity_declared_handler_proof",
         polarity_declared_handler_proof, frozenset({"REX300"})),
    Case("polarity_undeclared_join_handler",
         polarity_undeclared_join_handler, frozenset({"REX306"})),
    Case("polarity_undeclared_while_handler",
         polarity_undeclared_while_handler, frozenset({"REX306"})),
]


# ---------------------------------------------------------------------------
# Column-lineage & UDF-effect plans (REX40x): each case anchors one
# verdict of the lineage analysis.  Like the polarity cases these are
# mostly *observations*, not defects (REX403 is the only error), so they
# get their own list.  All callables live at module level: the AST
# effect extractor needs ``inspect.getsource`` to succeed, and
# interactively-defined lambdas have no retrievable source.
# ---------------------------------------------------------------------------

def _wide3(row):
    return (row[0], row[1], row[2])


def _take0(row):
    return (row[0],)


def _key1(row):
    return (row[1],)


def _pos_weight(row):
    return row[2] > 0.0


def _noisy_pred(row):
    print(row[0])  # noqa: T201 - impurity is the point of this case
    return row[2] > 0.0


class _UnderDeclaredHandler:
    """Declares reads=(0,) but its update body also reads delta.row[1]."""

    name = "under_declared"
    reads = (0,)
    emits_polarity = frozenset({DeltaOp.INSERT})

    def update(self, state, delta, out):  # noqa: REX107 - seeded defect
        node, val = delta.row[0], delta.row[1]
        out.insert((node, val))


def _first_field(row):
    return (row[0],)


class _OverDeclaredUDF:
    """Declares reads=(0, 1, 2) but its body provably reads only row[0]."""

    name = "over_declared"
    table_valued = False
    reads = (0, 1, 2)
    fn = staticmethod(_first_field)

    def __call__(self, row):
        return self.fn(row)


def lineage_dead_project_column() -> PNode:
    """A 3-column Project whose consumer reads only column 0 -> REX400."""
    wide = PProject.over(PScan("edges"), _wide3)
    return PCollect(children=(PProject.over(wide, _take0),))


def lineage_undeclared_handler_read() -> PNode:
    """A handler body reading past its reads= declaration -> REX401."""
    join = PJoin(left_key=_key0, right_key=_key0,
                 handler_factory=_UnderDeclaredHandler, handler_side=1,
                 children=(PScan("edges"), PScan("seed")))
    return PCollect(children=(join,))


def lineage_overdeclared_udf() -> PNode:
    """A reads= declaration naming positions the body never touches
    (extraction is exact, so the surplus is provable) -> REX402."""
    apply = PApply(udf_factory=_OverDeclaredUDF, arg_fn=_ident,
                   children=(PScan("edges"),))
    return PCollect(children=(apply,))


def lineage_key_beyond_arity() -> PNode:
    """A rehash key reading position 1 of a 1-column stream: the key
    column was projected away upstream -> REX403 (the one REX40x error)."""
    narrow = PProject.over(PScan("edges"), _take0)
    return PCollect(children=(PRehash.by(narrow, _key1),))


def lineage_blocked_pushdown_impure() -> PNode:
    """A filter above an exchange whose predicate calls outside the pure
    whitelist: pushdown must be declined -> REX404."""
    ex = PRehash.by(PScan("edges"), _key0)
    return PCollect(children=(PFilter(predicate=_noisy_pred, children=(ex,)),))


def lineage_blocked_narrowing_polarity() -> PNode:
    """A narrow consumer above an exchange carrying δ updates: key-only
    delta rows forbid truncation, narrowing is declined -> REX404."""
    updates = PApply(udf_factory=_UpdateOnlyUDF, arg_fn=_ident,
                     delta_aware=True, children=(PScan("centroids"),))
    wide = PProject.over(updates, _wide3)
    ex = PRehash.by(wide, _key0)
    return PCollect(children=(PProject.over(ex, _take0),))


def lineage_pushdown_license() -> PNode:
    """A pure exactly-read predicate above an insert-only exchange:
    pushdown is licensed -> REX405."""
    ex = PRehash.by(PScan("edges"), _key0)
    return PCollect(children=(PFilter(predicate=_pos_weight, children=(ex,)),))


def lineage_narrowable_exchange() -> PNode:
    """Only column 0 of 3 crossing the exchange is live and the stream
    is insert-only: narrowing is licensed -> REX406 (and the dead wide
    columns surface as REX400)."""
    wide = PProject.over(PScan("edges"), _wide3)
    ex = PRehash.by(wide, _key0)
    return PCollect(children=(PProject.over(ex, _take0),))


def lineage_opaque_key() -> PNode:
    """A key function with no retrievable source (operator.itemgetter)
    widens the analysis -> REX407."""
    import operator
    return PCollect(children=(
        PRehash.by(PScan("edges"), operator.itemgetter(0)),))


LINEAGE_CASES: List[Case] = [
    Case("lineage_dead_project_column", lineage_dead_project_column,
         frozenset({"REX400"})),
    Case("lineage_undeclared_handler_read", lineage_undeclared_handler_read,
         frozenset({"REX401"})),
    Case("lineage_overdeclared_udf", lineage_overdeclared_udf,
         frozenset({"REX402"})),
    Case("lineage_key_beyond_arity", lineage_key_beyond_arity,
         frozenset({"REX403"})),
    Case("lineage_blocked_pushdown_impure", lineage_blocked_pushdown_impure,
         frozenset({"REX404"})),
    Case("lineage_blocked_narrowing_polarity",
         lineage_blocked_narrowing_polarity,
         frozenset({"REX400", "REX404"})),
    Case("lineage_pushdown_license", lineage_pushdown_license,
         frozenset({"REX405"})),
    Case("lineage_narrowable_exchange", lineage_narrowable_exchange,
         frozenset({"REX400", "REX406"})),
    Case("lineage_opaque_key", lineage_opaque_key,
         frozenset({"REX407"})),
]


# ---------------------------------------------------------------------------
# Good plans: zero error-level diagnostics expected
# ---------------------------------------------------------------------------

def good_groupby() -> LNode:
    return LGroupBy(
        LRehash(_edges(), 0), [0],
        [LAggCall("sum", Sum, [ColumnRef("weight")],
                  [F("total", SQLType.DOUBLE)], composable=True)])


def good_preagg_pair() -> LNode:
    partial = LGroupBy(
        _edges(), [0],
        [LAggCall("sum", Sum, [ColumnRef("weight")],
                  [F("_p0", SQLType.DOUBLE)], composable=True)],
        pre_aggregated=True)
    return LGroupBy(
        LRehash(partial, 0), [0],
        [LAggCall("sum", Sum, [ColumnRef("_p0")],
                  [F("total", SQLType.DOUBLE)], composable=True)])


def good_fixpoint() -> LNode:
    return LFixpoint(_seed(), _converged(_feedback()),
                     key=0, cte_name="R")


def good_phys_fixpoint() -> PNode:
    recursive = PUnion(children=(PFeedback(),))
    return PCollect(children=(
        PFixpoint(key_fn=_key0, children=(PScan("seed"), recursive)),))


BAD_CASES: List[Case] = [
    Case("nested_fixpoint", nested_fixpoint, frozenset({"REX001"})),
    Case("negation_in_recursion", negation_in_recursion,
         frozenset({"REX001"})),
    Case("double_feedback", double_feedback, frozenset({"REX002"})),
    Case("feedback_in_base", feedback_in_base, frozenset({"REX002"})),
    Case("union_all_no_contraction", union_all_no_contraction,
         frozenset({"REX002"})),
    Case("non_composable_preagg", non_composable_preagg,
         frozenset({"REX003"})),
    Case("escaping_partials", escaping_partials, frozenset({"REX003"})),
    Case("multiplicative_no_multiply", multiplicative_no_multiply,
         frozenset({"REX004"})),
    Case("multiplicative_no_compensation", multiplicative_no_compensation,
         frozenset({"REX004"})),
    Case("missing_rehash", missing_rehash, frozenset({"REX005"})),
    Case("redundant_rehash", redundant_rehash, frozenset({"REX006"})),
    Case("starved_handler", starved_handler, frozenset({"REX007"})),
    Case("uninterpreted_payload", uninterpreted_payload,
         frozenset({"REX007"})),
    Case("unknown_column", unknown_column, frozenset({"REX008"})),
    Case("join_type_mismatch", join_type_mismatch, frozenset({"REX008"})),
    Case("aggregate_arity_mismatch", aggregate_arity_mismatch,
         frozenset({"REX008"})),
    Case("fixpoint_arity_mismatch", fixpoint_arity_mismatch,
         frozenset({"REX008"})),
    Case("phys_two_fixpoints", phys_two_fixpoints, frozenset({"REX001"})),
    Case("phys_feedback_without_fixpoint", phys_feedback_without_fixpoint,
         frozenset({"REX002"})),
    Case("phys_double_feedback", phys_double_feedback,
         frozenset({"REX002"})),
    Case("phys_broadcast_broadcast", phys_broadcast_broadcast,
         frozenset({"REX006"})),
    Case("phys_starved_handler", phys_starved_handler,
         frozenset({"REX007"})),
]

GOOD_CASES: List[Case] = [
    Case("good_groupby", good_groupby),
    Case("good_preagg_pair", good_preagg_pair),
    Case("good_fixpoint", good_fixpoint),
    Case("good_phys_fixpoint", good_phys_fixpoint),
]
