"""Delta-rule correctness of the built-in aggregates.

The central invariant (property-tested below): folding any legal sequence of
insert/delete/replace deltas through an aggregator's ``agg_state`` yields the
same ``agg_result`` as recomputing the aggregate over the final multiset.
The same law covers δ(E) adjustments for the aggregators that accept them,
``ArgMin``/``ArgMax`` over ``(id, value)`` pairs, and AVG split into
``AvgPartial`` combiners feeding ``AvgFinal``.  Each law also runs through a
one-group ``GroupBy``, whose generated fold inlines the aggregators'
templates instead of calling ``agg_state``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CostModel, Worker
from repro.common import delete, insert, replace, update
from repro.common.deltas import Delta
from repro.common.errors import UDFError
from repro.common.punctuation import Punctuation
from repro.operators import ExecContext, GroupBy
from repro.udf import AggregateSpec
from repro.udf.builtins import (
    ArgMax,
    ArgMin,
    Avg,
    AvgFinal,
    AvgPartial,
    CollectList,
    Count,
    Max,
    Min,
    Sum,
)

from helpers import Capture


def run(agg, ops):
    """Fold (delta, value, old_value) triples through an aggregator."""
    state = agg.init_state()
    for delta, value, old in ops:
        state = agg.agg_state(state, delta, value, old)
    return agg.agg_result(state)


def groupby(key_fn, agg, arg, mode="stratum"):
    """A group-by over one aggregate, opened for batch execution."""
    gb = GroupBy(key_fn=key_fn, specs=[AggregateSpec(agg, arg=arg)],
                 mode=mode)
    sink = Capture()
    sink.add_input(gb)
    ctx = ExecContext(Worker(0, CostModel()), batch=True)
    gb.open(ctx)
    sink.open(ctx)
    return gb, sink


def run_groupby(agg, ops):
    """``run`` through a one-group ``GroupBy``'s generated fold and flush:
    the result is the group's emitted value.  A group exists only once a
    delta reached it, so an empty script reads a fresh state."""
    if not ops:
        return agg.agg_result(agg.init_state())
    gb, sink = groupby(lambda row: (), agg, lambda row: row[0])
    gb.push_batch([delta for delta, _, _ in ops])
    gb.on_punctuation(Punctuation.end_of_stratum(0))
    return sink.deltas[-1].row[-1] if sink.deltas else None


def fold_values(agg, values):
    return run(agg, [(insert((v,)), v, None) for v in values])


class TestSum:
    def test_insert_delete(self):
        assert run(Sum(), [(insert((3,)), 3, None), (insert((4,)), 4, None),
                           (delete((3,)), 3, None)]) == 4

    def test_empty_group_is_null(self):
        agg = Sum()
        assert run(agg, [(insert((3,)), 3, None), (delete((3,)), 3, None)]) is None

    def test_replace(self):
        assert run(Sum(), [(insert((3,)), 3, None),
                           (replace((3,), (10,)), 10, 3)]) == 10

    def test_update_adjusts(self):
        assert run(Sum(), [(insert((3,)), 3, None),
                           (update((0,), payload=2.5), None, None)]) == 5.5

    def test_update_rejects_non_numeric(self):
        with pytest.raises(UDFError):
            run(Sum(), [(update((0,), payload="x"), None, None)])

    def test_null_inputs_skipped(self):
        assert run(Sum(), [(insert((None,)), None, None),
                           (insert((2,)), 2, None)]) == 2

    def test_multiply_compensation(self):
        assert Sum.multiply(5, 3) == 15
        assert Sum.multiply(None, 3) is None


class TestCount:
    def test_count_star_counts_nulls(self):
        assert fold_values(Count(count_star=True), [1, None, 2]) == 3

    def test_count_expr_skips_nulls(self):
        assert fold_values(Count(count_star=False), [1, None, 2]) == 2

    def test_delete(self):
        assert run(Count(), [(insert((1,)), 1, None),
                             (delete((1,)), 1, None)]) == 0

    def test_replace_null_transitions(self):
        agg = Count(count_star=False)
        assert run(agg, [(insert((1,)), 1, None),
                         (replace((1,), (None,)), None, 1)]) == 0

    def test_final_aggregator_sums_partials(self):
        assert isinstance(Count().final_aggregator(), Sum)


class TestMinMax:
    def test_delete_of_minimum_reveals_next(self):
        """The paper's motivating subtlety for buffered min state."""
        agg = Min()
        state = agg.init_state()
        for v in (5, 3, 8):
            state = agg.agg_state(state, insert((v,)), v)
        assert agg.agg_result(state) == 3
        state = agg.agg_state(state, delete((3,)), 3)
        assert agg.agg_result(state) == 5

    def test_max(self):
        assert fold_values(Max(), [5, 3, 8]) == 8

    def test_duplicates_survive_one_delete(self):
        agg = Min()
        state = agg.init_state()
        for v in (2, 2, 7):
            state = agg.agg_state(state, insert((v,)), v)
        state = agg.agg_state(state, delete((2,)), 2)
        assert agg.agg_result(state) == 2

    def test_delete_absent_raises(self):
        agg = Min()
        with pytest.raises(UDFError):
            agg.agg_state(agg.init_state(), delete((1,)), 1)

    def test_update_rejected(self):
        with pytest.raises(UDFError):
            run(Min(), [(update((1,), payload=1), 1, None)])

    def test_empty_is_null(self):
        assert fold_values(Min(), []) is None


class TestAvg:
    def test_basic(self):
        assert fold_values(Avg(), [2, 4]) == 3.0

    def test_delete(self):
        assert run(Avg(), [(insert((2,)), 2, None), (insert((4,)), 4, None),
                           (delete((4,)), 4, None)]) == 2.0

    def test_pre_final_composition_matches_direct(self):
        """avg == final(union of partial (sum,count) pairs) — Section 3.3."""
        groups = [[1.0, 2.0, 3.0], [10.0], [4.0, 4.0]]
        direct = fold_values(Avg(), [v for g in groups for v in g])
        pre = Avg().pre_aggregator()
        partials = [fold_values(pre, g) for g in groups]
        final = Avg().final_aggregator()
        assert isinstance(final, AvgFinal)
        composed = fold_values(final, partials)
        assert composed == pytest.approx(direct)

    def test_empty_is_null(self):
        assert fold_values(Avg(), []) is None


class TestArgMinMax:
    def test_argmin_returns_identifier(self):
        pairs = [("a", 5.0), ("b", 2.0), ("c", 9.0)]
        assert fold_values(ArgMin(), pairs) == ("b", 2.0)

    def test_argmax(self):
        pairs = [("a", 5.0), ("b", 2.0)]
        assert fold_values(ArgMax(), pairs) == ("a", 5.0)

    def test_tie_breaks_by_id(self):
        pairs = [("z", 1.0), ("a", 1.0)]
        assert fold_values(ArgMin(), pairs) == ("a", 1.0)

    def test_delete_of_winner(self):
        agg = ArgMin()
        state = agg.init_state()
        for p in [(1, 5.0), (2, 2.0)]:
            state = agg.agg_state(state, insert(p), p)
        state = agg.agg_state(state, delete((2, 2.0)), (2, 2.0))
        assert agg.agg_result(state) == (1, 5.0)


class TestCollect:
    def test_collects_sorted(self):
        assert fold_values(CollectList(), [3, 1, 2]) == (1, 2, 3)

    def test_delete_removes_one_occurrence(self):
        agg = CollectList()
        state = agg.init_state()
        for v in (1, 1, 2):
            state = agg.agg_state(state, insert((v,)), v)
        state = agg.agg_state(state, delete((1,)), 1)
        assert agg.agg_result(state) == (1, 2)

    def test_delete_absent_raises(self):
        agg = CollectList()
        with pytest.raises(UDFError):
            agg.agg_state(agg.init_state(), delete((1,)), 1)


# ---------------------------------------------------------------------------
# Property: delta folding == recomputation over the surviving multiset.
# ---------------------------------------------------------------------------

values = st.integers(min_value=-100, max_value=100)
#: ``(id, value)`` inputs of ArgMin/ArgMax; few ids, so ties happen.
id_values = st.tuples(st.integers(min_value=0, max_value=4), values)


@st.composite
def delta_script(draw, values=values, updates=False):
    """A legal history: inserts, deletes of live values, replaces and —
    with ``updates`` — integer δ(E) adjustments.

    Returns ``(ops, live, adjustment)``: the live multiset and the summed
    δ payloads.  Once a group has been adjusted it is never emptied by a
    delete again (a replace is drawn instead): the running aggregates'
    row count then decides nullness in a way recomputation cannot see.
    """
    live = []
    ops = []
    adjustment = 0
    adjusted = False
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        choice = draw(st.integers(min_value=0, max_value=3 if updates else 2))
        if choice == 3:
            payload = draw(values)
            ops.append((update((0,), payload=payload), None, None))
            adjustment += payload
            adjusted = True
        elif choice == 0 or not live:
            v = draw(values)
            ops.append((insert((v,)), v, None))
            live.append(v)
        elif choice == 1 and not (adjusted and len(live) == 1):
            v = live.pop(draw(st.integers(min_value=0, max_value=len(live) - 1)))
            ops.append((delete((v,)), v, None))
        else:
            idx = draw(st.integers(min_value=0, max_value=len(live) - 1))
            old = live[idx]
            new = draw(values)
            live[idx] = new
            ops.append((replace((old,), (new,)), new, old))
    return ops, live, adjustment if adjusted else None


def assert_result(got, expected):
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected)


FOLD_LAWS = [
    (Sum, lambda vs: sum(vs) if vs else None),
    (Count, lambda vs: len(vs)),
    (Min, lambda vs: min(vs) if vs else None),
    (Max, lambda vs: max(vs) if vs else None),
    (Avg, lambda vs: sum(vs) / len(vs) if vs else None),
    (AvgPartial, lambda vs: (float(sum(vs)), len(vs)) if vs else None),
    (CollectList, lambda vs: tuple(sorted(vs)) if vs else None),
]
UPDATE_LAWS = [
    # δ(E) adds E to the group's value; an adjusted group is non-empty.
    (Sum, lambda vs, adj: (None if not vs and adj is None
                           else sum(vs) + (adj or 0))),
    (Count, lambda vs, adj: len(vs) + (adj or 0)),
    # AVG adjusts the sum, never the count.
    (Avg, lambda vs, adj: (sum(vs) + (adj or 0)) / len(vs) if vs else None),
    (AvgPartial, lambda vs, adj: ((float(sum(vs) + (adj or 0)), len(vs))
                                  if vs else None)),
]
ARG_LAWS = [
    # Least value; ties go to the least id.
    (ArgMin, lambda pairs: min(pairs, key=lambda p: (p[1], p[0]))),
    # Greatest value; ties go to the least id.
    (ArgMax, lambda pairs: max(pairs, key=lambda p: (p[1], -p[0]))),
]


@pytest.mark.parametrize("agg_cls,reference", FOLD_LAWS)
@given(script=delta_script())
def test_delta_folding_equals_recomputation(agg_cls, reference, script):
    ops, survivors, _ = script
    assert_result(run(agg_cls(), ops), reference(survivors))


@pytest.mark.parametrize("agg_cls,reference", FOLD_LAWS)
@settings(max_examples=50)
@given(script=delta_script())
def test_groupby_folding_equals_recomputation(agg_cls, reference, script):
    ops, survivors, _ = script
    assert_result(run_groupby(agg_cls(), ops), reference(survivors))


@pytest.mark.parametrize("agg_cls,reference", UPDATE_LAWS)
@settings(max_examples=50)
@given(script=delta_script(updates=True))
def test_delta_update_folding_equals_recomputation(agg_cls, reference,
                                                   script):
    ops, survivors, adjustment = script
    assert_result(run(agg_cls(), ops), reference(survivors, adjustment))


@pytest.mark.parametrize("agg_cls,reference", UPDATE_LAWS)
@settings(max_examples=50)
@given(script=delta_script(updates=True))
def test_groupby_update_folding_equals_recomputation(agg_cls, reference,
                                                     script):
    ops, survivors, adjustment = script
    assert_result(run_groupby(agg_cls(), ops),
                  reference(survivors, adjustment))


@pytest.mark.parametrize("agg_cls", [Max, AvgFinal, ArgMin, ArgMax,
                                     CollectList])
def test_update_refused_where_it_has_no_meaning(agg_cls):
    with pytest.raises(UDFError):
        run(agg_cls(), [(update((0,), payload=1), None, None)])


@pytest.mark.parametrize("agg_cls,pick", ARG_LAWS)
@settings(max_examples=50)
@given(script=delta_script(values=id_values))
def test_argmin_folding_equals_recomputation(agg_cls, pick, script):
    ops, survivors, _ = script
    assert run(agg_cls(), ops) == (pick(survivors) if survivors else None)


@pytest.mark.parametrize("agg_cls,pick", ARG_LAWS)
@settings(max_examples=50)
@given(script=delta_script(values=id_values))
def test_groupby_argmin_folding_equals_recomputation(agg_cls, pick, script):
    ops, survivors, _ = script
    assert run_groupby(agg_cls(), ops) == (pick(survivors) if survivors
                                           else None)


def _partial_change(before, after):
    """The delta a pre-aggregate emits when its result moves."""
    if before == after:
        return None
    if before is None:
        return (insert((after,)), after, None)
    if after is None:
        return (delete((before,)), before, None)
    return (replace((before,), (after,)), after, before)


@settings(max_examples=50)
@given(scripts=st.lists(delta_script(), min_size=1, max_size=3))
def test_partial_then_final_equals_direct_avg(scripts):
    """AVG split into combiners and a final step (Section 3.3): each
    combiner's result changes reach ``AvgFinal`` as deltas, steps
    interleaved across combiners, and the final result is AVG over the
    union of what survives."""
    partial, final = AvgPartial(), AvgFinal()
    states = [partial.init_state() for _ in scripts]
    results = [None] * len(scripts)
    final_state = final.init_state()
    for step in range(max(len(ops) for ops, _, _ in scripts)):
        for i, (ops, _, _) in enumerate(scripts):
            if step >= len(ops):
                continue
            delta, value, old = ops[step]
            states[i] = partial.agg_state(states[i], delta, value, old)
            now = partial.agg_result(states[i])
            change = _partial_change(results[i], now)
            results[i] = now
            if change is not None:
                final_state = final.agg_state(final_state, *change)
    survivors = [v for _, live, _ in scripts for v in live]
    assert_result(final.agg_result(final_state),
                  sum(survivors) / len(survivors) if survivors else None)


@settings(max_examples=50)
@given(scripts=st.lists(delta_script(), min_size=1, max_size=3))
def test_groupby_partial_then_final_equals_direct_avg(scripts):
    """The same composition as two generated folds: a stream-mode
    ``AvgPartial`` group per script (the combiner) feeding one
    ``AvgFinal`` group, steps interleaved across scripts."""
    final, sink = groupby(lambda row: (), AvgFinal(), lambda row: row[1])
    partial = GroupBy(key_fn=lambda row: (row[0],), mode="stream",
                      specs=[AggregateSpec(AvgPartial(),
                                           arg=lambda row: row[1])])
    final.add_input(partial)
    partial.open(final.ctx)
    for step in range(max(len(ops) for ops, _, _ in scripts)):
        partial.push_batch([
            Delta(delta.op, (i,) + delta.row,
                  None if delta.old is None else (i,) + delta.old)
            for i, (ops, _, _) in enumerate(scripts) if step < len(ops)
            for delta in [ops[step][0]]])
    partial.on_punctuation(Punctuation.end_of_stratum(0))
    survivors = [v for _, live, _ in scripts for v in live]
    assert_result(sink.deltas[-1].row[-1] if sink.deltas else None,
                  sum(survivors) / len(survivors) if survivors else None)
