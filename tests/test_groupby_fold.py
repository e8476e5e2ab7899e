"""The generated group-by fold is the per-tuple reference, by hypothesis.

``GroupBy.push_batch`` runs one generated function per plan shape, with
the templated builtins' ``agg_state``/``agg_result`` inlined from their
``fold_source``/``result_source`` and the other aggregators called, and
the stratum flush generated alongside.  ``process``/``_flush_key`` calling the methods stay
the executable specification.  Random delta scripts — ``+``, ``-``,
``->`` (including replacements that straddle two groups) and ``δ`` with
``bool``/``int``/``float`` payloads — run through both, over every builtin,
a UDA, a ``Sum`` subclass that overrides ``agg_state`` and a
``per_delta_cost`` subclass, in every combination of up to three specs, in
both modes, with and without a memory budget small enough to charge state
access.  The emitted deltas (in order), the final group states and the
worker's charge multiset must be identical, or both paths must raise the
same error.  A whole query checks ``QueryMetrics.fingerprint`` the same
way, and the errors a template raises are checked against its method's.
"""

import linecache
import traceback
from collections import Counter

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel, Worker
from repro.common.deltas import DeltaOp, delete, insert, replace, update
from repro.common.errors import UDFError
from repro.common.punctuation import Punctuation
from repro.datasets import dbpedia_like
from repro.operators import ExecContext, GroupBy
from repro.rql import RQLSession
from repro.runtime import (ExecOptions, PApply, PGroupBy, PScan,
                           PhysicalPlan, QueryExecutor)
from repro.udf import AggregateSpec
from repro.udf.aggregates import Aggregator, fold_templates
from repro.udf.builtins import (ArgMax, ArgMin, Avg, AvgFinal, AvgPartial,
                                CollectList, Count, Max, Min, Sum,
                                _OrderStatMultiset)

from helpers import Capture

EOS = Punctuation.end_of_stratum


class SumSquares(Aggregator):
    """A UDA: no templates, so the generated loop calls it."""

    name = "sum_squares"

    def init_state(self):
        return {"total": 0}

    def agg_state(self, state, delta, value, old_value=None):
        if delta.op is DeltaOp.UPDATE:
            state["total"] += delta.payload
            return state
        if old_value is not None:
            state["total"] -= old_value * old_value
        if value is not None:
            sign = -1 if delta.op is DeltaOp.DELETE else 1
            state["total"] += sign * value * value
        return state

    def agg_result(self, state):
        return state["total"] or None


class DoubledSum(Sum):
    """Overrides ``agg_state``, so it keeps the call; ``agg_result`` is
    inherited with its template."""

    name = "doubled_sum"

    def agg_state(self, state, delta, value, old_value=None):
        double = (lambda x: None if x is None else 2 * x)
        return super().agg_state(state, delta, double(value),
                                 double(old_value))


class UserSum(Sum):
    """Charged per delta like user code; keeps Sum's templates."""

    name = "usersum"

    @staticmethod
    def per_delta_cost(cost):
        return cost.udf_cost_per_tuple(batched=True)


# Rows are (key, x, ident, nullable x); δ rows are (key,).
_X = lambda r: r[3]
AGGREGATES = {
    "sum": (Sum, _X),
    "count_star": (lambda: Count(count_star=True), None),
    "count_expr": (lambda: Count(count_star=False), _X),
    "min": (Min, _X),
    "max": (Max, _X),
    "avg": (Avg, _X),
    "avg_partial": (AvgPartial, _X),
    "avg_final": (AvgFinal,
                  lambda r: None if r[3] is None else (r[1], 1 + r[2] % 2)),
    "argmin": (ArgMin, lambda r: (r[2], r[3])),
    "argmax": (ArgMax, lambda r: (r[2], r[3])),
    "collect": (CollectList, _X),
    "uda": (SumSquares, _X),
    "override": (DoubledSum, _X),
    "per_delta": (UserSum, _X),
}
TEMPLATED = ["sum", "count_star", "count_expr", "min", "max", "argmin",
             "argmax"]


def make_specs(names):
    return [AggregateSpec(AGGREGATES[n][0](), arg=AGGREGATES[n][1])
            for n in names]


def test_templates_follow_the_methods_they_stand_for():
    """The builtins the benchmark runs, and a charged subclass, compile
    their templates; a UDA and an ``agg_state`` override are called."""
    for name in TEMPLATED + ["per_delta"]:
        fold, result = fold_templates(make_specs([name])[0].aggregator)
        assert fold is not None and result is not None, name
    assert fold_templates(SumSquares()) == (None, None)
    fold, result = fold_templates(DoubledSum())
    assert fold is None and result is not None


# -- scripts ---------------------------------------------------------------

values = st.integers(min_value=-4, max_value=4)
payloads = st.one_of(st.integers(min_value=-3, max_value=3), st.booleans(),
                     st.sampled_from([0.5, -1.25, 2.0, 0.1]))


@st.composite
def rows(draw, keys=3):
    x = draw(values)
    return (draw(st.integers(0, keys - 1)), x, draw(st.integers(0, 3)),
            None if draw(st.integers(0, 4)) == 0 else x)


@st.composite
def scripts(draw, updates=True):
    """A legal history: deletes and replaces retract live rows only; a
    replacement's new row may land in another group."""
    live, out = [], []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        choice = draw(st.integers(min_value=0, max_value=3 if updates else 2))
        if choice == 3:
            out.append(update((draw(st.integers(0, 2)),),
                              payload=draw(payloads)))
        elif choice == 0 or not live:
            row = draw(rows())
            live.append(row)
            out.append(insert(row))
        else:
            old = live.pop(draw(st.integers(0, len(live) - 1)))
            if choice == 1:
                out.append(delete(old))
            else:
                new = draw(rows())
                live.append(new)
                out.append(replace(old, new))
    cuts = sorted(draw(st.lists(st.integers(0, len(out)), max_size=2)))
    return [out[a:b] for a, b in zip([0] + cuts, cuts + [len(out)])]


# -- one run, everything observable ------------------------------------------

def snapshot(state):
    if isinstance(state, _OrderStatMultiset):
        return (dict(state._live), state.size, state._best, state._stale)
    if isinstance(state, (dict, Counter)):
        return dict(state)
    return state


def observe(names, mode, strata, batch, budget=None):
    cost = CostModel() if budget is None else CostModel(
        worker_memory_bytes=budget)
    worker = Worker(0, cost)
    gb = GroupBy(key_fn=lambda r: (r[0],), specs=make_specs(names),
                 mode=mode)
    sink = Capture()
    sink.add_input(gb)
    ctx = ExecContext(worker, batch=batch)
    gb.open(ctx)
    sink.open(ctx)
    try:
        for stratum, deltas in enumerate(strata):
            if batch:
                gb.push_batch(list(deltas))
            else:
                for d in deltas:
                    gb.receive(d)
            gb.on_punctuation(EOS(stratum))
    except Exception as exc:  # both paths must raise the same error
        return type(exc), str(exc)
    states = {k: (g.live, g.last, [snapshot(s) for s in g.states])
              for k, g in gb.groups.items()}
    return (sink.deltas, states, dict(worker._cpu_tally),
            dict(worker._disk_tally), worker.state_bytes)


def assert_fold_is_process(names, mode, strata, budget=None):
    reference = observe(names, mode, strata, batch=False, budget=budget)
    event("raised" if isinstance(reference[0], type) else "folded")
    assert observe(names, mode, strata, batch=True, budget=budget) \
        == reference


@settings(max_examples=300, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(AGGREGATES)), max_size=3),
       mode=st.sampled_from(["stratum", "stream"]),
       strata=scripts(), spill=st.booleans())
def test_generated_fold_is_process(names, mode, strata, spill):
    assert_fold_is_process(names, mode, strata, budget=150 if spill else None)


@pytest.mark.parametrize("mode", ["stratum", "stream"])
@pytest.mark.parametrize("first", sorted(AGGREGATES))
@settings(max_examples=10, deadline=None)
@given(second=st.sampled_from(sorted(AGGREGATES)),
       third=st.sampled_from([None] + sorted(AGGREGATES)),
       strata=scripts(updates=False))
def test_each_aggregate_leads_a_retraction_fold(first, second, third, mode,
                                                strata):
    """Every aggregate as the first spec, beside random others, over
    ``+``/``-``/``->`` only (no spec refuses those, so no run ends
    early on an error)."""
    names = [first, second] + ([third] if third else [])
    reference = observe(names, mode, strata, batch=False)
    assert not isinstance(reference[0], type), reference
    assert observe(names, mode, strata, batch=True) == reference


# -- a whole query: rows and QueryMetrics.fingerprint -------------------------

def run_query(names, script, batch):
    cluster = Cluster(1)
    cluster.create_table("log", ["i:Integer"],
                         [(i,) for i in range(len(script))], None)
    scripted = PApply(udf_factory=lambda: lambda d: [script[d.row[0]]],
                      arg_fn=lambda r: r, delta_aware=True,
                      children=(PScan("log"),))
    plan = PhysicalPlan(PGroupBy(key_fn=lambda r: (r[0],),
                                 specs_factory=lambda: make_specs(names),
                                 children=(scripted,)))
    try:
        result = QueryExecutor(cluster, ExecOptions(batch=batch)).execute(
            plan)
    except Exception as exc:
        return type(exc), str(exc)
    return sorted(result.rows, key=repr), result.metrics.fingerprint()


@settings(max_examples=40, deadline=None)
@given(names=st.lists(st.sampled_from(sorted(AGGREGATES)), min_size=1,
                      max_size=3),
       strata=scripts())
def test_query_fingerprint_matches_per_tuple(names, strata):
    script = [d for chunk in strata for d in chunk]
    assert run_query(names, script, batch=True) == run_query(
        names, script, batch=False)


# -- errors and tracebacks ------------------------------------------------------

ERRORS = {
    # name: (aggregate, arg, deltas, line of the generated frame)
    "min_deletes_absent": (Min, lambda r: r[1],
                           [insert(("a", 1)), delete(("a", 2))],
                           "s.remove(v)"),
    "sum_non_numeric_update": (Sum, lambda r: r[1],
                               [update(("a",), payload="x")],
                               "raise UDFError("),
    "count_float_update": (Count, None, [update(("a",), payload=0.5)],
                           "raise UDFError("),
    "argmin_update": (ArgMin, lambda r: (r[1], r[1]),
                      [update(("a",), payload=1)], "raise UDFError("),
}


@pytest.mark.parametrize("case", ERRORS)
def test_template_raises_what_agg_state_raises(case):
    agg_cls, arg, deltas, line = ERRORS[case]
    spec = AggregateSpec(agg_cls(), arg=arg)
    state = spec.aggregator.init_state()
    with pytest.raises(UDFError) as expected:
        for d in deltas:
            value = None if d.op is DeltaOp.UPDATE else spec.arg(d.row)
            state = spec.aggregator.agg_state(state, d, value)

    gb = GroupBy(key_fn=lambda r: (r[0],),
                 specs=[AggregateSpec(agg_cls(), arg=arg)])
    sink = Capture()
    sink.add_input(gb)
    ctx = ExecContext(Worker(0, CostModel()), batch=True)
    gb.open(ctx)
    sink.open(ctx)
    with pytest.raises(UDFError) as got:
        gb.push_batch(deltas)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)

    frames = traceback.extract_tb(got.tb)
    generated = [f for f in frames
                 if f.filename.startswith("<groupby-fold-")]
    assert generated, [f.filename for f in frames]
    fold_frame = generated[-1]
    # The template raises in the generated frame itself; Min's multiset
    # removal stays a call, so there the generated frame is its caller.
    assert frames.index(fold_frame) == len(frames) - (
        2 if case == "min_deletes_absent" else 1)
    assert line in linecache.getline(fold_frame.filename, fold_frame.lineno)


# -- the full sanitizer re-aggregates what the generated fold produced ----------

SANITIZED_QUERY = ("SELECT srcId, sum(destId), count(*), min(destId), "
                   "max(destId) FROM graph GROUP BY srcId")


def sanitized_run(absint):
    """``sanitize="full"``, with the abstract interpretation on or off."""
    cluster = Cluster(4)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         dbpedia_like(60, avg_out_degree=3, seed=3), "srcId")
    result = RQLSession(cluster).execute(
        SANITIZED_QUERY, options=ExecOptions(sanitize="full", absint=absint))
    return result.sanitizer


def check_catches_a_wrong_template(monkeypatch, absint):
    clean = sanitized_run(absint)
    assert clean.checks > 0 and clean.violations == 0

    doubled_insert = dict(Sum.fold_source)
    doubled_insert[DeltaOp.INSERT] = doubled_insert[DeltaOp.INSERT].replace(
        "s['sum'] += v", "s['sum'] += 2 * v")
    monkeypatch.setattr(Sum, "fold_source", doubled_insert)
    broken = sanitized_run(absint)
    assert broken.violations > 0
    assert {d.code for d in broken.report.diagnostics} == {"REX201"}


def test_full_sanitizer_catches_a_wrong_template(monkeypatch):
    check_catches_a_wrong_template(monkeypatch, absint=False)


def test_full_sanitizer_catches_a_wrong_template_under_absint(monkeypatch):
    """The default ``absint=True``: the group-by's exact insert-only proof
    adds the polarity assertion, and the re-aggregation still runs."""
    check_catches_a_wrong_template(monkeypatch, absint=True)
