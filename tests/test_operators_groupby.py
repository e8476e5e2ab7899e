"""Unit + property tests for delta-aware group-by."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import DeltaOp, delete, insert, replace, update
from repro.common.punctuation import Punctuation
from repro.operators import GroupBy
from repro.udf import AggregateSpec, Avg, Count, Min, Sum

from helpers import Capture, wire


EOS = Punctuation.end_of_stratum


def make_groupby(specs=None, mode="stratum", **kwargs):
    specs = specs or [AggregateSpec(Sum(), arg=lambda r: r[1], output="s")]
    sink = Capture()
    gb = GroupBy(key_fn=lambda r: (r[0],), specs=specs, mode=mode, **kwargs)
    wire(gb, sink)
    return gb, sink


class TestStratumMode:
    def test_flushes_on_punctuation_only(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        assert sink.deltas == []
        gb.on_punctuation(EOS(0))
        assert sink.rows() == [("a", 3)]

    def test_first_emit_is_insert_then_replace(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        gb.on_punctuation(EOS(0))
        gb.receive(insert(("a", 4)))
        gb.on_punctuation(EOS(1))
        assert [d.op for d in sink.deltas] == [DeltaOp.INSERT, DeltaOp.REPLACE]
        assert sink.deltas[1].old == ("a", 3)
        assert sink.deltas[1].row == ("a", 7)

    def test_unchanged_group_not_reemitted(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        gb.on_punctuation(EOS(0))
        sink.clear()
        gb.receive(insert(("b", 1)))          # 'a' untouched this stratum
        gb.on_punctuation(EOS(1))
        assert sink.rows() == [("b", 1)]

    def test_group_emptied_emits_delete(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        gb.on_punctuation(EOS(0))
        gb.receive(delete(("a", 3)))
        gb.on_punctuation(EOS(1))
        assert sink.deltas[-1].op is DeltaOp.DELETE
        assert sink.deltas[-1].row == ("a", 3)
        assert gb.state_size() == 0

    def test_group_created_and_emptied_same_stratum_is_silent(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        gb.receive(delete(("a", 3)))
        gb.on_punctuation(EOS(0))
        assert sink.deltas == []

    def test_replace_within_group(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        gb.receive(replace(("a", 3), ("a", 10)))
        gb.on_punctuation(EOS(0))
        assert sink.rows() == [("a", 10)]

    def test_replace_across_groups_decomposes(self):
        gb, sink = make_groupby()
        gb.receive(insert(("a", 3)))
        gb.receive(insert(("b", 1)))
        gb.on_punctuation(EOS(0))
        sink.clear()
        gb.receive(replace(("a", 3), ("b", 3)))
        gb.on_punctuation(EOS(1))
        by_op = {d.op for d in sink.deltas}
        assert DeltaOp.DELETE in by_op      # group 'a' vanished
        assert ("b", 4) in [d.row for d in sink.deltas]

    def test_multiple_aggregates(self):
        specs = [
            AggregateSpec(Sum(), arg=lambda r: r[1], output="s"),
            AggregateSpec(Count(), arg=lambda r: r[1], output="c"),
            AggregateSpec(Min(), arg=lambda r: r[1], output="m"),
        ]
        gb, sink = make_groupby(specs)
        gb.receive(insert(("a", 3)))
        gb.receive(insert(("a", 5)))
        gb.on_punctuation(EOS(0))
        assert sink.rows() == [("a", 8, 2, 3)]


class TestUpdateDeltas:
    def test_update_payload_adjusts_sum(self):
        """The PageRank pattern: value-update deltas fold into running sums
        across strata without any inserts ever arriving."""
        gb, sink = make_groupby()
        gb.receive(update(("a",), payload=0.5))
        gb.on_punctuation(EOS(0))
        assert sink.rows() == [("a", 0.5)]
        sink.clear()
        gb.receive(update(("a",), payload=0.25))
        gb.on_punctuation(EOS(1))
        d = sink.deltas[0]
        assert d.op is DeltaOp.REPLACE
        assert d.row == ("a", 0.75)

    def test_update_keeps_group_alive(self):
        gb, sink = make_groupby()
        gb.receive(update(("a",), payload=1.0))
        gb.on_punctuation(EOS(0))
        assert gb.state_size() == 1


class TestStreamMode:
    def test_emits_per_delta(self):
        gb, sink = make_groupby(mode="stream")
        gb.receive(insert(("a", 1)))
        gb.receive(insert(("a", 2)))
        assert [d.op for d in sink.deltas] == [DeltaOp.INSERT, DeltaOp.REPLACE]
        assert sink.deltas[-1].row == ("a", 3)


class TestClearStatesEachStratum:
    def test_reaggregation_mode(self):
        """No-delta execution: state is rebuilt per stratum; emission still
        produces replacements against the previous stratum's output."""
        gb, sink = make_groupby(clear_states_each_stratum=True)
        gb.receive(insert(("a", 3)))
        gb.on_punctuation(EOS(0))
        sink.clear()
        gb.receive(insert(("a", 4)))          # full recomputation: only 4
        gb.on_punctuation(EOS(1))
        d = sink.deltas[0]
        assert d.op is DeltaOp.REPLACE
        assert d.old == ("a", 3) and d.row == ("a", 4)


# ---------------------------------------------------------------------------
# Property: applying emitted deltas == recomputed GROUP BY ... SUM
# ---------------------------------------------------------------------------

@st.composite
def grouped_script(draw):
    live = []
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        action = draw(st.integers(min_value=0, max_value=2))
        if action == 0 or not live:
            row = (draw(st.integers(0, 3)), draw(st.integers(-5, 5)))
            live.append(row)
            ops.append(insert(row))
        elif action == 1:
            row = live.pop(draw(st.integers(0, len(live) - 1)))
            ops.append(delete(row))
        else:
            idx = draw(st.integers(0, len(live) - 1))
            old = live[idx]
            new = (draw(st.integers(0, 3)), draw(st.integers(-5, 5)))
            live[idx] = new
            ops.append(replace(old, new))
    return ops, live


@given(grouped_script(), st.integers(min_value=1, max_value=5))
def test_groupby_deltas_equal_recomputation(script, n_strata):
    """Deltas spread over several strata still materialize to the same
    grouped output as direct recomputation."""
    from helpers import apply_deltas

    ops, live = script
    gb, sink = make_groupby()
    size = max(1, -(-len(ops) // n_strata))
    chunks = [ops[i:i + size] for i in range(0, len(ops), size)] or [[]]
    for s, chunk in enumerate(chunks):
        for d in chunk:
            gb.receive(d)
        gb.on_punctuation(EOS(s))
    materialized = apply_deltas(set(), sink.deltas)
    expected = {}
    for k, v in live:
        expected[k] = expected.get(k, 0) + v
    counts = {}
    for k, _ in live:
        counts[k] = counts.get(k, 0) + 1
    assert materialized == {(k,) + (expected[k],) for k in counts}
