"""Unit + property tests for the pipelined hash join delta rules."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common import DeltaOp, delete, insert, replace, update
from repro.common.errors import ExecutionError
from repro.operators import HashJoin
from repro.operators.join import LEFT, RIGHT
from repro.udf.aggregates import JoinDeltaHandler

from helpers import Capture, apply_deltas, wire


def make_join(handler=None, handler_side=RIGHT):
    sink = Capture()
    join = HashJoin(left_key=lambda r: (r[0],), right_key=lambda r: (r[0],),
                    handler=handler, handler_side=handler_side)
    wire(join, sink)
    return join, sink


class TestInsertProbe:
    def test_matching_rows_join(self):
        join, sink = make_join()
        join.receive(insert((1, "a")), LEFT)
        join.receive(insert((1, "b")), RIGHT)
        assert sink.rows() == [(1, "a", 1, "b")]

    def test_nonmatching_rows_do_not_join(self):
        join, sink = make_join()
        join.receive(insert((1, "a")), LEFT)
        join.receive(insert((2, "b")), RIGHT)
        assert sink.rows() == []

    def test_symmetric_pipelining(self):
        """Late arrivals on either side probe earlier state."""
        join, sink = make_join()
        join.receive(insert((1, "r")), RIGHT)
        join.receive(insert((1, "l")), LEFT)
        assert sink.rows() == [(1, "l", 1, "r")]

    def test_duplicates_multiply(self):
        join, sink = make_join()
        join.receive(insert((1, "a")), LEFT)
        join.receive(insert((1, "a")), LEFT)
        join.receive(insert((1, "x")), RIGHT)
        assert len(sink.rows()) == 2


class TestDeleteReplace:
    def test_delete_emits_delete_pairs(self):
        join, sink = make_join()
        join.receive(insert((1, "a")), LEFT)
        join.receive(insert((1, "x")), RIGHT)
        sink.clear()
        join.receive(delete((1, "a")), LEFT)
        assert [d.op for d in sink.deltas] == [DeltaOp.DELETE]
        assert sink.deltas[0].row == (1, "a", 1, "x")

    def test_delete_absent_row_raises(self):
        join, sink = make_join()
        with pytest.raises(ExecutionError):
            join.receive(delete((1, "a")), LEFT)

    def test_replace_same_key_emits_replace(self):
        join, sink = make_join()
        join.receive(insert((1, "old")), LEFT)
        join.receive(insert((1, "x")), RIGHT)
        sink.clear()
        join.receive(replace((1, "old"), (1, "new")), LEFT)
        d = sink.deltas[0]
        assert d.op is DeltaOp.REPLACE
        assert d.old == (1, "old", 1, "x") and d.row == (1, "new", 1, "x")

    def test_replace_changing_key_decomposes(self):
        join, sink = make_join()
        join.receive(insert((1, "v")), LEFT)
        join.receive(insert((1, "x")), RIGHT)
        join.receive(insert((2, "y")), RIGHT)
        sink.clear()
        join.receive(replace((1, "v"), (2, "v")), LEFT)
        ops = sorted(d.op.name for d in sink.deltas)
        assert ops == ["DELETE", "INSERT"]

    def test_update_without_handler_probes_passthrough(self):
        """No handler: annotation rides along, state untouched."""
        join, sink = make_join(handler=None)
        join.receive(insert((1, "x")), RIGHT)
        join.receive(update((1, 0.5), payload=0.5), LEFT)
        d = sink.deltas[0]
        assert d.op is DeltaOp.UPDATE and d.payload == 0.5
        assert d.row == (1, 0.5, 1, "x")
        assert join.state_size() == 1  # only the right insert is stored


class _DiffHandler(JoinDeltaHandler):
    """PRAgg-style: tracks a value per key on the handler side, emits the
    diff scaled across the opposite bucket."""

    def update(self, left_bucket, right_bucket, delta, side):
        key, value = delta.row
        prev = right_bucket[0][1] if right_bucket else 0.0
        if right_bucket:
            right_bucket[0] = (key, value)
        else:
            right_bucket.append((key, value))
        diff = value - prev
        return [update((nbr,), payload=diff / max(len(left_bucket), 1))
                for _, nbr in left_bucket]


class TestJoinHandler:
    def test_handler_receives_buckets_and_emits(self):
        join, sink = make_join(handler=_DiffHandler(), handler_side=RIGHT)
        join.receive(insert((1, 10)), LEFT)   # edge 1 -> 10
        join.receive(insert((1, 11)), LEFT)   # edge 1 -> 11
        join.receive(update((1, 1.0), payload=None), RIGHT)
        assert len(sink.deltas) == 2
        assert all(d.op is DeltaOp.UPDATE for d in sink.deltas)
        assert sink.deltas[0].payload == pytest.approx(0.5)

    def test_handler_state_persists_across_deltas(self):
        join, sink = make_join(handler=_DiffHandler(), handler_side=RIGHT)
        join.receive(insert((1, 10)), LEFT)
        join.receive(update((1, 1.0), payload=None), RIGHT)
        sink.clear()
        join.receive(update((1, 1.5), payload=None), RIGHT)
        assert sink.deltas[0].payload == pytest.approx(0.5)

    def test_non_handler_side_uses_standard_rules(self):
        join, sink = make_join(handler=_DiffHandler(), handler_side=RIGHT)
        join.receive(insert((1, 10)), LEFT)
        assert sink.deltas == []  # plain insert, no right match yet


# ---------------------------------------------------------------------------
# Property: join delta stream == recomputed join of the surviving relations.
# ---------------------------------------------------------------------------

keys = st.integers(min_value=0, max_value=4)
payloads = st.integers(min_value=0, max_value=3)


@st.composite
def join_script(draw):
    """Interleaved legal insert/delete/replace histories for both sides."""
    live = ([], [])
    script = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        side = draw(st.integers(min_value=0, max_value=1))
        rows = live[side]
        action = draw(st.integers(min_value=0, max_value=2))
        if action == 0 or not rows:
            row = (draw(keys), draw(payloads), side)
            rows.append(row)
            script.append((insert(row), side))
        elif action == 1:
            row = rows.pop(draw(st.integers(0, len(rows) - 1)))
            script.append((delete(row), side))
        else:
            idx = draw(st.integers(0, len(rows) - 1))
            old = rows[idx]
            new = (draw(keys), draw(payloads), side)
            rows[idx] = new
            script.append((replace(old, new), side))
    return script, live


@given(join_script())
def test_join_deltas_equal_recomputation(script_and_live):
    script, live = script_and_live
    join, sink = make_join()
    for delta, side in script:
        join.receive(delta, side)
    # Materialize the emitted delta stream (bag semantics via counting).
    from collections import Counter
    bag = Counter()
    for d in sink.deltas:
        if d.op is DeltaOp.INSERT:
            bag[d.row] += 1
        elif d.op is DeltaOp.DELETE:
            bag[d.row] -= 1
        else:
            bag[d.old] -= 1
            bag[d.row] += 1
    expected = Counter(
        l + r for l in live[0] for r in live[1] if l[0] == r[0]
    )
    assert +bag == expected
