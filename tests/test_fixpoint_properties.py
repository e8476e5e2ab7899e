"""Property-based tests for the fixpoint operator's refinement semantics."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common import DeltaOp, delete, insert
from repro.operators import Fixpoint

from helpers import Capture, apply_deltas, wire


def run_keyed(deltas):
    fp = Fixpoint(key_fn=lambda r: (r[0],), semantics="keyed")
    wire(fp, Capture())
    admitted = []
    for d in deltas:
        fp.receive(d)
        admitted.extend(fp.take_pending())
    return fp, admitted


keys = st.integers(min_value=0, max_value=5)
values = st.integers(min_value=0, max_value=5)
rows = st.tuples(keys, values)


@st.composite
def keyed_script(draw):
    ops = []
    state = {}
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        row = draw(rows)
        if state and draw(st.booleans()) and draw(st.booleans()):
            key = draw(st.sampled_from(sorted(state)))
            ops.append(delete((key, state[key])))
            del state[key]
        else:
            ops.append(insert(row))
            state[row[0]] = row[1]
    return ops, state


class TestKeyedRefinementProperties:
    @given(keyed_script())
    def test_state_equals_last_write_per_key(self, script):
        """The while-relation is always the last-writer-wins map."""
        ops, expected = script
        fp, _ = run_keyed(ops)
        assert {k[0]: v[1] for k, v in fp.state.items()} == expected

    @given(keyed_script())
    def test_admitted_deltas_replay_to_state(self, script):
        """Applying the admitted delta stream to an empty set reproduces
        exactly the fixpoint's final relation — the invariant incremental
        checkpointing relies on (Section 4.3)."""
        ops, _ = script
        fp, admitted = run_keyed(ops)
        materialized = apply_deltas(set(), admitted)
        assert materialized == set(fp.state.values())

    @given(st.lists(rows, max_size=40))
    def test_idempotence_of_duplicate_inserts(self, row_list):
        """Re-inserting the current row for a key never admits anything:
        duplicate derivations are eliminated (Section 4.2)."""
        fp, _ = run_keyed([insert(r) for r in row_list])
        fp.take_pending()
        for row in set(fp.state.values()):
            fp.receive(insert(row))
        assert fp.take_pending() == []

    @given(st.lists(rows, min_size=1, max_size=40))
    def test_admission_count_bounded_by_input(self, row_list):
        fp, admitted = run_keyed([insert(r) for r in row_list])
        assert len(admitted) <= len(row_list)


class TestSetSemanticsProperties:
    @given(st.lists(rows, max_size=40))
    def test_set_admits_each_distinct_row_once(self, row_list):
        fp = Fixpoint(key_fn=None, semantics="set")
        wire(fp, Capture())
        for r in row_list:
            fp.receive(insert(r))
        admitted = fp.take_pending()
        assert len(admitted) == len(set(row_list))
        assert {d.row for d in admitted} == set(row_list)

    @given(st.lists(rows, max_size=40))
    def test_bag_admits_everything(self, row_list):
        fp = Fixpoint(key_fn=None, semantics="bag")
        wire(fp, Capture())
        for r in row_list:
            fp.receive(insert(r))
        assert len(fp.take_pending()) == len(row_list)
