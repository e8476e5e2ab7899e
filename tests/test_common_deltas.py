"""Unit tests for the delta (annotated tuple) model."""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import Delta, DeltaOp, delete, insert, replace, update
from repro.common.deltas import map_rows, run

from helpers import apply_deltas

rows = st.tuples(st.integers(), st.integers())


class TestConstruction:
    def test_insert(self):
        d = insert((1, 2))
        assert d.op is DeltaOp.INSERT
        assert d.row == (1, 2)
        assert d.old is None and d.payload is None

    def test_delete(self):
        d = delete((3,))
        assert d.op is DeltaOp.DELETE
        assert d.row == (3,)

    def test_replace_carries_old(self):
        d = replace((1, 10), (1, 20))
        assert d.op is DeltaOp.REPLACE
        assert d.row == (1, 20)
        assert d.old == (1, 10)

    def test_update_carries_payload(self):
        d = update((7,), payload=0.25)
        assert d.op is DeltaOp.UPDATE
        assert d.payload == 0.25

    def test_replace_requires_old(self):
        with pytest.raises(ValueError):
            Delta(DeltaOp.REPLACE, (1,))

    def test_insert_rejects_old(self):
        with pytest.raises(ValueError):
            Delta(DeltaOp.INSERT, (1,), old=(2,))

    def test_insert_rejects_payload(self):
        with pytest.raises(ValueError):
            Delta(DeltaOp.INSERT, (1,), payload=3)

    def test_rows_coerced_to_tuples(self):
        assert insert([1, 2]).row == (1, 2)

    def test_deltas_are_hashable_value_objects(self):
        assert insert((1,)) == insert((1,))
        assert len({insert((1,)), insert((1,)), delete((1,))}) == 2


class TestWithRow:
    def test_insert_with_row_keeps_annotation(self):
        d = insert((1, 2)).with_row((2,))
        assert d.op is DeltaOp.INSERT and d.row == (2,)

    def test_update_with_row_keeps_payload(self):
        d = update((1,), payload="E").with_row((9,))
        assert d.op is DeltaOp.UPDATE and d.payload == "E"

    def test_replace_with_row_requires_old(self):
        d = replace((1, 1), (1, 2))
        with pytest.raises(ValueError):
            d.with_row((2,))
        d2 = d.with_row((2,), old=(1,))
        assert d2.row == (2,) and d2.old == (1,)


class TestApplyDeltas:
    def test_insert_delete_replace(self):
        out = apply_deltas({(1,)}, [insert((2,)), delete((1,)),
                                    replace((2,), (3,))])
        assert out == {(3,)}

    def test_delete_of_absent_row_is_noop(self):
        assert apply_deltas(set(), [delete((9,))]) == set()

    def test_update_rejected(self):
        with pytest.raises(ValueError):
            apply_deltas(set(), [update((1,), payload=1)])

    @given(st.sets(rows, max_size=20), st.lists(rows, max_size=20))
    def test_insert_then_delete_cancels(self, base, extra):
        """Inserting rows then deleting them restores the base set."""
        deltas = [insert(r) for r in extra] + [delete(r) for r in extra]
        assert apply_deltas(base, deltas) == base - set(extra)

class TestRepr:
    """The repr is compact and annotation-explicit: the kind symbol leads,
    row images follow — Δ+(...), Δ-(...), Δ->(new|old=(...)), Δδ(...)."""

    def test_insert(self):
        assert repr(insert((1, 2))) == "Δ+(1,2)"

    def test_delete(self):
        assert repr(delete((1,))) == "Δ-(1)"

    def test_replace_shows_both_images(self):
        assert repr(replace((1, "a"), (1, "b"))) == "Δ->(1,'b'|old=(1,'a'))"

    def test_update_shows_payload(self):
        assert repr(update((3,), payload=0.5)) == "Δδ((3)|payload=0.5)"

    def test_annotation_symbol_leads(self):
        for d, sym in [(insert((1,)), "+"), (delete((1,)), "-"),
                       (replace((1,), (2,)), "->"),
                       (update((1,), payload=0), "δ")]:
            assert repr(d).startswith("Δ" + sym)

    def test_punctuation_repr(self):
        from repro.common.punctuation import Punctuation
        assert repr(Punctuation.end_of_stratum(3)) == "Punct(eos@3)"
        assert repr(Punctuation.end_of_query(7)) == "Punct(eoq@7)"


scalars = st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                    st.none(), st.text(max_size=4))
any_rows = st.lists(scalars, max_size=3).map(tuple)
payloads = st.one_of(st.none(), st.floats(allow_nan=False), st.integers(),
                     st.tuples(st.integers(), st.floats(allow_nan=False)))


@st.composite
def legal_deltas(draw):
    op = draw(st.sampled_from(list(DeltaOp)))
    row = draw(any_rows)
    if op is DeltaOp.REPLACE:
        return Delta(op, row, old=draw(any_rows))
    if op is DeltaOp.UPDATE:
        return Delta(op, row, payload=draw(payloads))
    return Delta(op, row)


def assert_same_deltas(got, expected):
    """Indistinguishable from the constructor's objects: type, equality,
    hash, repr and every field."""
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert type(g) is Delta
        assert g == e and hash(g) == hash(e) and repr(g) == repr(e)
        assert g.op is e.op
        assert g.row == e.row and g.old == e.old and g.payload == e.payload


def _flip(row):
    return tuple(reversed(row)) + (len(row),)


class TestRunConstructors:
    """``run`` and ``map_rows`` build whole runs with one legality check;
    their deltas must be the constructor's."""

    @settings(max_examples=50)
    @given(st.sampled_from(list(DeltaOp)), st.lists(any_rows, max_size=5),
           payloads)
    def test_run_is_the_constructor_per_row(self, op, rows, payload):
        legal = (op is not DeltaOp.REPLACE
                 and (payload is None or op is DeltaOp.UPDATE))
        if not legal:
            with pytest.raises(ValueError):
                Delta(op, (), payload=payload)
            with pytest.raises(ValueError):
                run(op, rows, payload)
            return
        expected = [Delta(op, row, payload=payload) for row in rows]
        assert_same_deltas(run(op, rows, payload), expected)
        assert_same_deltas(run(op, iter(rows), payload), expected)

    @settings(max_examples=50)
    @given(st.lists(legal_deltas(), max_size=6))
    def test_map_rows_is_with_row(self, deltas):
        expected = [d.with_row(_flip(d.row), old=_flip(d.old))
                    if d.op is DeltaOp.REPLACE else d.with_row(_flip(d.row))
                    for d in deltas]
        assert_same_deltas(map_rows(deltas, _flip), expected)

    def test_replace_runs_are_refused(self):
        with pytest.raises(ValueError, match="old="):
            run(DeltaOp.REPLACE, [(1,)])

    def test_payload_on_non_update_run_is_refused(self):
        for op in (DeltaOp.INSERT, DeltaOp.DELETE):
            with pytest.raises(ValueError, match="payload="):
                run(op, [(1,)], payload=0.5)

    @pytest.mark.parametrize("field", ["op", "row", "old", "payload"])
    def test_run_built_deltas_are_frozen(self, field):
        built = (run(DeltaOp.UPDATE, [(1,)], payload=0.5)
                 + map_rows([replace((1,), (2,))], _flip))
        for d in built:
            with pytest.raises(FrozenInstanceError):
                setattr(d, field, None)
