"""Property tests: ``push_batch`` is observationally identical to ``push``.

The batch-vectorized pipeline's contract is that pushing a batch through an
operator is *exactly* ``len(batch)`` per-delta receives in order: identical
output deltas, identical operator state, and an identical charge multiset on
the worker.  These tests drive randomized (seeded) delta streams through
each operator with a specialized ``push_batch`` in both modes and compare
everything observable.  Whole queries under ``ExecOptions(batch=True)`` and
``False`` are the ``per_tuple`` row of ``tests/test_equivalence.py``.
"""

import random

import pytest

from repro.cluster import CostModel, Worker
from repro.common.deltas import Delta, DeltaOp, delete, insert, replace, update
from repro.common.punctuation import Punctuation
from repro.operators import (
    ApplyFunction,
    ExecContext,
    Filter,
    Fixpoint,
    GroupBy,
    HashJoin,
    Project,
)
from repro.udf import AggregateSpec, ArgMin, Count, Sum
from repro.udf.aggregates import JoinDeltaHandler

from helpers import Capture

EOS = Punctuation.end_of_stratum


# -- randomized, always-valid delta streams ------------------------------

def gen_stream(rng, n, key_space=5, val_space=7, allow_update=False,
               allow_replace=True):
    """A random stream in which DELETE/REPLACE only target present rows."""
    live = []
    out = []
    for _ in range(n):
        roll = rng.random()
        if live and roll < 0.20:
            out.append(delete(live.pop(rng.randrange(len(live)))))
        elif live and allow_replace and roll < 0.40:
            old = live.pop(rng.randrange(len(live)))
            new = (rng.randrange(key_space), rng.randrange(val_space))
            live.append(new)
            out.append(replace(old, new))
        elif allow_update and roll < 0.55:
            out.append(update((rng.randrange(key_space),),
                              payload=rng.choice([1, 2.5, -1.25, 0.5])))
        else:
            row = (rng.randrange(key_space), rng.randrange(val_space))
            live.append(row)
            out.append(insert(row))
    return out


def tallies(worker):
    """The worker's raw charge tallies — the exact multiset of charges."""
    return (
        dict(worker._cpu_tally),
        dict(worker._disk_tally),
        dict(worker._net_in_tally),
        dict(worker._net_out_tally),
        worker.state_bytes,
    )


def run_one(make_op, strata, batch):
    """Feed ``strata`` (a list of per-stratum [(port, deltas)]) through a
    fresh operator in one mode; return every observable."""
    worker = Worker(0, CostModel())
    ctx = ExecContext(worker, batch=batch)
    op, state_fn, ports = make_op()
    sink = Capture()
    sink.add_input(op)
    op.open(ctx)
    sink.open(ctx)
    for stratum, feeds in enumerate(strata):
        for port, deltas in feeds:
            if batch:
                op.push_batch(list(deltas), port)
            else:
                for d in deltas:
                    op.receive(d, port)
        for port in ports:
            op.on_punctuation(EOS(stratum), port)
    return sink.deltas, state_fn(op), tallies(worker)


def assert_equivalent(make_op, strata):
    out_t, state_t, charges_t = run_one(make_op, strata, batch=False)
    out_b, state_b, charges_b = run_one(make_op, strata, batch=True)
    assert out_t == out_b, "output deltas diverge between push and push_batch"
    assert state_t == state_b, "operator state diverges"
    assert charges_t == charges_b, "worker charge multiset diverges"


def split_strata(rng, stream, n_strata):
    """Partition a stream into per-stratum chunks (some possibly empty)."""
    cuts = sorted(rng.randrange(len(stream) + 1) for _ in range(n_strata - 1))
    chunks = []
    prev = 0
    for cut in cuts + [len(stream)]:
        chunks.append(stream[prev:cut])
        prev = cut
    return chunks


# -- per-operator equivalence -------------------------------------------

@pytest.mark.parametrize("seed", range(5))
def test_filter_batch_equivalence(seed):
    rng = random.Random(seed)
    stream = gen_stream(rng, 120)

    def make_op():
        f = Filter(lambda r: r[1] % 2 == 0)
        return f, lambda op: None, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 3)])


@pytest.mark.parametrize("seed", range(5))
def test_project_batch_equivalence(seed):
    rng = random.Random(100 + seed)
    stream = gen_stream(rng, 120, allow_update=True, allow_replace=False)

    def make_op():
        p = Project(lambda r: (r[0], r[-1] * 10))
        return p, lambda op: None, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 3)])


@pytest.mark.parametrize("seed", range(5))
def test_apply_function_batch_equivalence(seed):
    rng = random.Random(200 + seed)
    stream = gen_stream(rng, 80)

    def double(x):
        return x * 2

    def make_op():
        a = ApplyFunction(double, arg_fn=lambda r: (r[1],), mode="extend")
        return a, lambda op: op.calls, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 2)])


def modes_and_seeds(n):
    """``(mode, seed)`` cases for a group-by test; stratum-mode cases keep
    the bare seed as their id."""
    return [pytest.param(mode, seed,
                         id=str(seed) if mode == "stratum" else f"{mode}-{seed}")
            for mode in ("stratum", "stream") for seed in range(n)]


def groupby_state(op):
    return {k: (g.live, g.last, [dict(s) if isinstance(s, dict) else s
                                 for s in g.states])
            for k, g in op.groups.items()}


@pytest.mark.parametrize("mode,seed", modes_and_seeds(5))
def test_groupby_batch_equivalence(mode, seed):
    rng = random.Random(300 + seed)
    stream = gen_stream(rng, 150, allow_update=True)

    def make_op():
        gb = GroupBy(key_fn=lambda r: (r[0],), mode=mode,
                     specs=[AggregateSpec(Sum(), arg=lambda r: r[1],
                                          output="s")])
        return gb, groupby_state, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 4)])


@pytest.mark.parametrize("mode,seed", modes_and_seeds(3))
def test_groupby_multi_spec_batch_equivalence(mode, seed):
    rng = random.Random(400 + seed)
    stream = gen_stream(rng, 100, allow_update=False)

    def state(op):
        return {k: (g.live, g.last) for k, g in op.groups.items()}

    def make_op():
        gb = GroupBy(key_fn=lambda r: (r[0],), mode=mode,
                     specs=[AggregateSpec(Sum(), arg=lambda r: r[1],
                                          output="s"),
                            AggregateSpec(Count(), output="c")])
        return gb, state, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 3)])


@pytest.mark.parametrize("seed", range(3))
def test_groupby_stream_sum_update_fast_path(seed):
    """Single ``Sum`` over δ-UPDATEs, flushed per delta: the template's
    exact int/float test, with bool payloads taking its isinstance test."""
    rng = random.Random(450 + seed)
    stream = [update((rng.randrange(4),),
                     payload=rng.choice([1, 2.5, -1.25, True]))
              for _ in range(80)]

    def make_op():
        gb = GroupBy(key_fn=lambda r: (r[0],), mode="stream",
                     specs=[AggregateSpec(Sum(), arg=lambda r: r[1])])
        return gb, groupby_state, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 3)])


@pytest.mark.parametrize("seed", range(3))
def test_groupby_stream_argmin_insert_fast_path(seed):
    """Single ``ArgMin`` over INSERTs (the template's inlined multiset
    add), interleaved with deletes (its ``remove`` call)."""
    rng = random.Random(470 + seed)
    stream = gen_stream(rng, 100, key_space=3, allow_replace=False)

    def state(op):
        return {k: (g.live, g.last) for k, g in op.groups.items()}

    def make_op():
        gb = GroupBy(key_fn=lambda r: (r[0] % 2,), mode="stream",
                     specs=[AggregateSpec(ArgMin(),
                                          arg=lambda r: (r[0], r[1]))])
        return gb, state, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 3)])


@pytest.mark.parametrize("mode", ["stratum", "stream"])
def test_groupby_zero_specs_batch_equivalence(mode):
    """No aggregates: a group is its key, live while it has members."""
    rng = random.Random(490)
    stream = gen_stream(rng, 100, key_space=4)

    def state(op):
        return {k: (g.live, g.last) for k, g in op.groups.items()}

    def make_op():
        gb = GroupBy(key_fn=lambda r: (r[0],), specs=[], mode=mode)
        return gb, state, [0]

    assert_equivalent(make_op, [[(0, chunk)]
                                for chunk in split_strata(rng, stream, 3)])


@pytest.mark.parametrize("seed", range(5))
def test_hashjoin_batch_equivalence(seed):
    rng = random.Random(500 + seed)
    left = gen_stream(rng, 60, key_space=4)
    right = gen_stream(rng, 60, key_space=4)

    def make_op():
        j = HashJoin(left_key=lambda r: (r[0],), right_key=lambda r: (r[0],),
                     handler=None)
        return j, lambda op: dict(op.buckets), [0, 1]

    chunks_l = split_strata(rng, left, 2)
    chunks_r = split_strata(rng, right, 2)
    strata = [[(0, cl), (1, cr)] for cl, cr in zip(chunks_l, chunks_r)]
    assert_equivalent(make_op, strata)


class _SummingHandler(JoinDeltaHandler):
    """Minimal PRAgg-shaped handler: accumulates on the right bucket and
    fans an UPDATE out per left row."""

    name = "SummingHandler"

    def update(self, left_bucket, right_bucket, delta, side):
        if delta.op is DeltaOp.INSERT and side == 0:
            left_bucket.append(delta.row)
            return []
        total = (right_bucket.pop()[0] if right_bucket else 0.0)
        total += delta.row[1]
        right_bucket.append((total,))
        return [Delta(DeltaOp.UPDATE, (row[1],), payload=total)
                for row in left_bucket]


@pytest.mark.parametrize("seed", range(5))
def test_hashjoin_handler_batch_equivalence(seed):
    rng = random.Random(600 + seed)
    edges = [insert((rng.randrange(4), rng.randrange(6))) for _ in range(30)]
    probes = [insert((rng.randrange(4), rng.random())) for _ in range(60)]

    def make_op():
        j = HashJoin(left_key=lambda r: (r[0],), right_key=lambda r: (r[0],),
                     handler=_SummingHandler(), handler_side=None)
        return j, lambda op: dict(op.buckets), [0, 1]

    strata = [[(0, edges)], [(1, probes)]]
    assert_equivalent(make_op, strata)


@pytest.mark.parametrize("seed", range(5))
def test_fixpoint_keyed_batch_equivalence(seed):
    rng = random.Random(700 + seed)
    stream = gen_stream(rng, 120, key_space=6)

    def state(op):
        return (dict(op.state), list(op.pending), op.admitted_this_stratum)

    def make_op():
        fp = Fixpoint(key_fn=lambda r: (r[0],), semantics="keyed")
        return fp, state, []

    # No punctuation: the fixpoint's pending set is drained by the driver,
    # so compare it directly after the pushes.
    assert_equivalent(make_op, [[(0, stream)]])


@pytest.mark.parametrize("semantics", ["set", "bag"])
def test_fixpoint_other_semantics_batch_equivalence(semantics):
    rng = random.Random(42)
    stream = [insert((rng.randrange(5), rng.randrange(3)))
              for _ in range(80)]

    def state(op):
        return (list(op.pending), op.admitted_this_stratum)

    def make_op():
        fp = Fixpoint(semantics=semantics)
        return fp, state, []

    assert_equivalent(make_op, [[(0, stream)]])


# -- dataclass layout satellites ----------------------------------------

def test_delta_and_punctuation_are_slotted_frozen():
    d = insert((1, 2))
    assert not hasattr(d, "__dict__")
    with pytest.raises(Exception):
        d.row = (3,)
    p = EOS(0)
    assert not hasattr(p, "__dict__")
    with pytest.raises(Exception):
        p.stratum = 5


def test_delta_validation_still_enforced():
    with pytest.raises(ValueError):
        Delta(DeltaOp.REPLACE, (1,))                  # missing old
    with pytest.raises(ValueError):
        Delta(DeltaOp.INSERT, (1,), old=(2,))         # stray old
    with pytest.raises(ValueError):
        Delta(DeltaOp.INSERT, (1,), payload=3)        # stray payload
