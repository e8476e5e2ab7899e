"""Unit + property tests for stable hashing and the consistent-hash ring."""

import bisect
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ReproError
from repro.storage import HashRing, stable_hash

keys = st.one_of(st.integers(), st.text(max_size=20), st.booleans(),
                 st.tuples(st.integers(), st.integers()))


class TestStableHash:
    @given(keys)
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    def test_int_float_key_equivalence(self):
        """SQL key semantics: partitioning must not split 1 and 1.0."""
        assert stable_hash(1) == stable_hash(1.0)
        assert stable_hash(-3) == stable_hash(-3.0)

    def test_distinct_types_distinct_hashes(self):
        assert stable_hash(1) != stable_hash("1")
        assert stable_hash(True) != stable_hash(1)

    def test_none_hashes(self):
        assert stable_hash(None) == stable_hash(None)

    def test_tuple_hash_order_sensitive(self):
        assert stable_hash((1, 2)) != stable_hash((2, 1))

    @given(st.integers())
    def test_64_bit_range(self, key):
        assert 0 <= stable_hash(key) < (1 << 64)


@functools.lru_cache(maxsize=None)
def ring_points(nodes, virtual_nodes=64):
    return sorted((stable_hash(("vnode", node, v)), node)
                  for node in nodes for v in range(virtual_nodes))


def reference_walk(nodes, key, virtual_nodes=64):
    """Brute-force oracle sharing no code with ``storage/hashing.py``:
    every node in the order first met clockwise of ``key``'s hash.  The
    one rule it restates is the spec's: a 1-tuple places like its
    scalar."""
    if isinstance(key, tuple) and len(key) == 1:
        key = key[0]
    points = ring_points(tuple(nodes), virtual_nodes)
    start = bisect.bisect([point for point, _ in points], stable_hash(key))
    order = []
    for i in range(len(points)):
        node = points[(start + i) % len(points)][1]
        if node not in order:
            order.append(node)
    return order


NODES = tuple(range(5))
RING = HashRing(NODES)
scalars = st.one_of(
    st.integers(-50, 50), st.integers(-50, 50).map(float),
    st.floats(allow_nan=False), st.booleans(), st.text(max_size=6),
    st.none())
placement_keys = st.one_of(
    scalars, st.tuples(scalars), st.tuples(scalars, scalars),
    st.tuples(st.tuples(scalars)))
# Every subset of failed nodes that leaves one alive.
dead_subsets = st.sets(st.sampled_from(NODES), max_size=len(NODES) - 1)


class TestHashRing:
    def test_requires_nodes(self):
        with pytest.raises(ReproError):
            HashRing([])

    def test_primary_is_first_replica(self):
        snap = HashRing(range(4)).snapshot()
        for k in range(50):
            assert snap.primary(k) == snap.preference(k)[0]

    def test_replicas_distinct(self):
        snap = HashRing(range(5)).snapshot()
        for k in range(50):
            reps = snap.preference(k)[:3]
            assert len(reps) == len(set(reps)) == 3

    def test_replication_clipped_to_cluster_size(self):
        snap = HashRing(range(2)).snapshot()
        assert sorted(snap.preference("k")) == [0, 1]

    def test_duplicate_node_rejected(self):
        with pytest.raises(ReproError):
            HashRing([0, 1, 0])

    def test_balance(self):
        """No node should own a wildly disproportionate share of keys."""
        snap = HashRing(range(8), virtual_nodes=128).snapshot()
        counts = {n: 0 for n in range(8)}
        total = 4000
        for k in range(total):
            counts[snap.primary(k)] += 1
        for n, c in counts.items():
            assert 0.4 * total / 8 < c < 2.2 * total / 8, (n, counts)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_monotonicity_on_node_removal(self, key):
        """Losing a node only moves keys that node owned (consistency)."""
        snap = HashRing(range(6)).snapshot()
        before = snap.primary(key)
        snap.mark_failed(3)
        after = snap.primary(key)
        if before != 3:
            assert after == before

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_failed_primary_falls_to_old_replica(self, key):
        """The takeover node for a key was already in its replica set."""
        snap = HashRing(range(6)).snapshot()
        replicas_before = snap.preference(key)[:3]
        snap.mark_failed(replicas_before[0])
        assert snap.primary(key) == replicas_before[1]

    @given(placement_keys, dead_subsets)
    def test_mark_failed_places_like_ring_without_the_nodes(self, key, dead):
        """Points depend only on ``(node, v)``, so a snapshot with nodes
        marked failed and a ring never given them are the same placement
        (what ``remove_node`` used to promise, now tying the two)."""
        snap = RING.snapshot()
        for node in dead:
            snap.mark_failed(node)
        survivors = [n for n in NODES if n not in dead]
        without = HashRing(survivors).snapshot()
        assert snap.live_nodes() == survivors == list(without.nodes)
        assert snap.primary(key) == without.primary(key)
        assert ([n for n in snap.preference(key) if n not in dead]
                == list(without.preference(key)))


class TestRingSnapshot:
    def test_snapshots_do_not_share_failures(self):
        """The slot table is the ring's and shared; liveness is not."""
        first = RING.snapshot()
        owners_before = {k: first.primary(k) for k in range(100)}
        second = RING.snapshot()
        second.mark_failed(2)
        assert {k: first.primary(k) for k in range(100)} == owners_before
        assert first.live_nodes() == list(NODES)
        assert RING.snapshot().live_nodes() == list(NODES)

    def test_mark_failed_reroutes(self):
        snap = HashRing(range(4)).snapshot()
        victims = [k for k in range(200) if snap.primary(k) == 2]
        assert victims, "expected node 2 to own some keys"
        snap.mark_failed(2)
        assert 2 not in snap.live_nodes()
        for k in victims:
            assert snap.primary(k) != 2

    def test_original_replicas_ignore_failure(self):
        snap = HashRing(range(4)).snapshot()
        orig = snap.preference("some-key")[:3]
        snap.mark_failed(orig[0])
        assert snap.preference("some-key")[:3] == orig

    def test_all_failed_raises(self):
        snap = RING.snapshot()
        for node in NODES:
            snap.mark_failed(node)
        for key in ("k", 1, (1,), (1, "a"), None):
            with pytest.raises(ReproError):
                snap.primary(key)
            # Who *held* the key is still answerable.
            assert list(snap.preference(key)) == reference_walk(NODES, key)

    @given(st.lists(placement_keys, min_size=1, max_size=8), dead_subsets)
    def test_every_view_agrees_with_the_oracle(self, keys, dead):
        """One snapshot answers a run of keys (so equal-but-differently-
        typed keys meet in its memo), before and after the failures."""
        snap = RING.snapshot()
        for failed in (set(), dead):
            for node in failed:
                snap.mark_failed(node)
            for key in keys:
                order = reference_walk(NODES, key)
                live = [n for n in order if n not in failed]
                assert snap.preference(key) == tuple(order)
                assert snap.primary(key) == live[0]

    @pytest.mark.parametrize("first, second", itertools.permutations(
        [1, True, 1.0, (1,), (True,), ((1,),)], 2))
    def test_equal_keys_of_different_type_keep_their_own_place(
            self, first, second):
        """``True == 1 == 1.0`` as dict keys; on the ring only ``1`` and
        ``1.0`` share a point.  Whichever is asked first must not answer
        for the other (the PR 21 trap, behind the one type rule)."""
        snap = HashRing(range(8)).snapshot()
        for key in (first, second, first):
            assert list(snap.preference(key)) == reference_walk(
                range(8), key)
        assert snap.primary(True) != snap.primary(1) == snap.primary(1.0)

    @given(scalars, dead_subsets)
    def test_one_tuple_places_like_its_scalar(self, value, dead):
        snap = RING.snapshot()
        for node in dead:
            snap.mark_failed(node)
        assert snap.preference((value,)) == snap.preference(value)
        assert snap.primary((value,)) == snap.primary(value)


# Keys equal as dict keys but not all equal on the ring.
mixed_keys = st.one_of(
    st.sampled_from([1, True, 1.0, (1,), (True,), ((1,),), None, "1", "a"]),
    placement_keys)


class TestPrimaries:
    """``primaries`` is the rehash sender's batch view of ``primary``."""

    @settings(max_examples=50)
    @given(st.lists(mixed_keys, max_size=12),
           st.sets(st.sampled_from(NODES), min_size=1,
                   max_size=len(NODES) - 1))
    def test_batch_view_equals_primary_per_key(self, keys, dead):
        snap = RING.snapshot()
        for failed in (set(), dead):
            for node in failed:
                snap.mark_failed(node)
            expected = [next(n for n in reference_walk(NODES, key)
                             if n not in failed) for key in keys]
            assert snap.primaries(keys) == expected
            assert [snap.primary(key) for key in keys] == expected

    def test_no_live_nodes_raises(self):
        snap = RING.snapshot()
        assert snap.primaries([]) == []
        for node in NODES:
            snap.mark_failed(node)
        with pytest.raises(ReproError):
            snap.primaries([1])
