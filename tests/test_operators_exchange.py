"""Unit tests for the rehash sender/receiver pair on a live fabric."""

import pytest

from repro.cluster import Cluster
from repro.common import DeltaOp, insert, replace
from repro.common.punctuation import Punctuation
from repro.operators import ExchangeReceiver, ExecContext, RehashSender

from helpers import Capture


def make_exchange(n_nodes=3, batch_size=2, broadcast=False, key_fn=None,
                  batch=False):
    """One sender on node 0; receivers + captures on every node."""
    cluster = Cluster(n_nodes)
    snapshot = cluster.ring.snapshot()
    captures = {}
    for node in cluster.node_ids():
        ctx = ExecContext(cluster.worker(node), cluster=cluster,
                          snapshot=snapshot)
        recv = ExchangeReceiver("x", expected_senders=1)
        sink = Capture()
        sink.add_input(recv)
        recv.open(ctx)
        sink.open(ctx)
        captures[node] = sink
    sender_ctx = ExecContext(cluster.worker(0), cluster=cluster,
                             snapshot=snapshot, batch=batch)
    sender = RehashSender("x", key_fn=key_fn or (lambda r: (r[0],)),
                          batch_size=batch_size, broadcast=broadcast)
    sender.open(sender_ctx)
    return cluster, snapshot, sender, captures


class TestRouting:
    def test_rows_land_on_primary(self):
        cluster, snapshot, sender, captures = make_exchange()
        for i in range(20):
            sender.receive(insert((i, i * 10)))
        sender.on_punctuation(Punctuation.end_of_stratum(0))
        cluster.network.drain()
        for node, sink in captures.items():
            for row in sink.rows():
                assert snapshot.primary(row[0]) == node

    def test_all_rows_delivered_exactly_once(self):
        cluster, _, sender, captures = make_exchange()
        rows = [(i, i) for i in range(31)]  # not a batch multiple
        for row in rows:
            sender.receive(insert(row))
        sender.on_punctuation(Punctuation.end_of_stratum(0))
        cluster.network.drain()
        got = sorted(r for sink in captures.values() for r in sink.rows())
        assert got == rows

    def test_punctuation_reaches_every_receiver(self):
        cluster, _, sender, captures = make_exchange()
        sender.on_punctuation(Punctuation.end_of_stratum(0))
        cluster.network.drain()
        for sink in captures.values():
            assert sink.puncts == [Punctuation.end_of_stratum(0)]

    def test_replace_with_moved_key_splits(self):
        cluster, snapshot, sender, captures = make_exchange(batch_size=1)
        # Find two keys owned by different nodes.
        a = 0
        b = next(k for k in range(1, 100)
                 if snapshot.primary(k) != snapshot.primary(a))
        sender.receive(insert((a, "v")))
        sender.receive(replace((a, "v"), (b, "v")))
        sender.on_punctuation(Punctuation.end_of_stratum(0))
        cluster.network.drain()
        delete_home = captures[snapshot.primary(a)]
        insert_home = captures[snapshot.primary(b)]
        assert DeltaOp.DELETE in [d.op for d in delete_home.deltas]
        assert (b, "v") in insert_home.rows()

    def test_broadcast_reaches_all(self):
        cluster, _, sender, captures = make_exchange(broadcast=True,
                                                     key_fn=None)
        sender.receive(insert((7, "c")))
        sender.on_punctuation(Punctuation.end_of_stratum(0))
        cluster.network.drain()
        for sink in captures.values():
            assert sink.rows() == [(7, "c")]


class TestBatchRoutesLikePerTuple:
    """``push_batch`` and ``receive`` make the same three calls per row —
    key function, ``snapshot.primary``, ``row_bytes`` — so they agree on
    every destination, whatever the key's type or the snapshot's state."""

    # True == 1 and False == 0 as dict keys, but not on the ring.
    ROWS = [(1, "a"), (True, "a"), (0, "b"), (False, "b")]

    def _route(self, batch, fail_owner_of=None):
        """Rows buffered per destination after routing ``ROWS`` (a second
        time, if a node is failed after the first pass was flushed)."""
        cluster, snapshot, sender, _ = make_exchange(
            n_nodes=8, batch_size=64, batch=batch)
        deltas = [insert(row) for row in self.ROWS]

        def feed():
            if batch:
                sender.push_batch(deltas)
            else:
                for delta in deltas:
                    sender.receive(delta)

        feed()
        if fail_owner_of is not None:
            sender.on_punctuation(Punctuation.end_of_stratum(0))
            cluster.network.drain()
            snapshot.mark_failed(snapshot.primary(fail_owner_of))
            feed()
        return snapshot, {dst: [d.row for d in buf]
                          for dst, buf in sender._buffers.items()}

    def test_equal_keys_of_different_type(self):
        snapshot, batched = self._route(batch=True)
        _, per_tuple = self._route(batch=False)
        assert batched == per_tuple
        assert snapshot.primary(True) != snapshot.primary(1)
        for dst, rows in batched.items():
            assert all(snapshot.primary(row[0]) == dst for row in rows)

    def test_failed_owner_reroutes_to_takeover(self):
        owner = Cluster(8).ring.snapshot().primary(1)
        snapshot, batched = self._route(batch=True, fail_owner_of=1)
        _, per_tuple = self._route(batch=False, fail_owner_of=1)
        assert batched == per_tuple
        takeover = snapshot.primary(1)
        assert takeover != owner and owner not in batched
        assert (1, "a") in batched[takeover]


class TestPunctuationCounting:
    def test_receiver_waits_for_all_senders(self):
        cluster = Cluster(1)
        snapshot = cluster.ring.snapshot()
        ctx = ExecContext(cluster.worker(0), cluster=cluster,
                          snapshot=snapshot)
        recv = ExchangeReceiver("x", expected_senders=3)
        sink = Capture()
        sink.add_input(recv)
        recv.open(ctx)
        sink.open(ctx)
        from repro.net import Message

        for i in range(2):
            recv.handle_message(Message(src=i, dst=0, exchange="x",
                                        punct=Punctuation.end_of_stratum(0)))
        assert sink.puncts == []
        recv.handle_message(Message(src=2, dst=0, exchange="x",
                                    punct=Punctuation.end_of_stratum(0)))
        assert len(sink.puncts) == 1

    def test_expected_senders_adjustable(self):
        cluster = Cluster(1)
        ctx = ExecContext(cluster.worker(0), cluster=cluster,
                          snapshot=cluster.ring.snapshot())
        recv = ExchangeReceiver("x", expected_senders=3)
        sink = Capture()
        sink.add_input(recv)
        recv.open(ctx)
        sink.open(ctx)
        recv.set_expected_senders(1)
        from repro.net import Message

        recv.handle_message(Message(src=0, dst=0, exchange="x",
                                    punct=Punctuation.end_of_stratum(0)))
        assert len(sink.puncts) == 1
