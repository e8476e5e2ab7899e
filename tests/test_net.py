"""Unit tests for the simulated network fabric."""

import pytest

from repro.common import insert, replace, update
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.net import Message, SimulatedNetwork


def msg(src=0, dst=1, exchange="x", deltas=None, punct=None, meta=None):
    return Message(src=src, dst=dst, exchange=exchange, deltas=deltas,
                   punct=punct, meta=meta)


class TestMessageSize:
    def test_punct_message_fixed_size(self):
        m = msg(punct=Punctuation.end_of_stratum(0))
        assert m.size_bytes() == 16

    def test_delta_batch_size_grows(self):
        one = msg(deltas=[insert((1, 2.0))]).size_bytes()
        two = msg(deltas=[insert((1, 2.0)), insert((3, 4.0))]).size_bytes()
        assert two > one

    def test_replace_counts_both_images(self):
        ins = msg(deltas=[insert((1, 2.0))]).size_bytes()
        rep = msg(deltas=[replace((1, 1.0), (1, 2.0))]).size_bytes()
        assert rep > ins

    def test_update_counts_payload(self):
        bare = msg(deltas=[insert((1,))]).size_bytes()
        upd = msg(deltas=[update((1,), payload=3.5)]).size_bytes()
        assert upd > bare


class TestDeliveryAndAccounting:
    def test_fifo_dispatch(self):
        net = SimulatedNetwork()
        seen = []
        net.register(1, "x", lambda m: seen.append(m.meta))
        net.send(msg(meta="a"))
        net.send(msg(meta="b"))
        assert net.drain() == 2
        assert seen == ["a", "b"]

    def test_local_sends_free(self):
        net = SimulatedNetwork()
        net.register(0, "x", lambda m: None)
        net.send(msg(src=0, dst=0))
        assert net.total_bytes == 0
        assert net.drain() == 1  # still delivered

    def test_remote_bytes_counted(self):
        net = SimulatedNetwork()
        net.register(1, "x", lambda m: None)
        net.send(msg(deltas=[insert((1, 2.0))]))
        assert net.total_bytes > 0
        assert net.bytes_by_node[0] == net.total_bytes
        assert net.links[(0, 1)].messages == 1

    def test_on_bytes_callback(self):
        calls = []
        net = SimulatedNetwork(on_bytes=lambda s, d, b: calls.append((s, d, b)))
        net.register(1, "x", lambda m: None)
        net.send(msg())
        assert calls and calls[0][:2] == (0, 1)

    def test_duplicate_registration_rejected(self):
        net = SimulatedNetwork()
        net.register(1, "x", lambda m: None)
        with pytest.raises(ExecutionError):
            net.register(1, "x", lambda m: None)

    def test_unknown_handler_raises_at_dispatch(self):
        net = SimulatedNetwork()
        net.send(msg())
        with pytest.raises(ExecutionError):
            net.drain()

    def test_handlers_may_send_more(self):
        net = SimulatedNetwork()
        hops = []

        def relay(m):
            hops.append(m.dst)
            if m.dst == 1:
                net.send(msg(src=1, dst=2, exchange="x"))

        net.register(1, "x", relay)
        net.register(2, "x", relay)
        net.send(msg())
        assert net.drain() == 2
        assert hops == [1, 2]

    def test_unregister_exchanges_drops_handlers_and_their_mail(self):
        net = SimulatedNetwork()
        delivered = []
        for node in (1, 2):
            net.register(node, "x", delivered.append)
            net.register(node, "y", delivered.append)
        net.send(msg(dst=1, exchange="x"))
        net.send(msg(dst=2, exchange="y"))
        net.unregister_exchanges(["x"])
        assert sorted(net._handlers) == [(1, "y"), (2, "y")]
        assert net.drain() == 1
        assert [m.exchange for m in delivered] == ["y"]
        net.register(1, "x", delivered.append)  # the name is free again


class _Recorder:
    """A network observer that keeps what it is told."""

    def __init__(self):
        self.sent, self.delivered, self.dropped = [], [], []

    def on_send(self, m, nbytes):
        self.sent.append((m.src, m.dst, nbytes))

    def on_deliver(self, m):
        self.delivered.append(m)

    def on_drop(self, m):
        self.dropped.append(m)


class TestPunctFanout:
    @pytest.mark.parametrize("observed", [False, True])
    def test_matches_individual_sends(self, observed):
        """The bulk broadcast queues, counts and charges what one
        ``send`` per destination would, and an observer sees each
        message once."""
        punct = Punctuation.end_of_stratum(0)
        nets = []
        for bulk in (False, True):
            charges = []
            net = SimulatedNetwork(
                on_bytes=lambda s, d, n, c=charges: c.append((s, d, n)))
            if observed:
                net.observer = _Recorder()
            if bulk:
                net.send_punct_fanout(1, [0, 1, 2], "x", punct)
            else:
                for dst in (0, 1, 2):
                    net.send(msg(src=1, dst=dst, punct=punct))
            nets.append((net, sorted(charges)))
        (single, single_charges), (bulk, bulk_charges) = nets
        assert ([(m.src, m.dst) for m in bulk._queue]
                == [(m.src, m.dst) for m in single._queue])
        assert bulk_charges == single_charges
        assert bulk.total_bytes == single.total_bytes == 32
        assert bulk.bytes_by_node == single.bytes_by_node
        assert bulk.links == single.links
        if observed:
            assert bulk.observer.sent == single.observer.sent == [
                (1, 0, 16), (1, 1, 0), (1, 2, 16)]


class TestDeadNodes:
    def test_dead_node_cannot_send(self):
        net = SimulatedNetwork()
        net.register(1, "x", lambda m: None)
        net.unregister_node(0)
        net.send(msg(src=0, dst=1))
        assert not net._queue
        assert net.total_bytes == 0

    def test_mail_for_the_dead_dropped(self):
        net = SimulatedNetwork()
        net.register(1, "x", lambda m: None)
        net.send(msg())
        net.unregister_node(1)
        net.observer = _Recorder()
        assert net.drain() == 0
        assert not net._queue
        assert [(m.src, m.dst) for m in net.observer.dropped] == [(0, 1)]
        assert net.observer.delivered == []
