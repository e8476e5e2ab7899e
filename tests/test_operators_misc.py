"""Tests for Union, Collect batching, ResultSink multiset semantics."""

import pytest

from repro.cluster import Cluster
from repro.common import delete, insert, replace
from repro.common.punctuation import Punctuation
from repro.net import Message
from repro.operators import (
    Collect,
    ExecContext,
    GroupBy,
    ResultSink,
    Union,
)
from repro.operators.misc import REQUESTOR_NODE
from repro.udf import AggregateSpec, Sum

from helpers import Capture, wire


class TestUnion:
    def test_passthrough_both_ports(self):
        sink = Capture()
        union = Union()
        left = Capture()  # placeholders to allocate ports
        union.add_input(left)
        right = Capture()
        union.add_input(right)
        sink.add_input(union)
        wire(union, sink)  # re-opens; ports already allocated
        union.receive(insert((1,)), 0)
        union.receive(insert((2,)), 1)
        assert sorted(sink.rows()) == [(1,), (2,)]

    def test_punctuation_waits_for_all_ports(self):
        sink = Capture()
        union = Union()
        union.add_input(Capture())
        union.add_input(Capture())
        wire(union, sink)
        union.on_punctuation(Punctuation.end_of_stratum(0), 0)
        assert sink.puncts == []
        union.on_punctuation(Punctuation.end_of_stratum(0), 1)
        assert len(sink.puncts) == 1


class TestCollect:
    def make(self, batch_size=3):
        cluster = Cluster(1)
        ctx = ExecContext(cluster.worker(0), cluster=cluster,
                          snapshot=cluster.ring.snapshot())
        sink = ResultSink(cluster.network, exchange="c", expected_workers=1)
        collect = Collect(exchange="c", batch_size=batch_size)
        collect.open(ctx)
        return cluster, collect, sink

    def test_batches_at_threshold(self):
        cluster, collect, sink = self.make(batch_size=2)
        collect.receive(insert((1,)))
        assert not cluster.network._queue  # buffered
        collect.receive(insert((2,)))
        assert len(cluster.network._queue) == 1  # flushed as one batch

    def test_punctuation_flushes_remainder(self):
        cluster, collect, sink = self.make(batch_size=100)
        collect.receive(insert((1,)))
        collect.on_punctuation(Punctuation.end_of_query(0))
        cluster.network.drain()
        assert sink.rows() == [(1,)]
        assert sink.done


class TestResultSink:
    def deliver(self, sink, deltas):
        sink.handle_message(Message(src=0, dst=REQUESTOR_NODE, exchange="c",
                                    deltas=deltas))

    def make(self, expected=1):
        cluster = Cluster(1)
        return ResultSink(cluster.network, exchange="c",
                          expected_workers=expected)

    def test_multiset_counting(self):
        sink = self.make()
        self.deliver(sink, [insert((1,)), insert((1,)), insert((2,))])
        assert sorted(sink.rows()) == [(1,), (1,), (2,)]

    def test_delete_removes_one_copy(self):
        sink = self.make()
        self.deliver(sink, [insert((1,)), insert((1,)), delete((1,))])
        assert sink.rows() == [(1,)]

    def test_replace_swaps(self):
        sink = self.make()
        self.deliver(sink, [insert((1,)), replace((1,), (9,))])
        assert sink.rows() == [(9,)]

    def test_done_requires_all_workers(self):
        sink = self.make(expected=2)
        punct = Message(src=0, dst=REQUESTOR_NODE, exchange="c",
                        punct=Punctuation.end_of_query(0))
        sink.handle_message(punct)
        assert not sink.done
        sink.handle_message(Message(src=1, dst=REQUESTOR_NODE, exchange="c",
                                    punct=Punctuation.end_of_query(0)))
        assert sink.done

    def test_stratum_puncts_ignored(self):
        sink = self.make()
        sink.handle_message(Message(src=0, dst=REQUESTOR_NODE, exchange="c",
                                    punct=Punctuation.end_of_stratum(3)))
        assert not sink.done


class TestGroupByMultiKey:
    def test_composite_grouping(self):
        sink = Capture()
        gb = GroupBy(key_fn=lambda r: (r[0], r[1]),
                     specs=[AggregateSpec(Sum(), arg=lambda r: r[2])])
        wire(gb, sink)
        gb.receive(insert(("a", 1, 10)))
        gb.receive(insert(("a", 2, 20)))
        gb.receive(insert(("a", 1, 5)))
        gb.on_punctuation(Punctuation.end_of_stratum(0))
        assert sorted(sink.rows()) == [("a", 1, 15), ("a", 2, 20)]
