"""Metrics registry primitives, naming scheme, and memo-cache exposure."""

import pytest

from repro.cluster import Cluster
from repro.common import insert, update
from repro.obs import MetricsRegistry, ObsContext
from repro.operators import (
    ExchangeReceiver,
    ExecContext,
    GroupBy,
    RehashSender,
)
from repro.udf import AggregateSpec, Sum

from helpers import Capture
from workloads import pagerank_delta, run


class TestPrimitives:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.inc()
        c.inc(4)
        assert reg.counter("a.b").value == 5  # get-or-create returns same

    def test_gauge(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.5)
        assert reg.gauge("g").value == 3.5

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        for v in (1.0, 2.0, 6.0):
            h.record(v)
        assert h.count == 3
        assert h.total == 9.0
        assert h.min == 1.0
        assert h.max == 6.0
        assert h.mean == pytest.approx(3.0)
        assert h.snapshot()["mean"] == pytest.approx(3.0)

    def test_series_preserves_order(self):
        reg = MetricsRegistry()
        s = reg.series("s")
        s.append(0, 10)
        s.append(1, 7)
        assert s.points == [(0, 10), (1, 7)]

    def test_type_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_names_and_snapshot_by_prefix(self):
        reg = MetricsRegistry()
        reg.counter("op.n0.Scan#0.calls").inc()
        reg.counter("net.exchange.x.bytes").inc(64)
        assert reg.names("op.") == ["op.n0.Scan#0.calls"]
        snap = reg.snapshot("net.")
        assert snap == {"net.exchange.x.bytes": 64}


class TestNamingScheme:
    def test_query_populates_expected_namespaces(self):
        obs = ObsContext()
        run(pagerank_delta(80), obs=obs)
        names = obs.registry.names()
        prefixes = {"op.", "net.exchange.", "stratum.", "fixpoint.",
                    "memo."}
        for prefix in prefixes:
            assert any(n.startswith(prefix) for n in names), prefix
        # per-operator metrics carry node and instance ids
        assert any(n.startswith("op.n0.") and n.endswith(".sim_seconds")
                   for n in names)
        # stratum series have one point per stratum
        seconds = obs.registry.series("stratum.seconds")
        assert [i for i, _ in seconds.points] == list(
            range(len(seconds.points)))


def _wire_rehash(memo_cap):
    cluster = Cluster(3)
    snapshot = cluster.ring.snapshot()
    for node in cluster.node_ids():
        ctx = ExecContext(cluster.worker(node), cluster=cluster,
                          snapshot=snapshot)
        recv = ExchangeReceiver("x", expected_senders=1)
        sink = Capture()
        sink.add_input(recv)
        recv.open(ctx)
        sink.open(ctx)
    sender_ctx = ExecContext(cluster.worker(0), cluster=cluster,
                             snapshot=snapshot, batch=True)
    sender = RehashSender("x", key_fn=lambda r: (r[0],), batch_size=8)
    sender.memo_cap = memo_cap  # instance override pins the cap
    sender.open(sender_ctx)
    return cluster, sender


class TestRehashMemoAccounting:
    def test_hits_and_misses(self):
        cluster, sender = _wire_rehash(memo_cap=1000)
        # The memo is keyed by the whole row: 4 distinct rows, seen 5x each.
        rows = [insert((i % 4, i % 4)) for i in range(20)]
        sender.push_batch(rows)
        assert sender.memo_misses == 4
        assert sender.memo_hits == 16

    def test_eviction_at_cap(self):
        cluster, sender = _wire_rehash(memo_cap=4)
        # 10 distinct rows: the memo wipes every time it reaches 4 entries.
        sender.push_batch([insert((i, 0)) for i in range(10)])
        assert sender.memo_misses == 10
        assert sender.memo_hits == 0
        # evictions count entries dropped: wiped at 4 twice (8 entries),
        # leaving 2 resident.
        assert sender.memo_evictions == 8
        assert len(sender._dst_cache) == 2

    def test_repeated_rows_hit_after_eviction_rebuild(self):
        cluster, sender = _wire_rehash(memo_cap=4)
        batch = [insert((i, 0)) for i in range(3)]
        sender.push_batch(batch)
        sender.push_batch(batch)
        assert sender.memo_misses == 3
        assert sender.memo_hits == 3
        assert sender.memo_evictions == 0


def _wire_groupby(key_memo_cap):
    gb = GroupBy(key_fn=lambda r: (r[0],),
                 specs=[AggregateSpec(Sum(), arg=lambda r: r[1])])
    gb.key_memo_cap = key_memo_cap
    sink = Capture()
    sink.add_input(gb)
    from repro.cluster import CostModel, Worker
    ctx = ExecContext(Worker(0, CostModel()), batch=True)
    gb.open(ctx)
    sink.open(ctx)
    return gb


class TestGroupByMemoAccounting:
    def test_hits_and_misses(self):
        gb = _wire_groupby(key_memo_cap=1000)
        gb.push_batch([insert((1, 1.0)) for _ in range(5)]
                      + [insert((2, 1.0))])
        assert gb.memo_misses == 2
        assert gb.memo_hits == 4

    def test_eviction_at_cap(self):
        gb = _wire_groupby(key_memo_cap=3)
        gb.push_batch([insert((i, 1.0)) for i in range(7)])
        assert gb.memo_misses == 7
        # wiped at 3 entries twice -> 6 evicted, 1 resident
        assert gb.memo_evictions == 6
        assert len(gb._key_memo) == 1

    def test_update_deltas_use_memo(self):
        gb = _wire_groupby(key_memo_cap=1000)
        gb.push_batch([update((1,), payload=0.5) for _ in range(4)])
        assert gb.memo_misses == 1
        assert gb.memo_hits == 3


class TestMemoRegistryExposure:
    def test_memo_counters_published(self):
        obs = ObsContext()
        run(pagerank_delta(80), obs=obs)
        reg = obs.registry
        rehash = [n for n in reg.names("memo.rehash.")
                  if n.endswith(".hits")]
        groupby = [n for n in reg.names("memo.groupby.")
                   if n.endswith(".hits")]
        assert rehash and groupby
        # per-tuple mode never touches the batch memos: counters stay 0
        # but the hit/miss split must cover every memoized lookup.
        for name in rehash + groupby:
            base = name[:-len(".hits")]
            hits = reg.counter(f"{base}.hits").value
            misses = reg.counter(f"{base}.misses").value
            assert hits + misses > 0
            assert hits >= misses  # group keys repeat heavily in PageRank
