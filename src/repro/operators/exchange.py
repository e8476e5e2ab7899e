"""Rehash: the cross-worker exchange operator (Sections 3.2 and 4.2).

"Whenever needed, a rehash operator re-partitions data among worker nodes
based on the partitioning snapshot for the current query."  A rehash edge is
split into a :class:`RehashSender` on the producing worker (batches deltas
per destination and ships them) and an :class:`ExchangeReceiver` on each
consuming worker (feeds the deltas into the consuming operator and counts
per-sender punctuation).  ``broadcast=True`` ships every delta to all live
workers (used for small relations such as K-means centroids).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes, value_bytes
from repro.net.network import Message, PUNCT_BYTES
from repro.operators.base import Operator


class RehashSender(Operator):
    """Routes deltas by partition key to peer workers, in batches.

    A replacement whose routing key changed is split into a deletion routed
    to the old owner and an insertion routed to the new owner — the two
    images live in different partitions.
    """

    def __init__(self, exchange: str,
                 key_fn: Optional[Callable[[tuple], tuple]] = None,
                 batch_size: int = 256, broadcast: bool = False,
                 name: Optional[str] = None):
        if not broadcast and key_fn is None:
            raise ExecutionError("rehash requires a key function (or broadcast)")
        super().__init__(name or f"Rehash({exchange})")
        self.exchange = exchange
        self.key_fn = key_fn
        self.batch_size = batch_size
        self.broadcast = broadcast
        self._buffers: Dict[int, List[Delta]] = {}
        # Running wire size of each buffer (the exact per-delta terms of
        # Message.size_bytes, accumulated at append time): _flush ships
        # it precomputed via int Message.meta, so the network never
        # re-walks a payload this sender already walked.
        self._buf_bytes: Dict[int, int] = {}

    def open(self, ctx):
        super().open(ctx)
        self.per_tuple_cost = ctx.cost.cpu_tuple_cost + ctx.cost.hash_op_cost

    @staticmethod
    def _wire_bytes(delta: Delta) -> int:
        """This delta's exact contribution to ``Message.size_bytes`` —
        the accumulation term behind the precomputed-meta fast path."""
        nbytes = 1 + row_bytes(delta.row)
        old = delta.old
        if old is not None:
            nbytes += row_bytes(old)
        payload = delta.payload
        if payload is not None:
            nbytes += (8 if payload.__class__ is float
                       else value_bytes(payload))
        return nbytes

    def _route(self, delta: Delta) -> None:
        # Hot loop: bind lookups to locals (satellite of the batch PR).
        buffers = self._buffers
        buf_bytes = self._buf_bytes
        batch_size = self.batch_size
        nbytes = self._wire_bytes(delta)
        if self.broadcast:
            destinations = self.ctx.snapshot.live_nodes()
        else:
            destinations = (self.ctx.snapshot.primary(
                self.key_fn(delta.row)),)
        for dst in destinations:
            buf = buffers.get(dst)
            if buf is None:
                buf = buffers[dst] = []
            buf.append(delta)
            buf_bytes[dst] = buf_bytes.get(dst, 0) + nbytes
            if len(buf) >= batch_size:
                self._flush(dst)

    def process(self, delta: Delta, port: int) -> None:
        if (delta.op is DeltaOp.REPLACE and not self.broadcast
                and self.key_fn(delta.old) != self.key_fn(delta.row)):
            self._route(Delta(DeltaOp.DELETE, delta.old))
            self._route(Delta(DeltaOp.INSERT, delta.row))
        else:
            self._route(delta)

    def push_batch(self, deltas, port: int = 0) -> None:
        """Route a whole batch in one partition pass; the snapshot
        resolves every destination in one
        :meth:`~repro.storage.hashing.RingSnapshot.primaries` call.

        Message boundaries are unchanged from per-tuple routing (a buffer
        still flushes the moment it reaches ``batch_size``), so the network
        sees the same messages and bytes in both execution modes.
        """
        if not deltas:
            return
        ctx = self.ctx
        ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        buffers = self._buffers
        buf_bytes = self._buf_bytes
        batch_size = self.batch_size
        flush = self._flush
        snapshot = ctx.snapshot
        if self.broadcast:
            live = snapshot.live_nodes()
            wire_bytes = self._wire_bytes
            for delta in deltas:
                nbytes = wire_bytes(delta)
                for dst in live:
                    buf = buffers.get(dst)
                    if buf is None:
                        buf = buffers[dst] = []
                    buf.append(delta)
                    buf_bytes[dst] = buf_bytes.get(dst, 0) + nbytes
                    if len(buf) >= batch_size:
                        flush(dst)
            return
        key_fn = self.key_fn
        primary = snapshot.primary
        replace = DeltaOp.REPLACE
        delete, insert = DeltaOp.DELETE, DeltaOp.INSERT
        size_row = row_bytes
        size_value = value_bytes
        keys = [key_fn(delta.row) for delta in deltas]
        for delta, key, dst in zip(deltas, keys, snapshot.primaries(keys)):
            row = delta.row
            nbytes = 1 + size_row(row)
            if delta.op is replace:
                old = delta.old
                old_key = key_fn(old)
                if old_key != key:
                    # Split replacement: the deletion to the old image's
                    # owner here, the insertion below — as ``process`` does.
                    old_dst = primary(old_key)
                    try:
                        buf = buffers[old_dst]
                    except KeyError:
                        buf = buffers[old_dst] = []
                    buf.append(Delta(delete, old))
                    buf_bytes[old_dst] = (buf_bytes.get(old_dst, 0)
                                          + 1 + size_row(old))
                    if len(buf) >= batch_size:
                        flush(old_dst)
                    delta = Delta(insert, row)
                else:
                    nbytes += size_row(old)
            payload = delta.payload
            if payload is not None:
                nbytes += (8 if payload.__class__ is float
                           else size_value(payload))
            try:
                buf = buffers[dst]
            except KeyError:
                buf = buffers[dst] = []
            buf.append(delta)
            buf_bytes[dst] = buf_bytes.get(dst, 0) + nbytes
            if len(buf) >= batch_size:
                flush(dst)

    def _flush(self, dst: int) -> None:
        batch = self._buffers.pop(dst, None)
        nbytes = self._buf_bytes.pop(dst, 0)
        if batch:
            self.ctx.cluster.network.send(Message(
                src=self.ctx.node_id, dst=dst,
                exchange=self.exchange, deltas=batch,
                meta=nbytes + PUNCT_BYTES,
            ))

    def on_punctuation(self, punct: Punctuation, port: int = 0) -> None:
        """Flush everything, then punctuate every receiver (each receiver
        counts one punctuation per live sender)."""
        for dst in list(self._buffers):
            self._flush(dst)
        ctx = self.ctx
        live = ctx.snapshot.live_nodes()
        # Bulk broadcast: one bookkeeping pass for every receiver.
        ctx.cluster.network.send_punct_fanout(
            ctx.node_id, live, self.exchange, punct)


class ExchangeReceiver(Operator):
    """The receiving half of a rehash; registered on the network fabric.

    Expects one punctuation per live sender before closing the stratum and
    forwarding a single punctuation to its consumer.
    """

    def __init__(self, exchange: str, expected_senders: int,
                 name: Optional[str] = None):
        super().__init__(name or f"Receive({exchange})")
        self.exchange = exchange
        self.expected_senders = expected_senders
        self._punct_count = 0

    def open(self, ctx):
        super().open(ctx)
        probe = ctx.probe
        handler = (self.handle_message if probe is None
                   else partial(probe.message, self))
        ctx.cluster.network.register(ctx.node_id, self.exchange, handler)

    def set_expected_senders(self, n: int) -> None:
        """Adjusted by recovery when the sender population changes."""
        self.expected_senders = n

    def handle_message(self, msg: Message) -> None:
        if msg.punct is not None:
            self._punct_count += 1
            if self._punct_count >= self.expected_senders:
                self._punct_count = 0
                self.forward_punctuation(msg.punct)
            return
        deltas = msg.deltas or ()
        if not deltas:
            return
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        self.emit_deltas(deltas if isinstance(deltas, list) else list(deltas))

    def process(self, delta: Delta, port: int) -> None:
        raise ExecutionError("ExchangeReceiver is fed by the network fabric")
