"""Union, the collect sink, and the requestor-side result assembler."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.net.network import Message
from repro.operators.base import Operator

#: Pseudo node id of the query requestor (it is not a data-holding worker;
#: "the node making a query request is responsible for coordinating it").
REQUESTOR_NODE = -1


class Union(Operator):
    """N-ary bag union: passes deltas through; punctuation waits on all
    inputs per the n-ary operator rule."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name or "Union")

    def process(self, delta: Delta, port: int) -> None:
        self.emit(delta)

    def push_batch(self, deltas, port: int = 0) -> None:
        if not deltas:
            return
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        self.emit_batch(deltas)


class Collect(Operator):
    """Per-worker sink shipping result deltas to the query requestor.

    "The results of the plan execution are ultimately forwarded to the
    query requestor node, which unions the received results from all nodes
    in the cluster."
    """

    def __init__(self, exchange: str = "collect", batch_size: int = 256,
                 name: Optional[str] = None):
        super().__init__(name or "Collect")
        self.exchange = exchange
        self.batch_size = batch_size
        self._buffer: List[Delta] = []

    def process(self, delta: Delta, port: int) -> None:
        self._buffer.append(delta)
        if len(self._buffer) >= self.batch_size:
            self._flush()

    def push_batch(self, deltas, port: int = 0) -> None:
        """Buffer the batch, flushing at the same ``batch_size`` crossings
        as per-delta processing so the requestor sees identical messages."""
        if not deltas:
            return
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        batch_size = self.batch_size
        append = self._buffer.append
        for delta in deltas:
            append(delta)
            if len(self._buffer) >= batch_size:
                self._flush()
                append = self._buffer.append

    def _flush(self) -> None:
        if self._buffer:
            batch, self._buffer = self._buffer, []
            self.ctx.cluster.network.send(Message(
                src=self.ctx.node_id, dst=REQUESTOR_NODE,
                exchange=self.exchange, deltas=batch,
            ))

    def on_punctuation(self, punct: Punctuation, port: int = 0) -> None:
        self._flush()
        self.ctx.cluster.network.send(Message(
            src=self.ctx.node_id, dst=REQUESTOR_NODE,
            exchange=self.exchange, punct=punct,
        ))


class ResultSink:
    """Requestor-side assembly of the final relation from result deltas.

    Maintains a multiset so deletions and replacements arriving from
    different workers compose correctly.  ``rows()`` yields the final bag.
    """

    def __init__(self, network, exchange: str = "collect",
                 expected_workers: int = 1):
        self.exchange = exchange
        self.expected_workers = expected_workers
        self._counts: Dict[tuple, int] = {}
        self._final_puncts = 0
        self.done = False
        network.register(REQUESTOR_NODE, self.exchange, self.handle_message)

    def set_expected_workers(self, n: int) -> None:
        self.expected_workers = n

    def handle_message(self, msg: Message) -> None:
        if msg.punct is not None:
            if msg.punct.is_final:
                self._final_puncts += 1
                if self._final_puncts >= self.expected_workers:
                    self.done = True
            return
        for delta in msg.deltas or ():
            self._apply(delta)

    def _apply(self, delta: Delta) -> None:
        if delta.op is DeltaOp.INSERT or delta.op is DeltaOp.UPDATE:
            self._counts[delta.row] = self._counts.get(delta.row, 0) + 1
        elif delta.op is DeltaOp.DELETE:
            n = self._counts.get(delta.row, 0)
            if n <= 1:
                self._counts.pop(delta.row, None)
            else:
                self._counts[delta.row] = n - 1
        elif delta.op is DeltaOp.REPLACE:
            self._apply(Delta(DeltaOp.DELETE, delta.old))
            self._apply(Delta(DeltaOp.INSERT, delta.row))

    def rows(self) -> List[tuple]:
        out: List[tuple] = []
        for row, n in self._counts.items():
            out.extend([row] * n)
        return out
