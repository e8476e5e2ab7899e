"""Point-to-point batched message transport between worker nodes.

The network is simulated: delivery is immediate and reliable (failures are
injected at the *node* level by the cluster, not as message loss), but every
byte is accounted against the sending and receiving nodes' network resource
usage so bandwidth figures (paper Figure 11) fall out of real traffic counts.

Messages are addressed to ``(dst_node, exchange_id)`` pairs; an *exchange* is
one cross-worker edge of a physical plan (a rehash, a collect, a checkpoint
stream).  The receiving side registers a handler per exchange.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes, value_bytes

PUNCT_BYTES = 16


@dataclass(slots=True)
class Message:
    """One batched transmission on an exchange.

    Either ``deltas`` (a batch of annotated tuples) or ``punct`` is set.
    ``sender`` identifies the source node so n-ary receivers can count
    punctuation from every upstream worker.
    """

    src: int
    dst: int
    exchange: str
    deltas: Optional[List[Any]] = None
    punct: Optional[Punctuation] = None
    meta: Any = None
    """Optional transport annotation.  An ``int`` is a precomputed wire
    size for the whole message (``size_bytes()`` of it, computed once by
    a sender that already walked the deltas — e.g. the executor's
    checkpoint replication); :meth:`SimulatedNetwork.send` then
    accounts that size without recounting the payload."""

    def size_bytes(self) -> int:
        if self.punct is not None:
            return PUNCT_BYTES
        total = 0
        size_row = row_bytes
        size_value = value_bytes
        for d in self.deltas or ():
            total += 1 + size_row(d.row)
            old = d.old
            if old is not None:
                total += size_row(old)
            payload = d.payload
            if payload is not None:
                total += size_value(payload)
        return total + PUNCT_BYTES  # batch framing


@dataclass(slots=True)
class LinkStats:
    """Traffic accounting for one directed node pair."""

    messages: int = 0
    bytes: int = 0


class SimulatedNetwork:
    """FIFO message fabric with per-node byte accounting.

    Delivery is deferred: :meth:`send` enqueues; the executor delivers
    with :meth:`drain`.  Local sends (src == dst) are queued the
    same way, preserving the paper's message-driven execution, but cost
    nothing on the wire.
    """

    def __init__(self, on_bytes: Optional[Callable[[int, int, int], None]] = None,
                 on_bytes_fanout: Optional[Callable[[int, List[int], int], None]] = None):
        """``on_bytes(src, dst, nbytes)`` is invoked for every remote send so
        the cluster can charge network time to both endpoints.
        ``on_bytes_fanout(src, dsts, nbytes)`` is the bulk form used by
        :meth:`send_punct_fanout`: one call covering ``len(dsts)`` equal
        sends, charged so the endpoint tallies are identical to that many
        ``on_bytes`` calls."""
        self._queue: Deque[Message] = deque()
        self._handlers: Dict[Tuple[int, str], Callable[[Message], None]] = {}
        self._on_bytes = on_bytes
        self._on_bytes_fanout = on_bytes_fanout
        self.links: Dict[Tuple[int, int], LinkStats] = {}
        self.total_bytes = 0
        self.bytes_by_node: Dict[int, int] = {}
        self._dead: set = set()
        #: Optional observability hook (the executor sets the run's
        #: :class:`repro.operators.Probe`, or ``None``): an object with
        #: ``on_send(msg, wire_bytes)`` / ``on_deliver(msg)``
        #: and, optionally, ``on_drop(msg)`` for mail discarded at dead
        #: destinations.  Purely passive — it never affects delivery or
        #: byte accounting.
        self.observer = None

    def register(self, node: int, exchange: str,
                 handler: Callable[[Message], None]) -> None:
        """Route messages for ``(node, exchange)`` to ``handler``."""
        key = (node, exchange)
        if key in self._handlers:
            raise ExecutionError(f"exchange {exchange!r} already registered on node {node}")
        self._handlers[key] = handler

    def unregister_node(self, node: int) -> None:
        """Drop all handlers on a failed node; in-flight messages to it are
        discarded at delivery time."""
        self._dead.add(node)
        for key in [k for k in self._handlers if k[0] == node]:
            del self._handlers[key]

    def unregister_exchanges(self, exchanges) -> None:
        """Drop a finished query's handlers, on every node, together with
        any mail still queued for them (an aborted query leaves some).

        The handlers are bound methods and closures over the query's
        operators and executor; left registered they would keep every
        query ever run on this cluster alive."""
        exchanges = frozenset(exchanges)
        for key in [k for k in self._handlers if k[1] in exchanges]:
            del self._handlers[key]
        if self._queue:
            kept = [m for m in self._queue if m.exchange not in exchanges]
            self._queue.clear()
            self._queue.extend(kept)

    def send(self, msg: Message) -> None:
        if msg.src in self._dead:
            return  # a dead node cannot transmit
        nbytes = 0  # local sends cost nothing on the wire
        if msg.src != msg.dst:
            meta = msg.meta
            # A sender that already walked the payload ships its wire
            # size precomputed (int meta); recounting via size_bytes()
            # would walk every delta a second time.
            nbytes = meta if type(meta) is int else msg.size_bytes()
            self.total_bytes += nbytes
            self.bytes_by_node[msg.src] = self.bytes_by_node.get(msg.src, 0) + nbytes
            stats = self.links.setdefault((msg.src, msg.dst), LinkStats())
            stats.messages += 1
            stats.bytes += nbytes
            if self._on_bytes is not None:
                self._on_bytes(msg.src, msg.dst, nbytes)
        if self.observer is not None:
            self.observer.on_send(msg, nbytes)
        self._queue.append(msg)

    def send_punct_fanout(self, src: int, dsts, exchange: str,
                          punct: Punctuation) -> None:
        """Broadcast one punctuation to every node in ``dsts`` (in order).

        The message stream, enqueue order, link stats, and per-endpoint
        charge multisets are identical to ``len(dsts)`` individual
        :meth:`send` calls; the bulk form only batches the bookkeeping
        (one ``total_bytes`` update, one sender net-out tally covering
        all remote copies).  An observer still sees ``on_send`` once per
        message, in enqueue order.
        """
        if src in self._dead:
            return  # a dead node cannot transmit
        links = self.links
        append = self._queue.append
        observer = self.observer
        remotes: List[int] = []
        for dst in dsts:
            nbytes = 0
            if dst != src:
                nbytes = PUNCT_BYTES
                stats = links.get((src, dst))
                if stats is None:
                    stats = links[(src, dst)] = LinkStats()
                stats.messages += 1
                stats.bytes += PUNCT_BYTES
                remotes.append(dst)
            msg = Message(src=src, dst=dst, exchange=exchange, punct=punct)
            if observer is not None:
                observer.on_send(msg, nbytes)
            append(msg)
        if remotes:
            nbytes = len(remotes) * PUNCT_BYTES
            self.total_bytes += nbytes
            self.bytes_by_node[src] = self.bytes_by_node.get(src, 0) + nbytes
            if self._on_bytes_fanout is not None:
                self._on_bytes_fanout(src, remotes, PUNCT_BYTES)
            elif self._on_bytes is not None:
                for dst in remotes:
                    self._on_bytes(src, dst, PUNCT_BYTES)

    def drain(self) -> int:
        """Deliver queued messages until quiescent; returns count delivered.

        Handlers may send further messages; those are delivered too.  This is
        the inner loop of stratified execution: a stratum is complete when
        the fabric is quiet and all punctuation has settled.  Mail for a
        dead node leaves the queue undelivered (the observer's optional
        ``on_drop`` sees it).  The queue's ``popleft`` picks the next
        message, so a schedule perturbation installed as the queue
        reorders delivery without a second loop.
        """
        queue = self._queue
        handlers = self._handlers
        dead = self._dead
        observer = self.observer
        on_drop = getattr(observer, "on_drop", None)
        delivered = 0
        while queue:
            msg = queue.popleft()
            if msg.dst in dead:
                if on_drop is not None:
                    on_drop(msg)
                continue
            handler = handlers.get((msg.dst, msg.exchange))
            if handler is None:
                raise ExecutionError(
                    f"no handler for exchange {msg.exchange!r} on node {msg.dst}"
                )
            if observer is not None:
                observer.on_deliver(msg)
            handler(msg)
            delivered += 1
        return delivered
