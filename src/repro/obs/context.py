"""The observability context: a probe subscriber and cost attribution.

An :class:`ObsContext` is the one object a caller attaches to a query run
(via ``ExecOptions(obs=...)``).  It observes

* every **operator boundary**, as a subscriber of the engine's probe
  (:class:`repro.operators.Probe`): a push into an operator, punctuation
  handed to it, a source's stratum and a message entering an exchange
  receiver each open a frame that counts tuples and delta kinds, measures
  wall-clock self-time, and attributes every simulated charge landed
  while the frame is on top of the stack;
* every **worker** — its ``charge_*`` methods additionally report the
  seconds they charged to the current frame;
* the **network** — send/delivery of every message is counted per
  exchange and emitted as trace events (the probe is the network's
  observer).

Nothing is wrapped or re-bound on an operator, and no plan changes: a run
without an ObsContext pays one ``is None`` test per boundary, and a run
with one executes the same operator loops.  The hooks only observe — they
never charge, reorder, or suppress work — so simulated metrics are
bit-identical with observability on or off, and between batch and
per-tuple modes.

Because pushes nest (an operator's ``emit`` runs the parent's push inside
the child's frame), attribution uses a frame stack: a charge belongs to
the operator on top, and wall-clock *self*-time subtracts nested frames —
standard profiler semantics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.common.deltas import DeltaOp
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import RingBufferSink, Tracer, TraceSink

#: DeltaOp symbol -> registry-safe label.
KIND_LABELS = {"+": "insert", "-": "delete", "->": "replace", "δ": "update"}

#: Ring capacity of each per-stratum series, so a context reused across
#: many queries holds bounded memory.
STRATUM_SERIES_CAPACITY = 256

# Enum members bound as module locals: the counting loop classifies
# deltas with identity compares instead of `.op.value` property accesses.
_INS = DeltaOp.INSERT
_DEL = DeltaOp.DELETE
_REP = DeltaOp.REPLACE
_UPD = DeltaOp.UPDATE

_WORKER_CHARGE_METHODS = (
    "charge_cpu", "charge_tuples", "charge_disk_bytes", "charge_disk_seek",
    "charge_net_out", "charge_net_in", "charge_net_out_fanout",
    "charge_state_access",
)


class OperatorStats:
    """Everything measured about one operator instance on one node."""

    __slots__ = ("op_id", "name", "node", "calls", "tuples_in", "tuples_out",
                 "sim_seconds", "wall_seconds", "kinds")

    def __init__(self, op_id: str, name: str, node: int):
        self.op_id = op_id
        self.name = name
        self.node = node
        self.calls = 0
        self.tuples_in = 0
        self.tuples_out = 0
        self.sim_seconds = 0.0     # simulated resource-seconds charged
        self.wall_seconds = 0.0    # wall-clock self-time (children excluded)
        self.kinds: Dict[str, int] = {}  # input deltas by annotation symbol

    def __repr__(self):
        return (f"OperatorStats({self.op_id}@n{self.node}: "
                f"in={self.tuples_in} sim={self.sim_seconds:.6f}s)")


def _count_in(stats: OperatorStats, deltas) -> Dict[str, int]:
    """Count one input call; returns its annotation counts (one
    identity-compare pass, no enum ``.value`` or dict ops per delta)."""
    n_ins = n_del = n_rep = n_upd = 0
    for d in deltas:
        kind = d.op
        if kind is _INS:
            n_ins += 1
        elif kind is _UPD:
            n_upd += 1
        elif kind is _REP:
            n_rep += 1
        else:
            n_del += 1
    batch_kinds = {}
    if n_ins:
        batch_kinds["+"] = n_ins
    if n_del:
        batch_kinds["-"] = n_del
    if n_rep:
        batch_kinds["->"] = n_rep
    if n_upd:
        batch_kinds["δ"] = n_upd
    stats.calls += 1
    stats.tuples_in += len(deltas)
    kinds = stats.kinds
    for sym, n in batch_kinds.items():
        kinds[sym] = kinds.get(sym, 0) + n
    return batch_kinds


class ObsContext:
    """Tracer + registry + attribution state for one (or more) query runs.

    ``tracer`` defaults to an enabled tracer with a ring-buffer sink; pass
    ``Tracer(enabled=False)`` to keep only the registry and attribution.
    """

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer if tracer is not None else Tracer(
            sinks=[RingBufferSink()])
        self.registry = MetricsRegistry()
        self.stratum: Optional[int] = None
        self.unattributed_seconds = 0.0
        self._clock = time.perf_counter
        # [stats, child_wall_seconds, t0, input kinds]
        self._stack: List[list] = []
        self._ops: List[Tuple[object, OperatorStats]] = []
        self._stats: Dict[int, OperatorStats] = {}  # id(op) -> its row
        self._op_counters: Dict[int, int] = {}
        self._workers_instrumented: set = set()
        self._exchange_stats: Dict[str, list] = {}  # [msgs, bytes, deltas]
        self._system_stats: Dict[str, OperatorStats] = {}
        # In-flight message depth (sends minus deliveries/drops) and its
        # per-stratum peak — the ``stratum.inflight_peak`` queue pressure.
        self._inflight = 0
        self._inflight_peak = 0

    # ------------------------------------------------------------------
    # Attribution frames
    # ------------------------------------------------------------------
    def _enter(self, stats: OperatorStats, kinds=None) -> None:
        self._stack.append([stats, 0.0, self._clock(), kinds])

    def _leave(self) -> Tuple[list, float]:
        """Pop the top frame; returns it with its inclusive wall time."""
        frame = self._stack.pop()
        elapsed = self._clock() - frame[2]
        frame[0].wall_seconds += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed
        return frame, elapsed

    def record_seconds(self, seconds: float) -> None:
        """Attribute simulated seconds to the operator currently on top."""
        if self._stack:
            self._stack[-1][0].sim_seconds += seconds
        else:
            self.unattributed_seconds += seconds

    def attribution(self) -> Tuple[float, float]:
        """(attributed, unattributed) simulated resource-seconds."""
        return (sum(s.sim_seconds for _, s in self._ops),
                self.unattributed_seconds)

    @contextmanager
    def system_frame(self, name: str) -> Iterator[None]:
        """Attribute charges made inside the block to a synthetic system
        activity (e.g. ``(checkpoint)``, ``(recovery)``) rather than an
        operator — control-plane work shows up named in the cost table
        instead of drowning in the unattributed bucket."""
        stats = self._system_stats.get(name)
        if stats is None:
            stats = OperatorStats(name, name, -1)
            self._system_stats[name] = stats
            self._ops.append((None, stats))
        stats.calls += 1
        self._enter(stats)
        try:
            yield
        finally:
            self._leave()

    def operator_stats(self) -> List[OperatorStats]:
        return [s for _, s in self._ops]

    def fusion_groups(self) -> List[Dict]:
        """Fused kernels seen by this context: one entry per observed
        :class:`~repro.operators.fused.FusedKernel` instance, with its
        constituent operator names (data-flow order) and the number of
        batches that entered the kernel."""
        groups = []
        for op, stats in self._ops:
            constituents = getattr(op, "constituents", None)
            if constituents is None:
                continue
            groups.append({
                "op_id": stats.op_id,
                "node": stats.node,
                "label": stats.name,
                "constituents": [c.name for c in constituents],
                "fused_batches": getattr(op, "fused_batches", 0),
            })
        return groups

    # ------------------------------------------------------------------
    # Operator boundaries (subscribed through repro.operators.Probe)
    # ------------------------------------------------------------------
    def register_operators(self, ops) -> None:
        """Give each operator its stats row in build order, so an
        ``op_id`` names the same plan position on every node."""
        for op in ops:
            node = op.ctx.node_id
            index = self._op_counters.get(node, 0)
            self._op_counters[node] = index + 1
            stats = OperatorStats(f"{op.name}#{index}", op.name, node)
            self._stats[id(op)] = stats
            self._ops.append((op, stats))

    def before_push(self, op, deltas, port, child) -> None:
        stats = self._stats[id(op)]
        self._stats[id(child)].tuples_out += len(deltas)
        self._enter(stats, _count_in(stats, deltas))

    def after_push(self, op, deltas, port, child) -> None:
        (stats, _, _, kinds), elapsed = self._leave()
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete(
                "push_batch" if op.ctx.batch else "push", "operator",
                stats.node, ts=tracer.now(), dur=elapsed,
                stratum=self.stratum, op=stats.op_id, port=port,
                n=len(deltas), kinds=kinds)

    def before_punctuation(self, op, punct, port) -> None:
        # Frame only: attributes punctuation-driven flushes and sends.
        self._enter(self._stats[id(op)])

    def after_punctuation(self, op, punct, port) -> None:
        self._leave()

    def before_run_stratum(self, source, stratum) -> None:
        stats = self._stats[id(source)]
        stats.calls += 1
        self._enter(stats)

    def after_run_stratum(self, source, stratum) -> None:
        (stats, _, _, _), elapsed = self._leave()
        tracer = self.tracer
        if tracer.enabled:
            tracer.complete("run_stratum", "source", stats.node,
                            ts=tracer.now(), dur=elapsed, stratum=stratum,
                            op=stats.op_id)

    def before_message(self, receiver, msg) -> None:
        stats = self._stats[id(receiver)]
        if msg.deltas:
            _count_in(stats, msg.deltas)
        self._enter(stats)

    def after_message(self, receiver, msg) -> None:
        self._leave()

    # ------------------------------------------------------------------
    # Worker instrumentation
    # ------------------------------------------------------------------
    def instrument_worker(self, worker) -> None:
        """Wrap every ``charge_*`` so charged seconds reach the frame stack.

        Relies on the charge methods returning the seconds they charged;
        a method returning ``None`` (e.g. a stub in tests) is observed as
        charging nothing.
        """
        if worker.id in self._workers_instrumented:
            return
        self._workers_instrumented.add(worker.id)
        record = self.record_seconds
        for name in _WORKER_CHARGE_METHODS:
            orig = getattr(worker, name)

            def wrapped(*args, _orig=orig, **kwargs):
                seconds = _orig(*args, **kwargs)
                if seconds:
                    record(seconds)
                return seconds

            setattr(worker, name, wrapped)

    # ------------------------------------------------------------------
    # Network (fanned out by the probe, the network's observer)
    # ------------------------------------------------------------------
    def on_send(self, msg, nbytes: int) -> None:
        entry = self._exchange_stats.get(msg.exchange)
        if entry is None:
            entry = self._exchange_stats[msg.exchange] = [0, 0, 0]
        n_deltas = len(msg.deltas) if msg.deltas else 0
        entry[0] += 1
        entry[1] += nbytes
        entry[2] += n_deltas
        depth = self._inflight + 1
        self._inflight = depth
        if depth > self._inflight_peak:
            self._inflight_peak = depth
        if self.tracer.enabled:
            self.tracer.instant(
                "send", "exchange", msg.src, stratum=self.stratum,
                exchange=msg.exchange, dst=msg.dst, deltas=n_deltas,
                bytes=nbytes, punct=msg.punct is not None)

    def on_deliver(self, msg) -> None:
        self._inflight -= 1
        if self.tracer.enabled:
            self.tracer.instant(
                "recv", "exchange", msg.dst, stratum=self.stratum,
                exchange=msg.exchange, src=msg.src,
                deltas=len(msg.deltas) if msg.deltas else 0,
                punct=msg.punct is not None)

    def on_drop(self, msg) -> None:
        """Mail discarded at a dead destination still left the queue."""
        self._inflight -= 1

    # ------------------------------------------------------------------
    # Stratum / checkpoint lifecycle (called by the executor)
    # ------------------------------------------------------------------
    def begin_stratum(self, stratum: int) -> None:
        self.stratum = stratum
        self._stratum_t0 = self.tracer.now()
        self.tracer.instant("stratum.begin", "stratum", -1, stratum=stratum)

    def end_stratum(self, it, node_seconds: Dict[int, float]) -> None:
        """Close stratum ``it`` (its
        :class:`~repro.cluster.metrics.IterationMetrics`): one trace span,
        one point on each ``stratum.*`` series — the record's five numbers
        plus the fabric's peak in-flight message depth — and one point per
        node on ``node.n<K>.stratum_seconds`` (``node_seconds``: each live
        node's own simulated seconds, the skew view)."""
        stratum = it.stratum
        t0 = getattr(self, "_stratum_t0", self.tracer.now())
        self.tracer.complete(
            "stratum.end", "stratum", -1, ts=t0,
            dur=self.tracer.now() - t0, stratum=stratum,
            sim_seconds=it.seconds, bytes_sent=it.bytes_sent,
            delta_count=it.delta_count, mutable_size=it.mutable_size,
            tuples_processed=it.tuples_processed)
        peak = self._inflight_peak
        self._inflight_peak = self._inflight
        points = [("stratum.seconds", it.seconds),
                  ("stratum.bytes_sent", it.bytes_sent),
                  ("stratum.delta_count", it.delta_count),
                  ("stratum.mutable_size", it.mutable_size),
                  ("stratum.tuples_processed", it.tuples_processed),
                  ("stratum.inflight_peak", peak)]
        points.extend((f"node.n{node}.stratum_seconds", node_seconds[node])
                      for node in sorted(node_seconds))
        series = self.registry.series
        for name, value in points:
            series(name, capacity=STRATUM_SERIES_CAPACITY).append(
                stratum, value)

    def record_fixpoint(self, node: int, stratum: int, delta_out: int,
                        mutable_size: int) -> None:
        """Per-worker Δ-set / mutable-set sizes over strata."""
        reg = self.registry
        reg.series(f"fixpoint.n{node}.delta_out").append(stratum, delta_out)
        reg.series(f"fixpoint.n{node}.mutable_size").append(
            stratum, mutable_size)

    def checkpoint_write(self, node: int, n_deltas: int,
                         n_replicas: int) -> None:
        self.registry.counter("checkpoint.deltas_replicated").inc(n_deltas)
        self.tracer.instant("checkpoint.write", "checkpoint", node,
                            stratum=self.stratum, deltas=n_deltas,
                            replicas=n_replicas)

    def checkpoint_restore(self, victim: int, rows_restored: int,
                           rows_reread: int) -> None:
        self.registry.counter("checkpoint.rows_restored").inc(rows_restored)
        self.tracer.instant("checkpoint.restore", "checkpoint", victim,
                            stratum=self.stratum, restored=rows_restored,
                            reread=rows_reread)

    # ------------------------------------------------------------------
    # Registry publishing
    # ------------------------------------------------------------------
    def publish(self) -> MetricsRegistry:
        """Sync per-operator stats and channel counters into
        the registry.  Assignment-based, so calling it repeatedly (or after
        a restart re-execution) is idempotent."""
        reg = self.registry
        for op, stats in self._ops:
            base = f"op.n{stats.node}.{stats.op_id}"
            reg.counter(f"{base}.calls").value = stats.calls
            reg.counter(f"{base}.tuples_in").value = stats.tuples_in
            reg.counter(f"{base}.tuples_out").value = stats.tuples_out
            reg.gauge(f"{base}.sim_seconds").set(stats.sim_seconds)
            reg.gauge(f"{base}.wall_seconds").set(stats.wall_seconds)
            for sym, count in stats.kinds.items():
                label = KIND_LABELS.get(sym, sym)
                reg.counter(f"{base}.deltas_in.{label}").value = count
            fused_batches = getattr(op, "fused_batches", None)
            if fused_batches is not None:
                reg.counter(f"{base}.fused_batches").value = fused_batches
            state_size = getattr(op, "state_size", None)
            if state_size is not None:
                reg.gauge(f"{base}.state_size").set(state_size())
            breakdown = getattr(op, "state_breakdown", None)
            if breakdown is not None:
                for part, value in breakdown().items():
                    reg.gauge(f"{base}.state.{part}").set(value)
        for exchange, (msgs, nbytes, deltas) in self._exchange_stats.items():
            base = f"net.exchange.{exchange}"
            reg.counter(f"{base}.messages").value = msgs
            reg.counter(f"{base}.bytes").value = nbytes
            reg.counter(f"{base}.deltas").value = deltas
        return reg

    def close(self) -> None:
        self.tracer.close()
