"""Operator protocol for REX's push-based pipelined execution.

Execution is data-driven (Section 4.2): scans push annotated tuples (deltas)
through a per-worker tree of pipelined operators.  Each operator receives
deltas on numbered input ports via :meth:`Operator.receive` and pushes
results to its parent.  Punctuation (end-of-stratum / end-of-query markers)
flows the same way: "unary operators like selection or aggregation simply
forward it directly to their parent operators, while n-ary operators such as
a join or rehash wait until all inputs have received appropriate punctuation
before proceeding."

Those edges, plus a source's stratum and a network message entering an
exchange receiver, are the only boundaries the engine has; a
:class:`Probe` on the :class:`ExecContext` is how anything observes them.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.deltas import Delta
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation


class Probe:
    """The engine's one instrumentation seam.

    When an :class:`ExecContext` carries a probe, each of the five
    boundaries routes its crossing through it: a child handing deltas to
    its parent (:meth:`push`), punctuation handed to a parent
    (:meth:`punctuation`), an operator's stratum end (:meth:`stratum_end`),
    a source's stratum (:meth:`run_stratum`, driven by the executor) and a
    network message entering an exchange receiver (:meth:`message`).

    A subscriber defines any of ``before_<boundary>`` and
    ``after_<boundary>``, called with the receiving operator first.  The
    order is fixed: ``before`` hooks run in subscriber order and ``after``
    hooks in reverse, so the first subscriber wraps the others.  The probe
    is also the network's observer, fanning ``on_send``/``on_deliver``/
    ``on_drop`` out in subscriber order.  It never reorders, repeats or
    skips the crossing itself, so what runs is the unobserved program.
    """

    BOUNDARIES = ("push", "punctuation", "stratum_end", "run_stratum",
                  "message")

    def __init__(self, subscribers):
        subs = tuple(subscribers)

        def hooks(name, order):
            return tuple(getattr(s, name) for s in order if hasattr(s, name))

        self._before = {b: hooks("before_" + b, subs) for b in self.BOUNDARIES}
        self._after = {b: hooks("after_" + b, subs[::-1])
                       for b in self.BOUNDARIES}
        self._network = {name: hooks(name, subs)
                         for name in ("on_send", "on_deliver", "on_drop")}

    def _cross(self, boundary: str, op, call, *args) -> None:
        """Run ``call(*args)`` between the hooks, which get
        ``(op, *args)``."""
        for hook in self._before[boundary]:
            hook(op, *args)
        try:
            call(*args)
        finally:
            for hook in self._after[boundary]:
                hook(op, *args)

    def push(self, child: "Operator", deltas, batch: bool) -> None:
        """``child`` hands ``deltas`` to its parent: ``push_batch`` under
        ``batch``, else ``receive`` of the single delta.  Hooks get
        ``(parent, deltas, port, child)``."""
        op, port = child.parent, child.parent_port
        for hook in self._before["push"]:
            hook(op, deltas, port, child)
        try:
            if batch:
                op.push_batch(deltas, port)
            else:
                op.receive(deltas[0], port)
        finally:
            for hook in self._after["push"]:
                hook(op, deltas, port, child)

    def punctuation(self, child: "Operator", punct: Punctuation) -> None:
        op = child.parent
        self._cross("punctuation", op, op.on_punctuation, punct,
                    child.parent_port)

    def stratum_end(self, op: "Operator", punct: Punctuation) -> None:
        self._cross("stratum_end", op, op.on_stratum_end, punct)

    def run_stratum(self, source: "SourceOperator", stratum: int) -> None:
        self._cross("run_stratum", source, source.run_stratum, stratum)

    def message(self, receiver: "Operator", msg) -> None:
        self._cross("message", receiver, receiver.handle_message, msg)

    def on_send(self, msg, nbytes: int) -> None:
        for hook in self._network["on_send"]:
            hook(msg, nbytes)

    def on_deliver(self, msg) -> None:
        for hook in self._network["on_deliver"]:
            hook(msg)

    def on_drop(self, msg) -> None:
        for hook in self._network["on_drop"]:
            hook(msg)


class RuntimeHooks:
    """Callbacks from operators into the query driver.

    The default implementation is inert so operators can be unit-tested
    standalone; the real driver (:mod:`repro.runtime`) overrides these to
    collect per-iteration metrics.
    """

    def count_tuples(self, n: int = 1) -> None:
        """Record ``n`` tuples processed by some operator."""


class ExecContext:
    """Per-worker execution environment handed to every operator instance.

    ``batch=True`` selects batch-vectorized execution: sources and network
    receivers move ``List[Delta]`` batches through :meth:`Operator.push_batch`
    instead of one virtual :meth:`Operator.receive` call per tuple.  The
    simulated cost accounting is identical in both modes (same charge
    multisets; see :mod:`repro.cluster.cluster`), only wall clock differs.

    ``probe`` is the optional :class:`Probe` every boundary crossing on
    this worker is routed through (the executor attaches one when
    observability or the sanitizer is on).  ``None``, the default, costs
    one ``is None`` test per crossing and nothing inside operator loops.
    """

    def __init__(self, worker, cluster=None, snapshot=None,
                 hooks: Optional[RuntimeHooks] = None,
                 batch: bool = False, probe: Optional[Probe] = None):
        self.worker = worker
        self.cluster = cluster
        self.snapshot = snapshot
        self.hooks = hooks or RuntimeHooks()
        self.batch = batch
        self.probe = probe

    @property
    def node_id(self) -> int:
        return self.worker.id

    @property
    def cost(self):
        return self.worker.cost

    def charge_cpu(self, seconds: float, n: int = 1) -> None:
        self.worker.charge_cpu(seconds, n)

    def charge_tuple(self, per_tuple: Optional[float] = None) -> None:
        self.worker.charge_tuples(1, per_tuple)
        self.hooks.count_tuples(1)

    def charge_tuple_batch(self, n: int, per_tuple: Optional[float] = None) -> None:
        """Charge ``n`` tuples at once — one tally update instead of ``n``
        call chains; same accounting as ``n`` :meth:`charge_tuple` calls."""
        self.worker.charge_tuples(n, per_tuple)
        self.hooks.count_tuples(n)


class Operator:
    """Base class for physical operators.

    Subclasses implement :meth:`process` (one delta on one port) and, if
    stateful, :meth:`on_stratum_end` (called once all inputs delivered the
    stratum's punctuation).  Wiring: each operator has exactly one parent;
    call :meth:`add_input` on the parent for each child to allocate ports.
    """

    #: CPU charged per received tuple, overridable per subclass.
    per_tuple_cost: Optional[float] = None

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self.parent: Optional[Operator] = None
        self.parent_port: int = 0
        self.num_ports = 0
        # How many punctuations each port must see before the stratum is
        # locally complete (exchange receivers need one per sender).
        self._punct_quota: Dict[int, int] = {}
        self._punct_seen: Dict[int, int] = {}
        self._pending_punct: Optional[Punctuation] = None
        self.ctx: Optional[ExecContext] = None

    # -- wiring ---------------------------------------------------------
    def add_input(self, child: "Operator", quota: int = 1) -> int:
        """Register ``child`` as an input; returns the allocated port."""
        port = self.num_ports
        self.num_ports += 1
        self._punct_quota[port] = quota
        self._punct_seen[port] = 0
        child.parent = self
        child.parent_port = port
        return port

    def open(self, ctx: ExecContext) -> None:
        """Bind the operator to its worker context (called once per query)."""
        self.ctx = ctx

    # -- data path -------------------------------------------------------
    def receive(self, delta: Delta, port: int = 0) -> None:
        """Entry point for one delta: charges cost, then processes."""
        self.ctx.charge_tuple(self.per_tuple_cost)
        self.process(delta, port)

    def push_batch(self, deltas: List[Delta], port: int = 0) -> None:
        """Entry point for a batch of deltas.

        Semantically equivalent to ``len(deltas)`` :meth:`receive` calls in
        order (identical outputs, state, and charge multisets).  This default
        charges the whole batch in one tally update and loops ``process``;
        every shipped operator overrides it with a batch loop that also
        coalesces its downstream emissions via :meth:`emit_batch`.
        """
        if not deltas:
            return
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        process = self.process
        for delta in deltas:
            process(delta, port)

    def emit(self, delta: Delta) -> None:
        if self.parent is None:
            raise ExecutionError(f"{self.name} has no parent to emit to")
        probe = self.ctx.probe
        if probe is None:
            self.parent.receive(delta, self.parent_port)
        else:
            probe.push(self, (delta,), False)

    def emit_batch(self, deltas: List[Delta]) -> None:
        """Hand a whole output batch to the parent's batch entry point."""
        if not deltas:
            return
        if self.parent is None:
            raise ExecutionError(f"{self.name} has no parent to emit to")
        probe = self.ctx.probe
        if probe is None:
            self.parent.push_batch(deltas, self.parent_port)
        else:
            probe.push(self, deltas, True)

    def emit_deltas(self, deltas: List[Delta]) -> None:
        """Hand ``deltas`` on in order: one :meth:`emit_batch` under
        ``ctx.batch``, otherwise one :meth:`emit` each."""
        if self.ctx is not None and self.ctx.batch:
            self.emit_batch(deltas)
        else:
            for delta in deltas:
                self.emit(delta)

    # -- punctuation path ---------------------------------------------------
    def on_punctuation(self, punct: Punctuation, port: int = 0) -> None:
        """Count punctuation; once every port met its quota, close the
        stratum locally and forward a single punctuation upward."""
        if port not in self._punct_quota:
            # Edges wired implicitly (tests, network receivers) default to
            # a quota of one punctuation per stratum.
            self._punct_quota[port] = 1
            self._punct_seen[port] = 0
        self._punct_seen[port] += 1
        if self._punct_seen[port] > self._punct_quota[port]:
            raise ExecutionError(
                f"{self.name}: too many punctuations on port {port} "
                f"({self._punct_seen[port]} > quota {self._punct_quota[port]})"
            )
        self._pending_punct = punct
        if self._stratum_complete():
            for p in self._punct_seen:
                self._punct_seen[p] = 0
            probe = self.ctx.probe
            if probe is None:
                self.on_stratum_end(punct)
            else:
                probe.stratum_end(self, punct)
            self.forward_punctuation(punct)

    def _stratum_complete(self) -> bool:
        return all(self._punct_seen[p] >= self._punct_quota[p]
                   for p in self._punct_quota)

    def on_stratum_end(self, punct: Punctuation) -> None:
        """Hook for stateful operators (flush group-by output, etc.)."""

    def forward_punctuation(self, punct: Punctuation) -> None:
        """Hand ``punct`` to the parent (the one punctuation edge)."""
        if self.parent is None:
            return
        probe = self.ctx.probe
        if probe is None:
            self.parent.on_punctuation(punct, self.parent_port)
        else:
            probe.punctuation(self, punct)

    def __repr__(self):
        return f"<{self.name}>"


class SourceOperator(Operator):
    """An operator with no inputs, driven by the runtime (scan, feedback)."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name)

    def run_stratum(self, stratum: int) -> None:  # pragma: no cover
        """Emit this stratum's data followed by punctuation."""
        raise NotImplementedError

    def process(self, delta: Delta, port: int) -> None:  # pragma: no cover
        raise ExecutionError(f"{self.name} is a source; it accepts no input")
