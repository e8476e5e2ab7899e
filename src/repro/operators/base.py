"""Operator protocol for REX's push-based pipelined execution.

Execution is data-driven (Section 4.2): scans push annotated tuples (deltas)
through a per-worker tree of pipelined operators.  Each operator receives
deltas on numbered input ports via :meth:`Operator.receive` and pushes
results to its parent.  Punctuation (end-of-stratum / end-of-query markers)
flows the same way: "unary operators like selection or aggregation simply
forward it directly to their parent operators, while n-ary operators such as
a join or rehash wait until all inputs have received appropriate punctuation
before proceeding."
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.common.deltas import Delta
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation


class RuntimeHooks:
    """Callbacks from operators into the query driver.

    The default implementation is inert so operators can be unit-tested
    standalone; the real driver (:mod:`repro.runtime`) overrides these to
    collect per-iteration metrics.
    """

    def count_tuples(self, n: int = 1) -> None:
        """Record ``n`` tuples processed by some operator."""

    def count_admitted(self, n: int) -> None:
        """Record ``n`` deltas admitted into the next stratum by a fixpoint."""


class ExecContext:
    """Per-worker execution environment handed to every operator instance.

    ``batch=True`` selects batch-vectorized execution: sources and network
    receivers move ``List[Delta]`` batches through :meth:`Operator.push_batch`
    instead of one virtual :meth:`Operator.receive` call per tuple.  The
    simulated cost accounting is identical in both modes (same charge
    multisets; see :mod:`repro.cluster.cluster`), only wall clock differs.
    """

    def __init__(self, worker, cluster=None, snapshot=None,
                 hooks: Optional[RuntimeHooks] = None, registry=None,
                 batch: bool = False, obs=None, sanitizer=None):
        self.worker = worker
        self.cluster = cluster
        self.snapshot = snapshot
        self.hooks = hooks or RuntimeHooks()
        self.registry = registry
        self.batch = batch
        #: Optional :class:`repro.obs.ObsContext`.  When set, every
        #: operator opened against this context is instrumented (tracing,
        #: per-operator metrics, cost attribution); when ``None`` — the
        #: default — no hook is installed anywhere on the hot path.
        self.obs = obs
        #: Optional :class:`repro.analysis.sanitizer.Sanitizer`.  When set,
        #: stateful operators opened against this context get runtime
        #: delta-invariant checks (REX200-series); ``None`` installs
        #: nothing.
        self.sanitizer = sanitizer

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
        """Bind the operator to its worker context (called once per query).

        With an observability context attached, this is also where the
        operator's entry points get their instrumentation wrappers —
        subclass ``open`` overrides call ``super().open(ctx)`` first, so
        anything they register afterwards (e.g. a network handler) already
        sees the wrapped bound methods.
        """
        self.ctx = ctx
        if ctx.obs is not None:
            ctx.obs.instrument_operator(self, ctx.node_id)
        if ctx.sanitizer is not None:
            ctx.sanitizer.instrument_operator(self, ctx)

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
        self.parent.receive(delta, self.parent_port)

    def emit_batch(self, deltas: List[Delta]) -> None:
        """Hand a whole output batch to the parent's batch entry point."""
        if not deltas:
            return
        if self.parent is None:
            raise ExecutionError(f"{self.name} has no parent to emit to")
        self.parent.push_batch(deltas, self.parent_port)

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
            self.on_stratum_end(punct)
            self.forward_punctuation(punct)

    def _stratum_complete(self) -> bool:
        return all(self._punct_seen[p] >= self._punct_quota[p]
                   for p in self._punct_quota)

    def on_stratum_end(self, punct: Punctuation) -> None:
        """Hook for stateful operators (flush group-by output, etc.)."""

    def forward_punctuation(self, punct: Punctuation) -> None:
        if self.parent is not None:
            self.parent.on_punctuation(punct, self.parent_port)

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
