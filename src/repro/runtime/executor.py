"""The distributed query driver: stratified execution, termination, recovery.

This module plays the role of the paper's *query requestor node* (Section 4):
it disseminates the plan (instantiates the operator tree on every worker
against a partition snapshot), drives strata, counts the fixpoint "votes"
(admitted-delta counts) to decide between end-of-stratum and end-of-query
punctuation, replicates each stratum's Δᵢ set for incremental recovery
(Section 4.3), and unions the result deltas shipped by the workers.
"""

from __future__ import annotations

import dataclasses
import gc
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import IterationMetrics, QueryMetrics
from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError, OptionsError, RecoveryError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes, value_bytes
from repro.net.network import Message, PUNCT_BYTES
from repro.operators import (
    ApplyFunction,
    Collect,
    ExchangeReceiver,
    ExecContext,
    FeedbackSource,
    Filter,
    Fixpoint,
    FusedKernel,
    GroupBy,
    HashJoin,
    Probe,
    Project,
    RehashSender,
    ResultSink,
    RuntimeHooks,
    SourceOperator,
    TableScan,
    Union,
)
from repro.runtime.plan import (
    PApply,
    PCollect,
    PFeedback,
    PFilter,
    PFixpoint,
    PFused,
    PGroupBy,
    PJoin,
    PNode,
    PProject,
    PRehash,
    PScan,
    PUnion,
    PhysicalPlan,
)

_attempt_counter = itertools.count()


@dataclass
class FailureSpec:
    """Inject a crash of ``node`` after stratum ``after_stratum`` completes."""

    after_stratum: int
    node: Optional[int] = None  # default: the live node holding most state


@dataclass
class ExecOptions:
    """Execution policy knobs for one query.

    Suspending the cyclic collector for the query's span is not one of
    them: :meth:`QueryExecutor.execute` does it unconditionally.
    """

    max_strata: int = 200
    feedback_mode: str = "delta"
    """'delta' feeds only the Δᵢ set into the next stratum (REX delta);
    'full' re-feeds the entire mutable set (REX no-delta)."""
    termination: Optional[Callable[[int, "QueryExecutor"], bool]] = None
    """Explicit termination condition, evaluated after each stratum; the
    implicit condition (no new tuples admitted) always applies too."""
    checkpoint_replication: int = 3
    """Copies of each stratum's Δᵢ set, the owner's included (Section
    4.3).  At 2 or more every Δᵢ row ships to the next ``rf - 1`` nodes
    on its key's ring preference list; below 2 nothing is replicated, and
    losing a node of a recursive plan raises :class:`RecoveryError`
    instead of recovering incrementally."""
    failure: Optional[object] = None
    """A :class:`FailureSpec`, or a list of them for repeated failures
    (Section 4.3: incremental recovery "guarantees forward progress even
    in the presence of repeated failures")."""
    recovery: str = "incremental"  # or 'restart'
    batch: bool = True
    """Batch-vectorized execution: operators move List[Delta] batches via
    ``push_batch`` instead of one virtual call per delta.  Simulated
    metrics (seconds, bytes, delta counts, strata) are identical in both
    modes; only wall-clock changes.  Set False for the per-tuple path."""
    obs: Optional[object] = None
    """A :class:`repro.obs.ObsContext` to observe this run with
    (structured tracing, per-operator metrics, EXPLAIN ANALYZE
    attribution).  It subscribes to the run's probe, the engine's one
    instrumentation seam, so an observed run executes the same operator
    loops (fused kernels included) as an unobserved one.  ``None`` — the
    default — costs one ``is None`` test per batch boundary; simulated
    metrics are bit-identical either way."""
    sanitize: str = "off"
    """Runtime delta-invariant checking (:mod:`repro.analysis.sanitizer`,
    REX200-series): ``'off'`` installs nothing, ``'sample'`` verifies a
    deterministic hash-sample of keys, ``'full'`` verifies everything.
    The sanitizer is passive: it never charges simulated resources, so
    :meth:`QueryMetrics.fingerprint` is bit-identical at every level."""
    sanitize_seed: int = 0
    """Seed mixed into the sanitizer's key-sampling hash."""
    perturb: Optional[object] = None
    """A :class:`repro.analysis.determinism.Perturbation`: reorders
    eligible message deliveries and per-stratum worker iteration order
    under a seed.  Used by the determinism checker to hunt schedule races;
    ``None`` leaves the schedule alone."""
    fuse: bool = True
    """Plan fusion: collapse maximal stateless operator chains into
    :class:`~repro.operators.fused.FusedKernel` pipelines
    (:mod:`repro.optimizer.fusion`).  Simulated metrics are bit-identical
    on or off (enforced by ``tests/test_equivalence.py``); only wall
    clock changes.  Set False for the unfused baseline."""
    flight_dir: Optional[str] = None
    """Directory the run's :class:`repro.obs.flight.FlightRecorder` writes
    post-mortem bundles to on a trigger.  Every run keeps a recorder: one
    breadcrumb per stratum boundary plus failure/recovery events, no
    per-tuple hooks, and no effect on simulated metrics.  ``None``
    falls back to the ``REX_FLIGHT_DIR`` environment variable; with
    neither set the bundle is kept in memory only
    (``QueryResult.flight.last_bundle`` / the exception's
    ``rex_flight_bundle`` attribute)."""
    absint: bool = True
    """Let an attached sanitizer use the delta-polarity abstract
    interpretation (:mod:`repro.analysis.absint`, REX3xx): the inference
    runs over the (fused) physical plan at instantiation and the
    sanitizer downgrades shadow replay to cheap polarity assertions on
    operators whose input polarity is proven — a violated proof is a
    hard REX307 error.  Set False for maximal checking (full replay
    everywhere).  Has no effect on unsanitized runs: the operators
    execute the same loops either way, and
    :meth:`QueryMetrics.fingerprint` is bit-identical on or off
    (enforced by ``tests/test_equivalence.py``)."""
    rewrite: bool = True
    """Proof-directed plan rewrites from the column-lineage analysis
    (:mod:`repro.analysis.lineage`, REX4xx): run
    :func:`repro.optimizer.rewrite.rewrite_plan` over the physical tree
    at instantiation (before fusion) and apply the rewrites its facts
    license — filter pushdown below exchanges/projections/extend-applies
    /plain joins, and suffix-truncating projection pushdown through
    exchanges to shrink wire bytes.  Every rewrite requires a proven
    insert-only exact polarity on the stream it touches plus pure,
    exactly-extracted callables, so result rows are identical on or off;
    plans where nothing fires (all three original bench workloads) keep
    :meth:`QueryMetrics.fingerprint` bit-identical as well.  Applied and
    declined candidates are recorded in ``rewrite_decisions``."""

    def __post_init__(self):
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise OptionsError(
                    f"ExecOptions.{name} must be one of {allowed}, got "
                    f"{getattr(self, name)!r}")
        if self.max_strata < 1:
            raise OptionsError(
                f"ExecOptions.max_strata must be >= 1, got {self.max_strata}")
        if self.checkpoint_replication < 0:
            raise OptionsError(
                "ExecOptions.checkpoint_replication must be >= 0, got "
                f"{self.checkpoint_replication}")
        for spec in self.failure_specs():
            if spec.after_stratum < 0:
                raise OptionsError(
                    "ExecOptions.failure must fire after a stratum >= 0, "
                    f"got after_stratum={spec.after_stratum}")

    def failure_specs(self) -> List[FailureSpec]:
        if self.failure is None:
            return []
        if isinstance(self.failure, FailureSpec):
            return [self.failure]
        return list(self.failure)


#: The accepted values of each mode-string option.
_CHOICES = {
    "feedback_mode": ("delta", "full"),
    "recovery": ("incremental", "restart"),
    "sanitize": ("off", "sample", "full"),
}


@dataclass
class QueryResult:
    rows: List[tuple]
    metrics: QueryMetrics
    obs: Optional[object] = None
    """The run's :class:`repro.obs.ObsContext` (if one was attached), with
    its registry published — ready for ``repro.obs.explain_analyze``."""
    sanitizer: Optional[object] = None
    """The run's :class:`repro.analysis.sanitizer.Sanitizer` (when
    ``ExecOptions.sanitize != 'off'``), carrying the REX200-series
    :class:`~repro.analysis.diagnostics.DiagnosticReport`."""
    suppressed_diagnostics: Optional[object] = None
    """Plan diagnostics that were bypassed (``check=False`` / ``--force``):
    the full :class:`~repro.analysis.diagnostics.DiagnosticReport` the
    run would otherwise have refused on."""
    flight: Optional[object] = None
    """The run's :class:`repro.obs.flight.FlightRecorder`: the stratum
    breadcrumb ring, plus ``last_bundle``/``last_path`` if a post-mortem
    dump triggered."""


class _MetricsHooks(RuntimeHooks):
    def __init__(self):
        self.current: Optional[IterationMetrics] = None

    def count_tuples(self, n: int = 1) -> None:
        if self.current is not None:
            self.current.tuples_processed += n


class _WorkerPlan:
    """The operator tree instantiated on one worker."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.sources: List[SourceOperator] = []
        self.feedback: Optional[FeedbackSource] = None
        self.fixpoint: Optional[Fixpoint] = None
        self.receivers: List[ExchangeReceiver] = []
        self.checkpoint_entries: Dict[tuple, tuple] = {}
        #: Every operator instantiated on this worker, in build order.
        self.operators: List = []
        #: Table scans inside the fixpoint's recursive branch — the only
        #: scans checkpoint-resume recovery re-reads (base-case scans feed
        #: the fixpoint itself; re-running them would clobber its state).
        self.recursive_scans: List[TableScan] = []


class QueryExecutor:
    """Executes a :class:`PhysicalPlan` on a :class:`Cluster`."""

    def __init__(self, cluster: Cluster, options: Optional[ExecOptions] = None):
        self.cluster = cluster
        self.options = options or ExecOptions()
        self.snapshot = None
        self.worker_plans: Dict[int, _WorkerPlan] = {}
        self.sink: Optional[ResultSink] = None
        self.metrics = QueryMetrics()
        self._hooks = _MetricsHooks()
        self._exchange_names: Dict[int, str] = {}
        self._attempt = next(_attempt_counter)
        self._collect_exchange = f"collect.a{self._attempt}"
        self._ckpt_exchange = f"ckpt.a{self._attempt}"
        self._fixpoint_key_fn = None
        self._plan: Optional[PhysicalPlan] = None
        self.sanitizer = None
        #: The run's :class:`~repro.operators.Probe`, or ``None`` when
        #: nothing observes it.
        self.probe = None
        self.flight = None
        #: Per-chain :class:`repro.optimizer.fusion.FusionDecision` records
        #: from the fusion pass (empty when ``fuse=False`` / no chains).
        self.fusion_decisions: List = []
        #: Per-candidate :class:`repro.optimizer.rewrite.RewriteDecision`
        #: records from the rewrite pass (empty when ``rewrite=False`` /
        #: no candidates).
        self.rewrite_decisions: List = []
        # Every fixpoint key ever checkpointed: used to detect, on
        # recovery, ranges whose replicas have all been lost.
        self._checkpointed_keys: set = set()

    # ------------------------------------------------------------------
    # Plan instantiation
    # ------------------------------------------------------------------
    def _live_ids(self) -> List[int]:
        return [w.id for w in self.cluster.alive_workers()]

    def _assign_exchanges(self, root: PNode) -> None:
        counter = itertools.count()
        for node in root.walk():
            if isinstance(node, PRehash):
                self._exchange_names[id(node)] = (
                    f"x{next(counter)}.a{self._attempt}"
                )

    def _instantiate(self, plan: PhysicalPlan) -> None:
        self._plan = plan
        self.snapshot = self.cluster.ring.snapshot()
        for dead in (n for n in self.cluster.node_ids()
                     if not self.cluster.workers[n].alive):
            self.snapshot.mark_failed(dead)
        # Fusion runs after validation/analysis (those see the original
        # plan) and rewrites only what the executor builds from.  The
        # rewritten tree contains fresh node objects, so exchange naming
        # and operator construction both walk the *fused* root.
        exec_root = plan.root
        self.rewrite_decisions = []
        if self.options.rewrite:
            # Rewrites run before fusion so inserted projections join the
            # stateless chains fusion collapses.  Imported lazily like
            # fusion below.
            from repro.optimizer.rewrite import rewrite_plan
            table_arity = {
                name: len(self.cluster.catalog.get(name).schema.fields)
                for name in self.cluster.catalog.names()
            }
            exec_root, self.rewrite_decisions = rewrite_plan(
                exec_root, table_arity=table_arity)
        self.fusion_decisions = []
        if self.options.fuse:
            # Imported lazily: repro.optimizer pulls in planner modules
            # that must not be import-cycled with the runtime package.
            from repro.optimizer.fusion import fuse_plan
            exec_root, self.fusion_decisions = fuse_plan(exec_root)
        self._exec_root = exec_root
        self._assign_exchanges(exec_root)
        live = self._live_ids()
        if plan.fixpoint is not None:
            self._fixpoint_key_fn = plan.fixpoint.key_fn
        self.sink = ResultSink(self.cluster.network,
                               exchange=self._collect_exchange,
                               expected_workers=len(live))
        self.metrics.num_nodes = len(live)
        obs = self.options.obs
        if self.options.sanitize != "off" and self.sanitizer is None:
            # Imported lazily: repro.analysis depends on runtime.plan.
            from repro.analysis.sanitizer import Sanitizer
            self.sanitizer = Sanitizer(self.options.sanitize,
                                       seed=self.options.sanitize_seed)
        # One probe carries every observer: the sanitizer first, so its
        # checks stay outside obs's timing frames.
        subscribers = [s for s in (self.sanitizer, obs) if s is not None]
        self.probe = Probe(subscribers) if subscribers else None
        self.cluster.network.observer = self.probe
        # Abstract interpretation over the tree the executor builds from.
        # Only the sanitizer reads its per-node proofs (pushed onto the
        # operator instances in _make_operator), so unsanitized runs skip
        # the inference.
        self._absint_props = None
        if self.sanitizer is not None and self.options.absint:
            from repro.analysis.absint import infer
            self._absint_props, _ = infer(exec_root)
        if self.options.perturb is not None:
            self.options.perturb.install(self.cluster.network)
        for node_id in live:
            worker = self.cluster.worker(node_id)
            if obs is not None:
                obs.instrument_worker(worker)
            ctx = ExecContext(worker, cluster=self.cluster,
                              snapshot=self.snapshot, hooks=self._hooks,
                              batch=self.options.batch, probe=self.probe)
            wp = _WorkerPlan(node_id)
            self.worker_plans[node_id] = wp
            self._build(exec_root, None, ctx, wp, len(live))
            if obs is not None:
                obs.register_operators(wp.operators)
            if self.options.checkpoint_replication >= 2:
                self._register_checkpoint_handler(node_id, wp)

    def _build(self, node: PNode, parent, ctx: ExecContext,
               wp: _WorkerPlan, n_live: int, in_recursive: bool = False):
        """Instantiate ``node`` on one worker; wire it under ``parent``.

        ``in_recursive`` tracks whether we are inside a fixpoint's
        recursive branch — scans found there are recorded for
        checkpoint-resume recovery.
        """
        if isinstance(node, PRehash):
            # Split into a local receiver feeding the parent and a sender
            # terminating the child pipeline.
            receiver = ExchangeReceiver(self._exchange_names[id(node)],
                                        expected_senders=n_live)
            parent.add_input(receiver)
            receiver.open(ctx)
            wp.receivers.append(receiver)
            wp.operators.append(receiver)
            sender = RehashSender(self._exchange_names[id(node)],
                                  key_fn=node.key_fn, broadcast=node.broadcast)
            sender.open(ctx)
            wp.operators.append(sender)
            self._build(node.children[0], sender, ctx, wp, n_live,
                        in_recursive)
            return

        op = self._make_operator(node, ctx, wp)
        if parent is not None:
            parent.add_input(op)
        op.open(ctx)
        wp.operators.append(op)
        if in_recursive and isinstance(op, TableScan):
            wp.recursive_scans.append(op)
        if isinstance(node, PFixpoint):
            self._build(node.children[0], op, ctx, wp, n_live, False)
            self._build(node.children[1], op, ctx, wp, n_live, True)
            return
        for child in node.children:
            self._build(child, op, ctx, wp, n_live, in_recursive)

    def _make_operator(self, node: PNode, ctx: ExecContext, wp: _WorkerPlan):
        op = self._create_operator(node, ctx, wp)
        if self._absint_props is not None:
            self._apply_proofs(node, op)
        return op

    def _apply_proofs(self, node: PNode, op) -> None:
        """Hand the sanitizer the abstract interpretation's verdicts.

        Each attribute set here is a *proof*: the static analysis
        guarantees no other delta kinds reach this operator.  The
        sanitizer asserts the proofs at runtime (a contradiction is a
        hard REX307) and downgrades shadow replay where they hold; the
        operators themselves never read them."""
        props = self._absint_props.of(node)
        if props is None:
            return
        in_pol = props.in_polarity
        if (isinstance(op, (GroupBy, HashJoin, Fixpoint))
                and in_pol is not None and in_pol.exact and in_pol.kinds):
            op.proof_polarity = in_pol.kinds
        if isinstance(op, HashJoin):
            ports = props.port_polarities or ()
            insert_only_ports = frozenset(
                port for port, p in enumerate(ports)
                if not op._uses_handler(port)
                and p.exact and p.kinds and p.kinds <= {DeltaOp.INSERT})
            if insert_only_ports:
                op.proof_insert_only_ports = insert_only_ports
        elif isinstance(op, Fixpoint) and props.monotone:
            op.proof_monotone = True

    def _create_operator(self, node: PNode, ctx: ExecContext,
                         wp: _WorkerPlan):
        if isinstance(node, PCollect):
            return Collect(exchange=self._collect_exchange)
        if isinstance(node, PScan):
            scan = TableScan(self.cluster.catalog.get(node.table))
            wp.sources.append(scan)
            return scan
        if isinstance(node, PFeedback):
            fs = FeedbackSource()
            if wp.feedback is not None:
                raise ExecutionError("multiple feedback leaves on one worker")
            wp.feedback = fs
            wp.sources.append(fs)
            return fs
        if isinstance(node, PFilter):
            return Filter(node.predicate, udf_calls=node.udf_calls)
        if isinstance(node, PProject):
            return Project(node.row_fn)
        if isinstance(node, PApply):
            return ApplyFunction(node.udf_factory(), node.arg_fn,
                                 mode=node.mode, delta_aware=node.delta_aware)
        if isinstance(node, PJoin):
            handler = (node.handler_factory()
                       if node.handler_factory is not None else None)
            join = HashJoin(node.left_key, node.right_key, handler=handler,
                            handler_side=node.handler_side)
            # Stashed so checkpoint-resume recovery can rebuild a fresh
            # handler when it resets the operator's state.
            join._handler_factory = node.handler_factory
            return join
        if isinstance(node, PGroupBy):
            gb = GroupBy(
                node.key_fn, node.specs_factory(), mode=node.mode,
                clear_states_each_stratum=node.clear_states_each_stratum,
                reset_emissions_each_stratum=node.reset_emissions_each_stratum)
            gb._specs_factory = node.specs_factory
            return gb
        if isinstance(node, PFused):
            # Constituents are plain stateless operators; the kernel opens
            # and wires them itself, so they are not re-registered in
            # ``wp.operators`` (recovery resets stateful operators only).
            return FusedKernel([self._make_operator(c, ctx, wp)
                                for c in node.constituents])
        if isinstance(node, PUnion):
            return Union()
        if isinstance(node, PFixpoint):
            handler = (node.while_handler_factory()
                       if node.while_handler_factory is not None else None)
            fp = Fixpoint(key_fn=node.key_fn, semantics=node.semantics,
                          while_handler=handler,
                          admit_unchanged=node.admit_unchanged)
            wp.fixpoint = fp
            return fp
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------------
    # Stratified execution
    # ------------------------------------------------------------------
    def execute(self, plan: PhysicalPlan) -> QueryResult:
        """Run the query to completion; returns rows and metrics.

        Automatic cyclic collection is suspended for the whole span and
        put back as it was found on every exit.  The strata loop
        allocates only acyclic objects (``Delta``, row tuples, lists),
        which reference counting frees by itself, so the collector's
        passes re-walk every loaded table and join bucket and reclaim
        nothing (``tests/test_gc_scope.py`` pins the invariant;
        docs/performance.md has the numbers).  A nested ``execute`` —
        ``recovery="restart"`` — finds the collector already off and
        leaves it off, so only the outermost scope re-enables it, and a
        host that had disabled it keeps it disabled.  The switch is
        process-wide.
        """
        for spec in self.options.failure_specs():
            if spec.node is not None and spec.node not in self.cluster.workers:
                raise OptionsError(
                    f"ExecOptions.failure names node {spec.node}, which is "
                    f"not in the cluster (nodes {self.cluster.node_ids()})")
        collector_was_on = gc.isenabled()
        gc.disable()
        try:
            return self._execute(plan)
        finally:
            # This attempt's handlers close over its operators and this
            # executor; the cluster must not keep them past the query.
            network = self.cluster.network
            network.unregister_exchanges(
                [*self._exchange_names.values(), self._collect_exchange,
                 self._ckpt_exchange])
            if self.options.perturb is not None:
                self.options.perturb.uninstall(network)
            # Last, with nothing allocated after it: re-enabling makes the
            # next container allocation run the overdue young collection,
            # and that pass walks whatever the query built that is still
            # alive.  Past this line an executor the caller did not keep
            # dies with its operator state by reference counting first.
            if collector_was_on:
                gc.enable()

    def _execute(self, plan: PhysicalPlan) -> QueryResult:
        """The query itself, inside :meth:`execute`'s scope."""
        # Imported lazily like the other analysis hooks: the runtime
        # package must not import repro.obs at module load.
        from repro.obs.flight import FlightRecorder, gc_state
        flight = self.flight = FlightRecorder(
            directory=self.options.flight_dir)
        flight.note("query_start", recursive=plan.is_recursive,
                    attempt=self._attempt, **gc_state())
        self.metrics.startup_seconds = self.cluster.cost.rex_query_startup
        try:
            self._instantiate(plan)
            flight.attach(obs=self.options.obs, sanitizer=self.sanitizer)
            restart = self._run_strata(plan)
            if restart is not None:
                return restart
            self._final_flush()
            rows = self.sink.rows()
        except Exception as exc:
            flight.attach(obs=self.options.obs, sanitizer=self.sanitizer)
            flight.record_exception(exc)
            flight.dump("exception", error=exc)
            try:
                exc.rex_flight_bundle = flight.last_bundle
                exc.rex_flight_path = flight.last_path
            except AttributeError:  # slotted exception classes
                pass
            raise
        self.metrics.result_rows = len(rows)
        obs = self.options.obs
        if self.sanitizer is not None and obs is not None:
            self.sanitizer.publish(obs.registry)
        if obs is not None:
            obs.publish()
        if self.sanitizer is not None and self.sanitizer.violations:
            flight.note("sanitizer_trip",
                        violations=self.sanitizer.violations)
            flight.dump("sanitizer", diagnostics=self.sanitizer.report)
        return QueryResult(rows=rows, metrics=self.metrics, obs=obs,
                           sanitizer=self.sanitizer, flight=flight)

    def _run_strata(self, plan: PhysicalPlan) -> Optional[QueryResult]:
        opts = self.options
        obs = opts.obs
        sanitizer = self.sanitizer
        probe = self.probe
        perturb = opts.perturb
        flight = self.flight
        network = self.cluster.network
        recursive = plan.is_recursive
        # Hoisted out of the stratum loop: the live-plan list (recomputed
        # only after a failure changes membership), the failure schedule,
        # and the per-batch obs/checkpoint branch structure that used to
        # be re-evaluated every stratum.
        failures_by_stratum: Dict[int, List[FailureSpec]] = {}
        for spec in opts.failure_specs():
            failures_by_stratum.setdefault(spec.after_stratum,
                                           []).append(spec)
        # Quiet run: no hooks anywhere in the stratum loop.  Only then may
        # the terminal stratum below elide work — and only work that is a
        # no-op on simulated metrics by construction (an empty Δ-set under
        # delta feedback has nothing to move or replicate).
        quiet = (obs is None and sanitizer is None and perturb is None
                 and not failures_by_stratum)
        delta_feedback = opts.feedback_mode == "delta"
        plans = self._live_plans()
        stratum = 0
        while True:
            it = self.metrics.begin_iteration(stratum)
            self._hooks.current = it
            if obs is not None:
                obs.begin_stratum(stratum)
            bytes_before = network.total_bytes
            ordered = (plans if perturb is None
                       else perturb.worker_order(plans, stratum))
            for wp in ordered:
                for source in wp.sources:
                    if probe is None:
                        source.run_stratum(stratum)
                    else:
                        probe.run_stratum(source, stratum)
            network.drain()

            admitted = 0
            mutable = 0
            for wp in plans:
                fp = wp.fixpoint
                if fp is not None:
                    admitted += fp.admitted_this_stratum
                    mutable += fp.mutable_size()
            it.delta_count = admitted
            it.mutable_size = mutable

            pending: Dict[int, List[Delta]] = {}
            if recursive:
                # A quiet run skips this on its terminal stratum: with
                # delta feedback, zero admissions means every fixpoint's
                # pending list is empty — collecting and replicating them
                # would move nothing.
                if not (quiet and delta_feedback and admitted == 0):
                    for wp in plans:
                        fp = wp.fixpoint
                        if fp:
                            out = pending[wp.worker_id] = fp.take_pending(
                                opts.feedback_mode)
                            if obs is not None:
                                # Per-worker Δ-set / mutable-set size series
                                # (Figures 2-3 at node granularity).
                                obs.record_fixpoint(wp.worker_id, stratum,
                                                    len(out),
                                                    fp.mutable_size())
                if obs is not None:
                    # Checkpoint traffic is control-plane cost: charge it
                    # to a named system activity, not an operator.
                    with obs.system_frame("(checkpoint)"):
                        self._replicate_checkpoints(pending)
                        network.drain()
                elif self._replicate_checkpoints(pending):
                    network.drain()
            if sanitizer is not None:
                # The fabric is quiescent: verify exchange conservation.
                sanitizer.end_stratum(stratum)

            # Per-node stratum seconds: obs's skew view.
            node_seconds = {} if obs is not None else None
            it.seconds = (self.cluster.end_stratum_wall_time(node_seconds)
                          + self.cluster.cost.rex_stratum_overhead)
            it.bytes_sent = network.total_bytes - bytes_before
            if obs is not None:
                obs.end_stratum(it, node_seconds)
            flight.on_stratum(it)

            due = failures_by_stratum.get(stratum)
            if due:
                for spec in due:
                    outcome = self._handle_failure(plan, spec, pending)
                    if outcome is not None:
                        return outcome  # restart path returns fresh results
                plans = self._live_plans()

            if not recursive:
                return None
            stop = (admitted == 0
                    or stratum + 1 >= opts.max_strata
                    or (opts.termination is not None
                        and opts.termination(stratum, self)))
            if stop:
                return None
            for wp in plans:
                if wp.feedback is not None and wp.worker_id in pending:
                    wp.feedback.deposit(pending[wp.worker_id])
            stratum += 1

    def _final_flush(self) -> None:
        """Send end-of-query punctuation through every pipeline; stateful
        operators flush final results to the collect sink."""
        final = Punctuation.end_of_query(self.metrics.num_iterations)
        for wp in self._live_plans():
            for source in wp.sources:
                source.forward_punctuation(final)
        self.cluster.network.drain()
        if self.metrics.iterations:
            self.metrics.iterations[-1].seconds += (
                self.cluster.end_stratum_wall_time())
        if not self.sink.done:
            raise ExecutionError("result sink did not receive all final "
                                 "punctuation")

    def _live_plans(self) -> List[_WorkerPlan]:
        return [self.worker_plans[n] for n in self._live_ids()
                if n in self.worker_plans]

    # ------------------------------------------------------------------
    # Incremental checkpoints (Section 4.3)
    # ------------------------------------------------------------------
    def _register_checkpoint_handler(self, node_id: int, wp: _WorkerPlan) -> None:
        key_fn = self._fixpoint_key_fn

        def handle(msg: Message) -> None:
            for delta in msg.deltas:
                key = key_fn(delta.row)
                if delta.op is DeltaOp.DELETE:
                    wp.checkpoint_entries.pop(key, None)
                else:
                    wp.checkpoint_entries[key] = delta.row

        self.cluster.network.register(node_id, self._ckpt_exchange, handle)

    def _replicate_checkpoints(self, pending: Dict[int, List[Delta]]) -> int:
        """Replicate each worker's Δᵢ set to its replica machines.

        Returns the number of messages shipped (so the caller can skip
        draining an untouched fabric): none below two copies, where there
        is nothing to replicate to.  Each delta's wire size is computed
        once and carried on the message as a precomputed size —
        :meth:`~repro.net.network.Message.size_bytes` would recount the
        identical bytes delta by delta.
        """
        if self._fixpoint_key_fn is None:
            return 0
        rf = self.options.checkpoint_replication
        if rf < 2:
            return 0
        key_fn = self._fixpoint_key_fn
        preference = self.snapshot.preference
        add_checkpointed = self._checkpointed_keys.add
        obs = self.options.obs
        sanitizer = self.sanitizer
        network = self.cluster.network
        send = network.send
        sent = 0
        for worker_id, deltas in pending.items():
            batches: Dict[int, List[Delta]] = {}
            nbytes_by_dst: Dict[int, int] = {}
            for delta in deltas:
                key = key_fn(delta.row)
                add_checkpointed(key)
                if sanitizer is not None:
                    sanitizer.record_checkpoint(key, delta)
                nbytes = 1 + row_bytes(delta.row)
                if delta.old is not None:
                    nbytes += row_bytes(delta.old)
                if delta.payload is not None:
                    nbytes += value_bytes(delta.payload)
                for replica in preference(key)[1:rf]:
                    if replica != worker_id:
                        batch = batches.get(replica)
                        if batch is None:
                            batches[replica] = [delta]
                            nbytes_by_dst[replica] = nbytes
                        else:
                            batch.append(delta)
                            nbytes_by_dst[replica] += nbytes
            for dst, batch in batches.items():
                send(Message(
                    src=worker_id, dst=dst,
                    exchange=self._ckpt_exchange, deltas=batch,
                    meta=nbytes_by_dst[dst] + PUNCT_BYTES,
                ))
                sent += 1
            if obs is not None and deltas:
                obs.checkpoint_write(worker_id, len(deltas), len(batches))
        return sent

    # ------------------------------------------------------------------
    # Failure handling (Section 4.3, Figure 12)
    # ------------------------------------------------------------------
    def _handle_failure(self, plan: PhysicalPlan, spec: FailureSpec,
                        pending: Dict[int, List[Delta]]) -> Optional[QueryResult]:
        victim = spec.node
        if victim is None:
            live = self._live_plans()
            victim = max(live, key=lambda wp: (
                wp.fixpoint.mutable_size() if wp.fixpoint else 0,
                wp.worker_id)).worker_id
        self.cluster.fail_node(victim)
        self.snapshot.mark_failed(victim)
        pending.pop(victim, None)
        self.worker_plans.pop(victim, None)
        n_live = len(self._live_ids())
        for wp in self._live_plans():
            for receiver in wp.receivers:
                receiver.set_expected_senders(n_live)
        self.sink.set_expected_workers(n_live)
        self.metrics.recovery_seconds += self.cluster.cost.failure_detection
        self.flight.note("node_failure", node=victim,
                         after_stratum=spec.after_stratum,
                         recovery=self.options.recovery)

        if self.options.recovery == "restart":
            return self._restart(plan)
        obs = self.options.obs
        if self._plan_replays_exactly(plan):
            def recover():
                self._recover_incrementally(victim)
        else:
            def recover():
                self._resume_from_checkpoint(victim, pending)
        if obs is not None:
            with obs.system_frame("(recovery)"):
                recover()
        else:
            recover()
        self.flight.note("recovered", node=victim)
        return None

    def _plan_replays_exactly(self, plan: PhysicalPlan) -> bool:
        """True when every stateful handler in the plan is replay-idempotent
        (min/max-style refinement algebras): restored checkpoint rows can
        then be replayed through surviving downstream operator state without
        double-counting, so :meth:`_recover_incrementally` is exact.
        Anything else — sums, averages — goes through
        :meth:`_resume_from_checkpoint`, which resets downstream state and
        recomputes it from the restored mutable set instead.
        """
        for node in plan.root.walk():
            if isinstance(node, PFixpoint):
                if node.while_handler_factory is not None:
                    handler = node.while_handler_factory()
                    if not getattr(handler, "replay_idempotent", False):
                        return False
            elif isinstance(node, PJoin):
                if node.handler_factory is not None:
                    handler = node.handler_factory()
                    if not getattr(handler, "replay_idempotent", False):
                        return False
            elif isinstance(node, PGroupBy):
                if node.clear_states_each_stratum:
                    continue  # rebuilt from scratch every stratum anyway
                for spec in node.specs_factory():
                    if not getattr(spec.aggregator, "replay_idempotent",
                                   False):
                        return False
        return True

    def _restart(self, plan: PhysicalPlan) -> QueryResult:
        """Discard all progress; re-run the query on the surviving nodes."""
        wasted = self.metrics.total_seconds()
        fresh_options = dataclasses.replace(self.options, failure=None)
        retry = QueryExecutor(self.cluster, fresh_options)
        result = retry.execute(plan)
        result.metrics.recovery_seconds += wasted
        return result

    def _pre_failure_owner(self, victim: int):
        """Function from ring key to the node that served it before
        ``victim`` crashed.

        A key's *pre-failure* owner is the first of its original replicas
        that was still alive before this crash — which may be a takeover
        node from an earlier failure, so repeated failures re-migrate
        inherited ranges correctly ("forward progress even in the case of
        repeated failures", Section 4.3).
        """
        snapshot = self.snapshot
        previously_failed = (set(snapshot.nodes) - set(snapshot.live_nodes())
                             - {victim})

        def pre_failure_owner(ring_key) -> int:
            for owner in snapshot.preference(ring_key):
                if owner not in previously_failed:
                    return owner
            raise RecoveryError("all replicas of a key range are lost")

        return pre_failure_owner

    def _restore_checkpointed_state(self, victim: int, replay: bool) -> int:
        """Mutable-state hand-off from checkpoint replicas: put the
        checkpointed rows of the victim's ranges into their takeover
        nodes' fixpoint state; returns how many.  With ``replay`` each row
        is also deposited on the feedback source, so the next stratum
        pushes it through the recursive pipeline.
        """
        rf = self.options.checkpoint_replication
        if rf < 2 and self._plan.fixpoint is not None:
            # Nothing was replicated, so the victim's mutable state is gone.
            raise RecoveryError(
                f"checkpoint_replication={rf} keeps no Δ-set replicas: "
                f"node {victim}'s mutable state is unrecoverable (use "
                "checkpoint_replication >= 2 or restart recovery)")
        snapshot = self.snapshot
        sanitizer = self.sanitizer
        pre_failure_owner = self._pre_failure_owner(victim)
        restored_keys: set = set()
        for wp in self._live_plans():
            if wp.fixpoint is None:
                continue
            for key, row in list(wp.checkpoint_entries.items()):
                if pre_failure_owner(key) != victim:
                    continue
                if snapshot.primary(key) != wp.worker_id:
                    continue
                if sanitizer is not None:
                    sanitizer.verify_restored(key, row)
                wp.fixpoint.state[key] = row
                if replay and wp.feedback is not None:
                    wp.feedback.deposit([Delta(DeltaOp.INSERT, row)])
                restored_keys.add(key)
        # Coverage check: a checkpointed key whose pre-failure owner was
        # the victim must have been restored somewhere — otherwise every
        # replica of its range is gone and the mutable state is lost.
        for key in self._checkpointed_keys:
            if (key not in restored_keys
                    and pre_failure_owner(key) == victim):
                raise RecoveryError(
                    f"mutable state for key {key!r} is unrecoverable: all "
                    f"{self.options.checkpoint_replication} checkpoint "
                    "replicas have failed (increase "
                    "checkpoint_replication or use restart recovery)")
        return len(restored_keys)

    def _recover_incrementally(self, victim: int) -> None:
        """Resume from the last completed stratum using replicated Δ-sets.

        Takeover nodes (a) re-read the victim's immutable table partitions
        from storage replicas into their local pipelines (rebuilding join
        state), and (b) restore the checkpointed mutable rows for the failed
        ranges into their fixpoint state, replaying them through the
        recursive pipeline in the next stratum so downstream operator state
        catches up.  Correct for refinement algebras that are monotone and
        idempotent (min/max-style, e.g. shortest paths — the algorithm class
        the paper's recovery experiment uses).  :meth:`_handle_failure`
        sends plans with non-idempotent aggregates, such as PageRank sums,
        to :meth:`_resume_from_checkpoint` instead.
        """
        dead = set(self.snapshot.nodes) - set(self.snapshot.live_nodes())
        pre_failure_owner = self._pre_failure_owner(victim)

        # (a) immutable data hand-off from storage replicas: every row the
        # victim was serving (its own ranges plus any it inherited).
        emissions = []  # (scan, delta), in per-row emission order
        reread_total = 0
        for table_name in self._plan.tables():
            table = self.cluster.catalog.get(table_name)
            if table.replication < 2:
                # Nobody inherits an unreplicated range, so only the
                # victim's own partition can be lost — keyed or not.
                if len(table.partition(victim)):
                    raise RecoveryError(
                        f"table {table.name} has no replicas; data on "
                        f"node {victim} is unrecoverable")
                continue
            key_index = table._key_index
            lost_rows = []
            # Sorted: set order is unordered and these rows feed emission
            # order downstream (the sanitizer's REX106 lint catches this).
            for dead_node in sorted(dead):
                lost_rows.extend(table.primaries.get(dead_node) or ())
            for row in lost_rows:
                ring_key = row[key_index]
                if pre_failure_owner(ring_key) != victim:
                    continue
                node_id = self.snapshot.primary(ring_key)
                wp = self.worker_plans.get(node_id)
                if wp is None:
                    continue
                worker = self.cluster.worker(node_id)
                worker.charge_disk_bytes(64)
                for scan in wp.sources:
                    if (isinstance(scan, TableScan)
                            and scan.table.name == table_name):
                        emissions.append((scan, Delta(DeltaOp.INSERT, row)))
                reread_total += 1
        # Maximal runs of consecutive emissions by one scan keep the send
        # order, and so the message boundaries, of per-row emission.
        for scan, run in itertools.groupby(emissions, key=lambda e: e[0]):
            scan.emit_deltas([delta for _, delta in run])
        self.cluster.network.drain()

        # (b) mutable-state hand-off from checkpoint replicas.
        restored = self._restore_checkpointed_state(victim, replay=True)
        if self.options.obs is not None:
            self.options.obs.checkpoint_restore(victim, restored,
                                                reread_total)
        self.metrics.recovery_seconds += (
            self.cluster.end_stratum_wall_time())

    def _resume_from_checkpoint(self, victim: int,
                                pending: Dict[int, List[Delta]]) -> None:
        """Recovery for plans whose handlers are *not* replay-idempotent
        (PageRank's sums, K-means' averages): replaying restored rows into
        surviving downstream state would double-count contributions, so
        instead we (a) reset every downstream mutable operator (group-by
        states, join buckets, fresh delta handlers), (b) re-read the
        recursive branch's immutable scans to rebuild join build sides,
        (c) restore the victim's checkpointed mutable rows into the
        surviving fixpoints, and (d) re-feed the *entire* mutable set into
        the next stratum.  The next stratum is then a from-scratch
        recomputation over the checkpointed vector — exactly one Jacobi /
        Lloyd step, as if the query had been started from that state.
        """
        sanitizer = self.sanitizer
        # (a) reset downstream mutable state on every survivor.
        for wp in self._live_plans():
            for op in wp.operators:
                if isinstance(op, GroupBy):
                    op.groups.clear()
                    op._dirty.clear()
                    factory = getattr(op, "_specs_factory", None)
                    if factory is not None:
                        op.specs = list(factory())
                elif isinstance(op, HashJoin):
                    op.buckets.clear()
                    factory = getattr(op, "_handler_factory", None)
                    if op.handler is not None and factory is not None:
                        op.handler = factory()
                if sanitizer is not None:
                    sanitizer.reset_operator(op)

        # (b) rebuild immutable join state: re-read every recursive-branch
        # scan (each survivor's own partition plus takeover ranges of the
        # dead) without punctuation.  Base-case scans are *not* re-run —
        # their output feeds the fixpoint, whose state we are restoring.
        reread_total = 0
        for wp in self._live_plans():
            for scan in wp.recursive_scans:
                scan.reemit_for_recovery()
                reread_total += len(scan.table.partition(wp.worker_id))
        self.cluster.network.drain()
        # Rows routed through a rehash must ship now, not sit in sender
        # batch buffers until the next punctuation.
        for wp in self._live_plans():
            for op in wp.operators:
                if isinstance(op, RehashSender):
                    for dst in list(op._buffers):
                        op._flush(dst)
        self.cluster.network.drain()

        # (c) restore the checkpointed mutable rows for the victim's ranges.
        restored = self._restore_checkpointed_state(victim, replay=False)

        # (d) re-feed the full mutable set: with downstream state reset,
        # the Δ-sets pending from the failed stratum are superseded.
        for wp in self._live_plans():
            if wp.fixpoint is not None and wp.feedback is not None:
                pending[wp.worker_id] = [
                    Delta(DeltaOp.INSERT, row)
                    for row in wp.fixpoint.state.values()
                ]
        if self.options.obs is not None:
            self.options.obs.checkpoint_restore(victim, restored,
                                                reread_total)
        self.metrics.recovery_seconds += (
            self.cluster.end_stratum_wall_time())
