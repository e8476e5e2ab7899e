"""Pipelined group-by with delta-aware aggregate state.

Section 3.3's take-aways, implemented literally: (1) the operator's internal
state maps each grouping key to aggregate-function-specific intermediate
state; (2) on receiving a delta the operator determines the key, then each
aggregate function updates its own intermediate state and decides what to
emit.  Built-ins handle insert/delete/replace (and numeric value-updates);
everything else needs a UDA.

Emission: in ``stratum`` mode (the default, matching the paper's punctuated
execution) dirty groups are flushed when the stratum's punctuation arrives —
the first output for a key is an insertion, subsequent changed outputs are
replacements, and a group whose contributors all disappear emits a deletion.
``stream`` mode flushes after every delta (streamed partial aggregation,
Section 4.2), trading more output deltas for no buffering delay.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes
from repro.operators.base import Operator
from repro.udf.aggregates import AggregateSpec
from repro.udf.builtins import ArgMin, Sum


class _Group:
    __slots__ = ("states", "live", "last")

    def __init__(self, states: List[Any]):
        self.states = states
        self.live = 0          # net contributing tuples (insert - delete)
        self.last = None       # last emitted output row, if any


class GroupBy(Operator):
    """Hash aggregation keyed by a compiled key extractor."""

    #: Proven input kind set from the delta-polarity abstract
    #: interpretation (:mod:`repro.analysis.absint`), set by the executor
    #: on sanitized runs when the input polarity is statically exact.
    #: Only the sanitizer reads it (REX307 on contradiction).
    proof_polarity: Optional[frozenset] = None

    def __init__(self, key_fn: Callable[[tuple], tuple],
                 specs: Sequence[AggregateSpec],
                 mode: str = "stratum",
                 clear_states_each_stratum: bool = False,
                 reset_emissions_each_stratum: bool = False,
                 name: Optional[str] = None):
        if mode not in ("stratum", "stream"):
            raise ExecutionError(f"unknown GroupBy mode {mode!r}")
        super().__init__(name or "GroupBy")
        self.key_fn = key_fn
        self.specs = list(specs)
        self.mode = mode
        self.clear_states_each_stratum = clear_states_each_stratum
        self.reset_emissions_each_stratum = reset_emissions_each_stratum
        self.groups: Dict[tuple, _Group] = {}
        self._dirty: Dict[tuple, None] = {}  # insertion-ordered set

    def open(self, ctx):
        super().open(ctx)
        self.per_tuple_cost = ctx.cost.cpu_tuple_cost + ctx.cost.hash_op_cost

    # -- state updates --------------------------------------------------
    def _group(self, key: tuple) -> _Group:
        self.ctx.worker.charge_state_access()
        group = self.groups.get(key)
        if group is None:
            group = _Group([spec.aggregator.init_state() for spec in self.specs])
            self.groups[key] = group
            self.ctx.worker.add_state_bytes(row_bytes(key) + 32)
        return group

    def process(self, delta: Delta, port: int) -> None:
        if delta.op is DeltaOp.REPLACE:
            old_key = self.key_fn(delta.old)
            new_key = self.key_fn(delta.row)
            if old_key != new_key:
                # The replacement straddles two groups: decompose.
                self.process(Delta(DeltaOp.DELETE, delta.old), port)
                self.process(Delta(DeltaOp.INSERT, delta.row), port)
                return
            key = new_key
        else:
            key = self.key_fn(delta.row)
        group = self._group(key)

        if delta.op is DeltaOp.INSERT:
            group.live += 1
        elif delta.op is DeltaOp.DELETE:
            group.live -= 1
        elif delta.op is DeltaOp.UPDATE:
            # A value-update keeps the group alive even if nothing was
            # ever inserted (PageRank's diff stream works this way).
            group.live = max(group.live, 1)

        for i, spec in enumerate(self.specs):
            value = spec.arg(delta.row) if delta.op is not DeltaOp.UPDATE else None
            old_value = spec.arg(delta.old) if delta.op is DeltaOp.REPLACE else None
            per_delta_cost = getattr(spec.aggregator, "per_delta_cost", None)
            if per_delta_cost is not None:
                self.ctx.charge_cpu(per_delta_cost(self.ctx.cost))
            elif delta.op is DeltaOp.UPDATE:
                # δ(E) payloads are interpreted by user-defined handler
                # code; charge the UDC invocation cost.
                self.ctx.charge_cpu(self.ctx.cost.udf_cost_per_tuple(batched=True))
            group.states[i] = spec.aggregator.agg_state(
                group.states[i], delta, value, old_value
            )

        if self.mode == "stream":
            self._flush_key(key, group)
        else:
            self._dirty[key] = None

    def push_batch(self, deltas, port: int = 0) -> None:
        """The production loop for both modes: one tuple charge, the fold,
        then the stream-mode outputs handed on as one batch."""
        if not deltas:
            return
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        out: List[Delta] = []
        self._fold(deltas, out)
        self.emit_batch(out)

    def _fold(self, deltas, out: List[Delta]) -> None:
        """Fold ``deltas`` in order, amortizing lookups and per-spec
        dispatch; stream mode flushes each delta's group into ``out``."""
        ctx = self.ctx
        key_fn = self.key_fn
        groups = self.groups
        dirty = self._dirty
        stream = self.mode == "stream"
        specs = self.specs
        worker = ctx.worker
        charge_state_access = worker.charge_state_access
        # charge_state_access is a no-op until state spills past the
        # memory budget; guard with an inline compare in the hot loop.
        memory_budget = worker.cost.worker_memory_bytes
        charge_cpu = ctx.charge_cpu
        cost = ctx.cost
        # Hoist per-spec dispatch out of the loop: (arg, agg_state, charge).
        spec_plan = []
        for spec in specs:
            per_delta_cost = getattr(spec.aggregator, "per_delta_cost", None)
            spec_plan.append((
                spec.arg, spec.aggregator.agg_state,
                per_delta_cost(cost) if per_delta_cost is not None else None,
            ))
        udf_cost = cost.udf_cost_per_tuple(batched=True)
        insert, delete = DeltaOp.INSERT, DeltaOp.DELETE
        replace, value_update = DeltaOp.REPLACE, DeltaOp.UPDATE
        # CPU charges are constants per spec, so count them in the loop
        # and charge once per call — the worker's tally accounting makes
        # n charges of v and one charge of (v, n) the same multiset.
        charge_counts = [0] * len(spec_plan)
        udf_charges = 0
        if len(spec_plan) == 1:
            s_arg, s_agg_state, s_per_delta = spec_plan[0]
            single = True
            # Exact-class check so the running-SUM δ fold (PageRank's hot
            # path) can be inlined below; Sum subclasses keep the generic
            # agg_state call.
            s_sum_fast = (specs[0].aggregator.__class__ is Sum
                          and s_per_delta is None)
            # Same idea for ArgMin inserts (SSSP's offer stream): the
            # multiset add is inlined below with _key's exact (value, id)
            # ordering.  ArgMax keeps the generic call (_Rev wrapping).
            s_argmin_fast = (specs[0].aggregator.__class__ is ArgMin
                             and s_per_delta is None)
        else:
            single = False
            s_sum_fast = s_argmin_fast = False
        for delta in deltas:
            op = delta.op
            row = delta.row
            key = key_fn(row)
            if op is replace and key_fn(delta.old) != key:
                # The replacement straddles two groups: decompose, keeping
                # both halves' outputs at this delta's place in ``out``.
                self._fold((Delta(delete, delta.old), Delta(insert, row)),
                           out)
                continue
            if worker.state_bytes > memory_budget:
                charge_state_access()
            try:
                group = groups[key]
            except KeyError:
                group = _Group([spec.aggregator.init_state()
                                for spec in specs])
                groups[key] = group
                worker.add_state_bytes(row_bytes(key) + 32)
            if op is insert:
                group.live += 1
                folded = s_argmin_fast
                if folded:
                    ident, value = s_arg(row)
                    # ArgMin.agg_state's INSERT branch with _key and the
                    # multiset add inlined (no charge: INSERT carries no
                    # per-delta or UDC cost on this path).
                    state0 = group.states[0]
                    k = (value, ident)
                    mlive = state0._live
                    mlive[k] = mlive.get(k, 0) + 1
                    state0.size += 1
                    if not state0._stale:
                        best = state0._best
                        if best is None or k < best:
                            state0._best = k
            elif op is value_update:
                if group.live < 1:
                    group.live = 1
                payload = delta.payload
                # Same fold, charge, and float-operation order as
                # Sum.agg_state's UPDATE branch; non-plain-numeric
                # payloads (incl. bool) take the generic call.
                folded = s_sum_fast and (payload.__class__ is float
                                         or payload.__class__ is int)
                if folded:
                    state0 = group.states[0]
                    if state0["count"] < 1:
                        state0["count"] = 1
                    state0["sum"] += payload
                    udf_charges += 1
            else:
                folded = False
                if op is delete:
                    group.live -= 1
            if not folded:
                is_update = op is value_update
                states = group.states
                if single:
                    if s_per_delta is not None:
                        charge_counts[0] += 1
                    elif is_update:
                        udf_charges += 1
                    states[0] = s_agg_state(
                        states[0], delta,
                        None if is_update else s_arg(row),
                        s_arg(delta.old) if op is replace else None)
                else:
                    i = 0
                    for arg, agg_state, per_delta in spec_plan:
                        value = None if is_update else arg(row)
                        old_value = arg(delta.old) if op is replace else None
                        if per_delta is not None:
                            charge_counts[i] += 1
                        elif is_update:
                            udf_charges += 1
                        states[i] = agg_state(states[i], delta, value,
                                              old_value)
                        i += 1
            if stream:
                self._flush_key(key, group, out)
            else:
                dirty[key] = None
        for i, (_, _, per_delta) in enumerate(spec_plan):
            if charge_counts[i]:
                charge_cpu(per_delta, charge_counts[i])
        if udf_charges:
            charge_cpu(udf_cost, udf_charges)

    # -- emission ----------------------------------------------------------
    def _flush_key(self, key: tuple, group: _Group,
                   out: Optional[List[Delta]] = None) -> None:
        emit = self.emit if out is None else out.append
        specs = self.specs
        if len(specs) == 1:
            # Single-aggregate flush (the common shape for the benchmark
            # workloads): skip the generator/zip machinery per key.
            value = specs[0].aggregator.agg_result(group.states[0])
            outputs = (value,)
            empty = group.live <= 0 and value is None
        else:
            outputs = tuple(spec.aggregator.agg_result(state)
                            for spec, state in zip(specs, group.states))
            empty = group.live <= 0 and all(v is None for v in outputs)
        if empty:
            if group.last is not None:
                emit(Delta(DeltaOp.DELETE, group.last))
            del self.groups[key]
            return
        row = key + outputs
        if group.last is None:
            emit(Delta(DeltaOp.INSERT, row))
        elif row != group.last:
            emit(Delta(DeltaOp.REPLACE, row, old=group.last))
        group.last = row

    def on_stratum_end(self, punct: Punctuation) -> None:
        out: List[Delta] = []
        for key in self._dirty:
            group = self.groups.get(key)
            if group is not None:
                self._flush_key(key, group, out)
        self.emit_deltas(out)
        self._dirty.clear()
        if self.clear_states_each_stratum:
            # Re-aggregation mode (REX no-delta / Hadoop-style): aggregate
            # state is rebuilt from scratch every iteration; only the
            # last-emitted map survives so replacements stay correct.
            for group in self.groups.values():
                group.states = [spec.aggregator.init_state()
                                for spec in self.specs]
                group.live = 0
        if self.reset_emissions_each_stratum:
            # Fully stratum-scoped output (wrapped Hadoop reduce tasks):
            # every stratum's flush stands alone as fresh insertions.
            self.groups.clear()

    def state_size(self) -> int:
        return len(self.groups)
