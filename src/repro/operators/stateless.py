"""Stateless operators: scan, filter, project, applyFunction.

Delta propagation through stateless operators is mechanical (Section 3.3):
"the operator processes the tuple in the normal fashion (possibly filtering
or projecting the tuple).  Any output tuples receive the same annotation as
the input tuple."  The one exception is applyFunction, "which is stateless
but can create or manipulate annotations in arbitrary ways."
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.deltas import Delta, DeltaOp, map_rows, run
from repro.common.errors import ExecutionError, RecoveryError
from repro.common.punctuation import Punctuation
from repro.operators.base import Operator, SourceOperator


class TableScan(SourceOperator):
    """Reads this worker's local partition of a table.

    Emits every row as an insertion delta during stratum 0, then bare
    punctuation in later strata (base data does not change between strata;
    downstream join state persists).  Disk time is charged for the bytes
    read; CPU per tuple is charged by the parent on receipt.
    """

    def __init__(self, table, name: Optional[str] = None):
        super().__init__(name or f"Scan({table.name})")
        self.table = table

    def run_stratum(self, stratum: int) -> None:
        if stratum == 0:
            self._emit_partition()
        self.forward_punctuation(Punctuation.end_of_stratum(stratum))

    def _emit_partition(self) -> None:
        partition = self.table.partition(self.ctx.node_id)
        if len(partition):
            self.ctx.worker.charge_disk_seek()
            self.ctx.worker.charge_disk_bytes(partition.bytes)
        self.emit_deltas(run(DeltaOp.INSERT, partition))
        self._emit_takeover_rows()

    def reemit_for_recovery(self) -> None:
        """Re-read this worker's partition (plus any takeover ranges it now
        serves) into the pipeline *without* punctuation — used by
        checkpoint-resume recovery to rebuild downstream operator state
        that was reset after a failure."""
        self._emit_partition()

    def _emit_takeover_rows(self) -> None:
        """Serve ranges whose original primary is dead: this node emits the
        replica copies it now owns.  Both a restart on the survivors and
        resume recovery (through :meth:`reemit_for_recovery`) reach it."""
        snapshot = self.ctx.snapshot
        if snapshot is None:
            return
        dead = [n for n in snapshot.nodes if n not in snapshot.live_nodes()]
        if not dead:
            return
        for victim in dead:
            lost = self.table.primaries.get(victim)
            if lost and len(lost) and self.table.replication < 2:
                raise RecoveryError(
                    f"table {self.table.name} has no replicas; data on "
                    f"failed node {victim} is unrecoverable"
                )
        key_index = self.table.key_index
        replica = self.table.replica_partition(self.ctx.node_id)
        taken = []
        for row in replica:  # only keyed tables hold replica rows
            key = row[key_index]
            if (snapshot.preference(key)[0] in dead
                    and snapshot.primary(key) == self.ctx.node_id):
                taken.append(row)
        self.emit_deltas(run(DeltaOp.INSERT, taken))
        if taken:
            self.ctx.worker.charge_disk_seek()


class Filter(Operator):
    """σ: drops deltas whose row fails the predicate.

    A REPLACE whose old and new rows fall on different sides of the
    predicate degrades into a bare insert or delete, per the delta rules.
    """

    def __init__(self, predicate: Callable[[tuple], bool],
                 name: Optional[str] = None, per_tuple_cost=None,
                 udf_calls: int = 0):
        super().__init__(name or "Filter")
        self.predicate = predicate
        self.udf_calls = udf_calls
        if per_tuple_cost is not None:
            self.per_tuple_cost = per_tuple_cost

    def open(self, ctx):
        super().open(ctx)
        if self.per_tuple_cost is None and self.udf_calls:
            # User-defined predicates pay the (batched) UDC invocation cost.
            self.per_tuple_cost = (ctx.cost.cpu_tuple_cost + self.udf_calls
                                   * ctx.cost.udf_cost_per_tuple(batched=True))

    def process(self, delta: Delta, port: int) -> None:
        if delta.op is DeltaOp.REPLACE:
            new_ok = bool(self.predicate(delta.row))
            old_ok = bool(self.predicate(delta.old))
            if new_ok and old_ok:
                self.emit(delta)
            elif new_ok:
                self.emit(Delta(DeltaOp.INSERT, delta.row))
            elif old_ok:
                self.emit(Delta(DeltaOp.DELETE, delta.old))
            return
        if self.predicate(delta.row):
            self.emit(delta)

    def transform_batch(self, deltas) -> List[Delta]:
        """Charge and filter one batch, returning the surviving deltas.

        The batch entry point and :class:`~repro.operators.fused.FusedKernel`
        both drive this, so fused and unfused execution share one body (same
        outputs, same charge multisets).
        """
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        predicate = self.predicate
        out: List[Delta] = []
        append = out.append
        replace = DeltaOp.REPLACE
        for delta in deltas:
            if delta.op is replace:
                new_ok = bool(predicate(delta.row))
                old_ok = bool(predicate(delta.old))
                if new_ok and old_ok:
                    append(delta)
                elif new_ok:
                    append(Delta(DeltaOp.INSERT, delta.row))
                elif old_ok:
                    append(Delta(DeltaOp.DELETE, delta.old))
            elif predicate(delta.row):
                append(delta)
        return out

    def push_batch(self, deltas, port: int = 0) -> None:
        if not deltas:
            return
        self.emit_batch(self.transform_batch(deltas))


class Project(Operator):
    """π: maps each delta's row(s) through a compiled row function."""

    def __init__(self, row_fn: Callable[[tuple], tuple],
                 name: Optional[str] = None):
        super().__init__(name or "Project")
        self.row_fn = row_fn

    def process(self, delta: Delta, port: int) -> None:
        if delta.op is DeltaOp.REPLACE:
            self.emit(delta.with_row(self.row_fn(delta.row),
                                     old=self.row_fn(delta.old)))
        else:
            self.emit(delta.with_row(self.row_fn(delta.row)))

    def transform_batch(self, deltas) -> List[Delta]:
        """Charge and project one batch (shared by ``push_batch`` and
        fused-kernel execution)."""
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        return map_rows(deltas, self.row_fn)

    def push_batch(self, deltas, port: int = 0) -> None:
        if not deltas:
            return
        self.emit_batch(self.transform_batch(deltas))


class ApplyFunction(Operator):
    """Invokes a user-defined function over each tuple (Section 3.2).

    Three shapes are supported:

    * scalar UDF: output row = input row extended with the return value;
    * table-valued UDF: emits one delta per returned row, carrying the
      input annotation;
    * annotation-aware UDF (``delta_aware=True``): the function receives
      the :class:`Delta` itself and returns an iterable of deltas — this is
      how applyFunction "can create or manipulate annotations in arbitrary
      ways".

    UDC invocation cost (the paper's Java-reflection overhead) is charged
    per call, amortized by the engine's input batching.
    """

    def __init__(self, udf, arg_fn: Callable[[tuple], tuple],
                 mode: str = "extend", delta_aware: bool = False,
                 name: Optional[str] = None):
        if mode not in ("extend", "replace"):
            raise ExecutionError(f"unknown ApplyFunction mode {mode!r}")
        super().__init__(name or f"Apply({getattr(udf, 'name', udf)})")
        self.udf = udf
        self.arg_fn = arg_fn
        self.mode = mode
        self.delta_aware = delta_aware
        self.calls = 0

    def _charge_call(self) -> None:
        self.calls += 1
        per_call = getattr(self.udf, "per_call_cost", None)
        if per_call is not None:
            self.ctx.charge_cpu(per_call(self.ctx.cost))
        else:
            self.ctx.charge_cpu(self.ctx.cost.udf_cost_per_tuple(batched=True))

    def _invoke(self, row) -> List[tuple]:
        args = self.arg_fn(row)
        self._charge_call()
        result = self.udf(*args)
        if getattr(self.udf, "table_valued", False):
            rows = [tuple(r) for r in (result or ())]
        else:
            rows = [(result,)]
        if self.mode == "extend":
            return [row + r for r in rows]
        return rows

    def process(self, delta: Delta, port: int) -> None:
        if self.delta_aware:
            self._charge_call()
            for out in self.udf(delta) or ():
                self.emit(out)
            return
        if delta.op is DeltaOp.REPLACE:
            new_rows = self._invoke(delta.row)
            old_rows = self._invoke(delta.old)
            if len(new_rows) == len(old_rows):
                for new, old in zip(new_rows, old_rows):
                    self.emit(Delta(DeltaOp.REPLACE, new, old=old))
            else:
                for old in old_rows:
                    self.emit(Delta(DeltaOp.DELETE, old))
                for new in new_rows:
                    self.emit(Delta(DeltaOp.INSERT, new))
            return
        for out in self._invoke(delta.row):
            self.emit(delta.with_row(out))

    def transform_batch(self, deltas) -> List[Delta]:
        """Charge and apply the UDF over one batch (shared by
        ``push_batch`` and fused-kernel execution)."""
        ctx = self.ctx
        ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        udf = self.udf
        per_call = getattr(udf, "per_call_cost", None)
        call_cost = (per_call(ctx.cost) if per_call is not None
                     else ctx.cost.udf_cost_per_tuple(batched=True))
        out: List[Delta] = []
        calls = 0
        if self.delta_aware:
            for delta in deltas:
                calls += 1
                result = udf(delta)
                if result:
                    out.extend(result)
        else:
            arg_fn = self.arg_fn
            table_valued = getattr(udf, "table_valued", False)
            extend_mode = self.mode == "extend"
            replace = DeltaOp.REPLACE

            def invoke(row):
                result = udf(*arg_fn(row))
                if table_valued:
                    rows = [tuple(r) for r in (result or ())]
                else:
                    rows = [(result,)]
                if extend_mode:
                    return [row + r for r in rows]
                return rows

            for delta in deltas:
                if delta.op is replace:
                    calls += 2
                    new_rows = invoke(delta.row)
                    old_rows = invoke(delta.old)
                    if len(new_rows) == len(old_rows):
                        for new, old in zip(new_rows, old_rows):
                            out.append(Delta(replace, new, old=old))
                    else:
                        for old in old_rows:
                            out.append(Delta(DeltaOp.DELETE, old))
                        for new in new_rows:
                            out.append(Delta(DeltaOp.INSERT, new))
                else:
                    calls += 1
                    for row in invoke(delta.row):
                        out.append(delta.with_row(row))
        self.calls += calls
        ctx.charge_cpu(call_cost, calls)
        return out

    def push_batch(self, deltas, port: int = 0) -> None:
        if not deltas:
            return
        self.emit_batch(self.transform_batch(deltas))
