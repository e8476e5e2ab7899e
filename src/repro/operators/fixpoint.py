"""The while/fixpoint operator governing recursion (Sections 3.2 and 4.2).

"The fixpoint operator has a dual function: it forwards its input data back
to the input of one operator in the recursive query plan, and also removes
duplicate tuples according to a query-specified key, by maintaining a set of
processed tuples."

Port 0 receives the base case (active in stratum 0); port 1 receives the
recursive case (strata >= 1).  Deltas that survive duplicate elimination are
*admitted* into the pending Δᵢ set; the runtime driver collects pending
counts from every worker's fixpoint (the punctuation "vote" to the
requestor), decides termination, and on continuation feeds the pending set
to the :class:`FeedbackSource` at the leaf of the recursive sub-plan.

Duplicate-elimination semantics:

* ``keyed``  — the paper's ``FIXPOINT BY k``: state maps key -> row; an
  arriving row equal to the stored row is a duplicate derivation and is
  dropped; a differing row *refines* the state (replacement) and is
  admitted.  This is the state-refinement at the heart of the paper.
* ``set``    — plain set semantics over whole rows.
* ``bag``    — UNION ALL with no elimination (termination must be explicit
  or bounded); used by the no-delta configuration.

A user :class:`~repro.udf.aggregates.WhileDeltaHandler` overrides all of the
above, receiving the mutable while-relation and each delta.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.deltas import Delta, DeltaOp, run
from repro.common.errors import ExecutionError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes
from repro.operators.base import Operator, SourceOperator
from repro.udf.aggregates import WhileDeltaHandler, as_deltas

BASE_PORT = 0
RECURSIVE_PORT = 1


class Fixpoint(Operator):
    """Fixpoint/while state: dedup, refinement, and the pending Δᵢ set."""

    #: Proofs from the delta-polarity abstract interpretation
    #: (:mod:`repro.analysis.absint`), set by the executor on sanitized
    #: runs; only the sanitizer reads them.  ``proof_polarity`` is the
    #: statically proven input kind set (a contradiction is REX307);
    #: ``proof_monotone`` (REX301) lets the sanitizer downgrade shadow
    #: replay to the cheap assertion mode.
    proof_polarity: Optional[frozenset] = None
    proof_monotone: bool = False

    def __init__(self, key_fn: Optional[Callable[[tuple], tuple]] = None,
                 semantics: str = "keyed",
                 while_handler: Optional[WhileDeltaHandler] = None,
                 admit_unchanged: bool = False,
                 name: Optional[str] = None):
        if semantics not in ("keyed", "set", "bag"):
            raise ExecutionError(f"unknown fixpoint semantics {semantics!r}")
        if semantics == "keyed" and key_fn is None and while_handler is None:
            raise ExecutionError("keyed fixpoint requires a key function")
        super().__init__(name or "Fixpoint")
        self.key_fn = key_fn
        self.semantics = semantics
        self.while_handler = while_handler
        self.admit_unchanged = admit_unchanged
        self.state: Dict[tuple, tuple] = {}   # keyed/while-handler state
        self.row_set: set = set()             # set-semantics state
        self.pending: List[Delta] = []
        self.admitted_this_stratum = 0

    # -- delta admission ---------------------------------------------------
    def _admit(self, delta: Delta) -> None:
        self.pending.append(delta)
        self.admitted_this_stratum += 1

    def process(self, delta: Delta, port: int) -> None:
        if self.while_handler is not None:
            self.ctx.charge_cpu(self.ctx.cost.udf_cost_per_tuple(batched=True))
            for out in as_deltas(None, self.while_handler.update(self.state, delta)):
                self._admit(out)
            return
        if self.semantics == "bag":
            self._admit(delta)
            return
        if self.semantics == "set":
            self._process_set(delta)
            return
        self._process_keyed(delta)

    def push_batch(self, deltas, port: int = 0) -> None:
        """Batched duplicate-elimination against the Δ-set: one charge for
        the batch, handler/dedup loop with locals bound, admission counters
        updated once."""
        if not deltas:
            return
        ctx = self.ctx
        ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        pending = self.pending
        admitted_before = len(pending)
        handler = self.while_handler
        if handler is not None:
            update = handler.update
            state = self.state
            for delta in deltas:
                result = update(state, delta)
                if result:
                    pending.extend(as_deltas(None, result))
            ctx.charge_cpu(ctx.cost.udf_cost_per_tuple(batched=True),
                           len(deltas))
        elif self.semantics == "bag":
            pending.extend(deltas)
        elif self.semantics == "set":
            process_set = self._process_set
            for delta in deltas:
                process_set(delta)
            return  # _process_set already maintained the admission counters
        else:
            # Keyed dedup/refinement inlined with locals bound (the hot
            # path for every recursive benchmark).
            key_fn = self.key_fn
            state = self.state
            add_state_bytes = ctx.worker.add_state_bytes
            admit_unchanged = self.admit_unchanged
            append = pending.append
            insert, delete = DeltaOp.INSERT, DeltaOp.DELETE
            replace = DeltaOp.REPLACE
            for delta in deltas:
                op = delta.op
                if op is delete:
                    key = key_fn(delta.row)
                    current = state.pop(key, None)
                    if current is not None:
                        append(Delta(delete, current))
                    continue
                if op is not insert and op is not replace:
                    raise ExecutionError(
                        "keyed fixpoint cannot interpret UPDATE deltas; "
                        "supply a while delta handler"
                    )
                row = delta.row
                key = key_fn(row)
                current = state.get(key)
                if current is None:
                    state[key] = row
                    add_state_bytes(row_bytes(row))
                    append(Delta(insert, row))
                elif current == row:
                    if admit_unchanged:
                        append(Delta(insert, row))
                else:
                    state[key] = row
                    append(Delta(replace, row, old=current))
        self.admitted_this_stratum += len(pending) - admitted_before

    def _process_set(self, delta: Delta) -> None:
        if delta.op in (DeltaOp.INSERT, DeltaOp.UPDATE):
            if delta.row not in self.row_set:
                self.row_set.add(delta.row)
                self.ctx.worker.add_state_bytes(row_bytes(delta.row))
                self._admit(Delta(DeltaOp.INSERT, delta.row))
            elif self.admit_unchanged:
                self._admit(Delta(DeltaOp.INSERT, delta.row))
        elif delta.op is DeltaOp.DELETE:
            if delta.row in self.row_set:
                self.row_set.discard(delta.row)
                self._admit(delta)
        elif delta.op is DeltaOp.REPLACE:
            self._process_set(Delta(DeltaOp.DELETE, delta.old))
            self._process_set(Delta(DeltaOp.INSERT, delta.row))

    def _process_keyed(self, delta: Delta) -> None:
        if delta.op is DeltaOp.DELETE:
            key = self.key_fn(delta.row)
            current = self.state.pop(key, None)
            if current is not None:
                self._admit(Delta(DeltaOp.DELETE, current))
            return
        if delta.op is DeltaOp.UPDATE:
            raise ExecutionError(
                "keyed fixpoint cannot interpret UPDATE deltas; "
                "supply a while delta handler"
            )
        # INSERT and REPLACE: what matters is the new row image; the
        # operator keeps its own notion of the previous row per key.
        row = delta.row
        key = self.key_fn(row)
        current = self.state.get(key)
        if current is None:
            self.state[key] = row
            self.ctx.worker.add_state_bytes(row_bytes(row))
            self._admit(Delta(DeltaOp.INSERT, row))
        elif current == row:
            if self.admit_unchanged:
                self._admit(Delta(DeltaOp.INSERT, row))
        else:
            self.state[key] = row
            self._admit(Delta(DeltaOp.REPLACE, row, old=current))

    # -- stratum protocol -------------------------------------------------
    def forward_punctuation(self, punct: Punctuation) -> None:
        """The stratum ends here; only end-of-query flows to the output."""
        if punct.is_final:
            self._flush_final()
            super().forward_punctuation(punct)

    def _flush_final(self) -> None:
        """Emit the final while-relation to the output (the query result)."""
        self.emit_deltas(self._relation())

    def _relation(self) -> List[Delta]:
        """The whole mutable set as one run of insertions."""
        rows = (sorted(self.row_set) if self.semantics == "set"
                else self.state.values())
        return run(DeltaOp.INSERT, rows)

    def take_pending(self, mode: str = "delta") -> List[Delta]:
        """Hand the Δᵢ set (or, for no-delta execution, the full mutable
        set) to the driver for feedback into the next stratum."""
        if mode == "delta":
            out, self.pending = self.pending, []
        elif mode == "full":
            self.pending = []
            out = self._relation()
        else:
            raise ExecutionError(f"unknown feedback mode {mode!r}")
        self.admitted_this_stratum = 0
        return out

    def mutable_size(self) -> int:
        return len(self.row_set) if self.semantics == "set" else len(self.state)


class FeedbackSource(SourceOperator):
    """The "fixpoint receiver" at the leaf of the recursive sub-plan.

    The driver deposits each stratum's feedback deltas here; running the
    stratum pushes them into the recursive pipeline followed by punctuation.
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name or "FeedbackSource")
        self.queue: List[Delta] = []

    def deposit(self, deltas: List[Delta]) -> None:
        self.queue.extend(deltas)

    def run_stratum(self, stratum: int) -> None:
        batch, self.queue = self.queue, []
        self.emit_deltas(batch)
        self.forward_punctuation(Punctuation.end_of_stratum(stratum))
