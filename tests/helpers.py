"""Shared test scaffolding: a standalone exec context, a scripted source,
a capture sink and the set semantics of a delta stream."""

from repro.cluster import CostModel, Worker
from repro.common.deltas import Delta, DeltaOp
from repro.common.punctuation import Punctuation
from repro.operators import ExecContext, Operator, SourceOperator


class Feed(SourceOperator):
    """Source handing scripted deltas and punctuation to its parent
    through the same boundaries production uses, so a context's probe
    sees them."""

    def __init__(self):
        super().__init__("Feed")

    def push(self, *deltas: Delta) -> None:
        self.emit_deltas(list(deltas))

    def punctuate(self, stratum: int) -> None:
        self.forward_punctuation(Punctuation.end_of_stratum(stratum))


class Capture(Operator):
    """Terminal operator recording everything it receives."""

    def __init__(self):
        super().__init__("Capture")
        self.deltas = []
        self.puncts = []

    def process(self, delta: Delta, port: int) -> None:
        self.deltas.append(delta)

    def on_punctuation(self, punct: Punctuation, port: int = 0) -> None:
        self.puncts.append(punct)

    def rows(self):
        return [d.row for d in self.deltas]

    def clear(self):
        self.deltas = []
        self.puncts = []


def make_ctx(node_id: int = 0, cost_model: CostModel = None) -> ExecContext:
    worker = Worker(node_id, cost_model or CostModel())
    return ExecContext(worker)


def wire(*chain):
    """Wire operators bottom-up: wire(child, mid, sink) makes child -> mid
    -> sink, opens them all on a fresh context, and returns the context."""
    ctx = make_ctx()
    for lower, upper in zip(chain, chain[1:]):
        upper.add_input(lower)
    for op in chain:
        op.open(ctx)
    return ctx


def apply_deltas(rows: set, deltas) -> set:
    """Apply a sequence of insert/delete/replace deltas to a set of rows.

    This is the reference semantics against which stateful operators are
    property-tested: applying the deltas an operator emits to a materialised
    copy of its output must equal recomputing the output from scratch.
    UPDATE deltas are rejected because their meaning is handler-defined.
    """
    out = set(rows)
    for d in deltas:
        if d.op is DeltaOp.INSERT:
            out.add(d.row)
        elif d.op is DeltaOp.DELETE:
            out.discard(d.row)
        elif d.op is DeltaOp.REPLACE:
            out.discard(d.old)
            out.add(d.row)
        else:
            raise ValueError("apply_deltas cannot interpret UPDATE deltas")
    return out
