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

import hashlib
import linecache
import textwrap
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.deltas import Delta, DeltaOp
from repro.common.errors import ExecutionError, UDFError
from repro.common.punctuation import Punctuation
from repro.common.sizes import row_bytes
from repro.operators.base import Operator
from repro.operators.expressions import _code
from repro.udf.aggregates import AggregateSpec, fold_templates


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
        # (Recovery may swap in fresh specs of the same shape.)
        self._fold, self._flush = _compile(self.specs, mode)

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
        """The production loop for both modes: one tuple charge, the
        generated fold, then the stream-mode outputs handed on as one
        batch."""
        if not deltas:
            return
        self.ctx.charge_tuple_batch(len(deltas), self.per_tuple_cost)
        out: List[Delta] = []
        self._fold(self, deltas, out)
        self.emit_batch(out)

    # -- emission ----------------------------------------------------------
    def _flush_key(self, key: tuple, group: _Group,
                   out: Optional[List[Delta]] = None) -> None:
        emit = self.emit if out is None else out.append
        outputs = tuple(spec.aggregator.agg_result(state)
                        for spec, state in zip(self.specs, group.states))
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
        if self.ctx.batch:
            self._flush(self, out)
        else:  # the per-tuple reference
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


# -- the generated fold ----------------------------------------------------
# One (fold, flush) pair per plan shape (spec templates or calls, mode and
# charge plan): ``process`` over a batch and ``_flush_key`` over the dirty
# keys, with each builtin's templates inlined.  Per-spec CPU charges are
# counted and charged (c, n) once, the same tally as n charges of c.  Both
# take the operator as an argument: the module-level cache reaches none.

_FOLD = """\
def fold(_op, _deltas, _out):
    _key_fn, _groups, _dirty = _op.key_fn, _op.groups, _op._dirty
    _worker, _specs = _op.ctx.worker, _op.specs
    _budget = _worker.cost.worker_memory_bytes
{prologue}
    _n = _u = 0
    for _delta in _deltas:
        _kind, _row = _delta.op, _delta.row
        _key = _key_fn(_row)
        if _kind is _REPLACE and _key_fn(_delta.old) != _key:
            fold(_op, (Delta(_DELETE, _delta.old), Delta(_INSERT, _row)), _out)
            continue
        if _worker.state_bytes > _budget:  # else a no-op: nothing spilled
            _worker.charge_state_access()
        try:
            _group = _groups[_key]
        except KeyError:
            _group = _groups[_key] = _Group([{init}])
            _worker.add_state_bytes(row_bytes(_key) + 32)
        _states = _group.states
        if _kind is _INSERT:
            _group.live += 1
{INSERT}
        elif _kind is _UPDATE:
            if _group.live < 1:
                _group.live = 1
            p = _delta.payload
{UPDATE}
        elif _kind is _DELETE:
            _group.live -= 1
{DELETE}
        else:
            _old = _delta.old
{REPLACE}
{mark}
{charges}


def flush(_op, _out):
    _groups, _specs = _op.groups, _op.specs
{prologue}
    for _key in _op._dirty:
        _group = _groups.get(_key)
        if _group is not None:
            _states = _group.states
{flush}
"""

_FLUSH_KEY = """\
{outputs}
if _group.live <= 0{empty}:
    if _group.last is not None:
        _out.append(Delta(_DELETE, _group.last))
    del _groups[_key]
else:
    _new, _last = _key + ({row}), _group.last
    if _last is None:
        _out.append(Delta(_INSERT, _new))
    elif _new != _last:
        _out.append(Delta(_REPLACE, _new, _last))
    _group.last = _new"""

_COMPILED: Dict[tuple, tuple] = {}
_NAMES = {"Delta": Delta, "UDFError": UDFError, "_Group": _Group,
          "row_bytes": row_bytes, **{f"_{k.name}": k for k in DeltaOp}}


def _compile(specs: Sequence[AggregateSpec], mode: str):
    """One code object per distinct source, in :mod:`linecache` under a
    name hashed from it: tracebacks show the template line that raised."""
    shape, names = [], {}
    for spec in specs:
        fold, result = fold_templates(spec.aggregator)
        names.update(spec.aggregator.fold_names)
        shape.append((fold, result, getattr(
            spec.aggregator, "per_delta_cost", None) is not None))
    source = _source(shape, mode == "stream")
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    filename = f"<groupby-fold-{digest}>"
    linecache.cache[filename] = (len(source), None,
                                 source.splitlines(True), filename)
    key = (source, tuple(sorted(names.items())))
    if key not in _COMPILED:
        namespace = dict(names, __name__=__name__, **_NAMES)
        exec(_code(source, filename), namespace)
        _COMPILED[key] = (namespace["fold"], namespace["flush"])
    return _COMPILED[key]


def _source(shape, stream: bool) -> str:
    prologue, charges, outputs = [], [], []
    folds = {kind: [] for kind in DeltaOp}
    uncharged = sum(not charged for _, _, charged in shape)
    if uncharged:  # a δ payload runs handler code: the UDC cost
        folds[DeltaOp.UPDATE].append("_u += 1")
        charges += ["if _u:", "    _op.ctx.charge_cpu(_op.ctx.cost."
                    f"udf_cost_per_tuple(batched=True), _u * {uncharged})"]
    for i, (fold, result, charged) in enumerate(shape):
        agg = f"_specs[{i}].aggregator"
        prologue += [f"_arg{i}, _init{i} = _specs[{i}].arg, {agg}.init_state",
                     f"_state{i}, _result{i} = {agg}.agg_state, "
                     f"{agg}.agg_result"]
        if charged:
            prologue.append(f"_pd{i} = {agg}.per_delta_cost(_op.ctx.cost)")
            charges += ["if _n:", f"    _op.ctx.charge_cpu(_pd{i}, _n)"]
        outputs += ([f"_r{i} = _result{i}(_states[{i}])"] if result is None
                    else [f"s = _states[{i}]", f"_r{i} = {result}"])
        for kind, lines in folds.items():
            if kind is not DeltaOp.UPDATE:
                lines.append(f"v = _arg{i}(_row)")
            if kind is DeltaOp.REPLACE:
                lines.append(f"o = _arg{i}(_old)")
            if fold is not None:
                lines += [f"s = _states[{i}]", fold[kind].rstrip()]
            else:
                lines.append(
                    f"_states[{i}] = _state{i}(_states[{i}], _delta, "
                    f"{'None' if kind is DeltaOp.UPDATE else 'v'}, "
                    f"{'o' if kind is DeltaOp.REPLACE else 'None'})")
    flush_key = _FLUSH_KEY.format(
        outputs="\n".join(outputs),
        empty="".join(f" and _r{i} is None" for i in range(len(shape))),
        row="".join(f"_r{i}, " for i in range(len(shape))))
    mark = ["_n += 1"] if len(shape) > uncharged else []
    mark.append(flush_key if stream else "_dirty[_key] = None")
    return _FOLD.format(
        prologue=_indent(4, prologue),
        init=", ".join(f"_init{i}()" for i in range(len(shape))),
        mark=_indent(8, mark), charges=_indent(4, charges),
        flush=_indent(12, [flush_key]),
        **{kind.name: _indent(12, lines or ["pass"])
           for kind, lines in folds.items()})


def _indent(width: int, lines: List[str]) -> str:
    return textwrap.indent("\n".join(lines), " " * width)
