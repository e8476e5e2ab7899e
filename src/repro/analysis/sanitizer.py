"""RexSan: runtime delta-invariant sanitizer (the REX200 series).

The static analyzer (REX0xx/REX1xx) can only prove what is visible in the
plan and source text.  The paper's core correctness claims are *runtime*
invariants: in-place delta revision of stateful operators must be
equivalent to naive refresh (Section 3, Definition 1), stratified
punctuation must advance monotonically (Section 4.2), exchanges must
conserve deltas at stratum barriers, and incremental recovery must restore
exactly the checkpointed Δ-sets (Section 4.3).  This module checks those
invariants while a query executes.

Activation is ``ExecOptions(sanitize=...)``:

* ``"off"``    — no sanitizer object is created at all; the simulated
  metrics fingerprint is bit-identical to an uninstrumented run (and so is
  the wall clock, to the extent Python allows).
* ``"sample"`` — per-key checks cover a deterministic 1-in-16 key sample
  (seeded by ``sanitize_seed``); barrier-level checks (punctuation,
  exchange conservation) always run.  Budgeted for <10% wall overhead.
* ``"full"``   — every key, every delta.

Like :class:`repro.obs.ObsContext`, the sanitizer is a subscriber of the
engine's probe (:class:`repro.operators.Probe`): each check is a handler
for a boundary production already crosses — deltas or punctuation handed
to an operator, an operator's stratum end — written once over
``(op, deltas, port)``.  It therefore checks what enters each operator,
the same way in batch and per-tuple runs, and never the operator's own
recursion.  It is purely passive — it never charges simulated resources,
so any ``sanitize`` level keeps ``QueryMetrics.fingerprint`` identical.

Findings are :class:`repro.analysis.diagnostics.Diagnostic` objects
(REX200-REX204) collected into the report attached to ``QueryResult``.
The schedule-perturbation race detector (REX205/REX206) lives in
:mod:`repro.analysis.determinism`.

The delta-polarity abstract interpretation (:mod:`repro.analysis.absint`)
changes the sanitizer's economics: joins and fixpoints carrying static
proofs (``proof_insert_only_ports`` / ``proof_polarity`` +
``proof_monotone``) are *downgraded* from the heavy invariant machinery —
the join's bucket pre-check, the fixpoint's per-delta legality pass — to
assertion mode: one kind-set probe per batch checking that the deltas
actually flowing match what was proven.  A group-by with a proof gets the
assertion *and* keeps its re-aggregation, since a polarity proof says
nothing about the values its aggregates compute.  A contradiction is a hard :data:`REX307` error
("runtime delta violated a static proof"), strictly worse than any
REX200-series warning, because it means either an operator emitted an
undeclared delta kind or a UDF's ``emits_polarity`` declaration lies.
Observed per-port kind sets are kept for every stateful
operator (proof or not) and exposed via :meth:`Sanitizer.observed_polarities`
so tests can check static verdicts against full runtime observation.
"""

from __future__ import annotations

import math
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.diagnostics import DiagnosticReport, make
from repro.common.deltas import Delta, DeltaOp

LEVELS = ("off", "sample", "full")

#: 1-in-SAMPLE_MOD keys are checked at ``sample`` level.
SAMPLE_MOD = 16

#: At most this many diagnostics are recorded per code (violations beyond
#: the cap are still counted in ``Sanitizer.violations``).
MAX_DIAGNOSTICS_PER_CODE = 16

#: Per-key shadow multisets stop growing past this many rows; saturated
#: keys are excluded from re-aggregation instead of producing false
#: positives.
SHADOW_CAP = 4096

#: Per-operator row -> (key, sampled) memo entries; past this the memo
#: stops admitting new rows (existing entries keep serving hits).
ROW_MEMO_CAP = 65536

_MISSING = object()


def _values_close(a: Any, b: Any) -> bool:
    """Equality with float tolerance: a shadow refold may reassociate a
    float reduction, so compare numerics to ~9 significant digits."""
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(b, float) and isinstance(a, (int, float)):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return (len(a) == len(b)
                and all(_values_close(x, y) for x, y in zip(a, b)))
    return a == b


class _ShadowGroup:
    """Per-key shadow for one sampled group-by group.

    ``pure`` keys (only INSERT/DELETE/REPLACE ever seen) are verified by
    *differential re-aggregation*: the sanitizer maintains the group's
    logical row multiset and refolds it from scratch, so a delta handler
    that forgets to retract an old image diverges from the refold.  Keys
    that receive δ value-updates have no multiset interpretation; they are
    verified by *replaying* the same delta stream into fresh aggregate
    state, which catches handlers with hidden self-state.
    """

    __slots__ = ("multiset", "states", "pure", "saturated")

    def __init__(self):
        self.multiset: Counter = Counter()
        self.states: Optional[List[Any]] = None
        self.pure = True
        self.saturated = False


class _OpShadow:
    """Sanitizer-side state for one operator, created when the probe
    first reports it; the flags say which checks it gets."""

    __slots__ = ("node_id", "loc", "polarity", "groupby", "fixpoint", "join",
                 "sender", "batches", "groups", "dirty", "punct_last",
                 "punct_final", "row_memo", "batch_counter", "observed",
                 "pre")

    def __init__(self, node_id: int, loc: str):
        self.node_id = node_id
        self.loc = loc                      # "<op name>@n<node>"
        self.polarity = self.groupby = self.fixpoint = False
        self.join = self.sender = False
        self.batches: List[Sequence[Delta]] = []  # group-by input batches
        self.groups: Dict[tuple, _ShadowGroup] = {}
        self.dirty: Dict[tuple, None] = {}  # keys replayed this stratum
        self.punct_last: Dict[int, int] = {}    # port -> last stratum seen
        self.punct_final: Dict[int, bool] = {}  # port -> saw end-of-query
        # row -> (key, sampled): group-by input rows repeat heavily across
        # strata (δ-update targets especially), so the per-delta
        # key_fn + hash work folds into one dict probe on repeats.
        self.row_memo: Dict[tuple, tuple] = {}
        self.batch_counter = 0              # sample-level batch striding
        self.observed: Dict[int, set] = {}  # port -> delta kinds seen
        #: (pre-state, pending length) of the fixpoint push in flight.
        self.pre: Optional[tuple] = None


class Sanitizer:
    """Runtime invariant checker for one query execution.

    Created by the executor when ``ExecOptions.sanitize`` is ``"sample"``
    or ``"full"`` and subscribed to the run's probe ahead of any obs
    context; it also receives barrier/checkpoint callbacks from the executor.
    """

    def __init__(self, level: str = "full", seed: int = 0):
        if level not in LEVELS or level == "off":
            raise ValueError(f"sanitize level must be 'sample' or 'full', "
                             f"got {level!r}")
        self.level = level
        self.seed = seed
        self._full = level == "full"
        self._seed_mix = hash(("rexsan", seed))
        self.report = DiagnosticReport()
        self.checks = 0
        self.violations = 0
        self.overhead_seconds = 0.0
        self._code_counts: Dict[str, int] = {}
        self._shadows: Dict[int, _OpShadow] = {}      # id(op) -> shadow
        self._ops: Dict[int, object] = {}             # id(op) -> op
        # Exchange conservation (REX203): cumulative delta counts.
        self._sent: Counter = Counter()
        self._delivered: Counter = Counter()
        self._dropped: Counter = Counter()
        # Checkpoint fingerprints (REX204): fixpoint key -> row image as
        # last replicated.
        self._ckpt: Dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # Diagnostics plumbing
    # ------------------------------------------------------------------
    def _emit(self, code: str, message: str, location: str = "",
              hint: str = "") -> None:
        self.violations += 1
        n = self._code_counts.get(code, 0)
        if n < MAX_DIAGNOSTICS_PER_CODE:
            self._code_counts[code] = n + 1
            self.report.add(make(code, message, location=location, hint=hint))

    def _sampled(self, key) -> bool:
        if self._full:
            return True
        try:
            return (hash(key) ^ self._seed_mix) % SAMPLE_MOD == 0
        except TypeError:
            return False

    def _node_sampled(self, node_id: int) -> bool:
        """Whether a node's group-by shadows run at ``sample`` level.

        Exchanges partition group keys across nodes, so every key's
        *complete* delta stream lives on its owner — sampling whole nodes
        is as stream-preserving as sampling keys, and it removes the
        per-delta key pass from un-sampled nodes entirely.  Node 0 is
        always in so a single-node cluster still gets coverage.
        """
        if self._full:
            return True
        return node_id == 0 or (node_id ^ self._seed_mix) % 4 == 0

    # ------------------------------------------------------------------
    # Network taps (REX203), fanned out by the probe
    # ------------------------------------------------------------------
    def on_send(self, msg, nbytes: int) -> None:
        if msg.deltas:
            self._sent[msg.exchange] += len(msg.deltas)

    def on_deliver(self, msg) -> None:
        if msg.deltas:
            self._delivered[msg.exchange] += len(msg.deltas)

    def on_drop(self, msg) -> None:
        if msg.deltas:
            self._dropped[msg.exchange] += len(msg.deltas)

    # ------------------------------------------------------------------
    # Probe boundaries: every check runs on what enters an operator
    # ------------------------------------------------------------------
    def _shadow(self, op) -> _OpShadow:
        """``op``'s shadow; on first sight, decide which checks it gets."""
        shadow = self._shadows.get(id(op))
        if shadow is not None:
            return shadow
        node_id = op.ctx.node_id
        shadow = _OpShadow(node_id, f"{op.name}@n{node_id}")
        self._shadows[id(op)] = shadow
        self._ops[id(op)] = op

        # Late imports keep repro.analysis importable without dragging the
        # operator layer in for purely static users.
        from repro.operators.exchange import RehashSender
        from repro.operators.fixpoint import Fixpoint
        from repro.operators.groupby import GroupBy
        from repro.operators.join import HashJoin

        # A join or fixpoint carrying an exact static proof is downgraded
        # to the polarity assertion (see the module docstring).  A
        # group-by keeps its re-aggregation: a polarity proof says nothing
        # about aggregate values.
        if isinstance(op, GroupBy):
            shadow.polarity = True
            shadow.groupby = self._node_sampled(node_id)
        elif isinstance(op, Fixpoint):
            shadow.polarity = True
            covered = op.proof_polarity is not None and op.proof_monotone
            # set/bag semantics absorb duplicates by construction.
            shadow.fixpoint = (not covered and op.key_fn is not None
                               and (op.semantics == "keyed"
                                    or op.while_handler is not None))
        elif isinstance(op, HashJoin):
            shadow.polarity = True
            ports = op.proof_insert_only_ports
            covered = all(p in ports for p in (0, 1)
                          if not op._uses_handler(p))
            # Handler-managed buckets have user-defined semantics; their
            # outputs are checked downstream (group-by / fixpoint shadows).
            shadow.join = not covered and op.handler is None
        elif isinstance(op, RehashSender):
            shadow.sender = True
        return shadow

    def before_push(self, op, deltas, port, child) -> None:
        shadow = self._shadow(op)
        if shadow.polarity:
            self._check_polarity(op, shadow, deltas, port)
        if shadow.groupby:
            shadow.batches.append(deltas)
        elif shadow.join:
            t0 = perf_counter()
            self._join_precheck(op, shadow, deltas, port)
            self.overhead_seconds += perf_counter() - t0
        elif shadow.fixpoint and not self._skip_batch(shadow):
            t0 = perf_counter()
            shadow.pre = (self._fixpoint_prestate(op, shadow, deltas),
                          len(op.pending))
            self.overhead_seconds += perf_counter() - t0

    def after_push(self, op, deltas, port, child) -> None:
        shadow = self._shadows[id(op)]
        if shadow.pre is not None:
            (pre, n0), shadow.pre = shadow.pre, None
            t0 = perf_counter()
            self._check_admitted(op, shadow, op.pending[n0:], pre)
            self.overhead_seconds += perf_counter() - t0

    def before_punctuation(self, op, punct, port) -> None:
        """REX202: stratum markers are non-decreasing per port and stop
        after end-of-query."""
        shadow = self._shadow(op)
        self.checks += 1
        if shadow.punct_final.get(port):
            self._emit(
                "REX202",
                f"punctuation {punct!r} arrived on port {port} after "
                "end-of-query",
                location=shadow.loc,
                hint="a source kept emitting after the final stratum")
        prev = shadow.punct_last.get(port, -1)
        if punct.stratum < prev:
            self._emit(
                "REX202",
                f"stratum marker regressed on port {port}: "
                f"{punct.stratum} after {prev}",
                location=shadow.loc,
                hint="stratum punctuation must be non-decreasing")
        else:
            shadow.punct_last[port] = punct.stratum
        if punct.is_final:
            shadow.punct_final[port] = True

    def after_punctuation(self, op, punct, port) -> None:
        """REX203: a sender's buffers are empty once punctuation passed."""
        shadow = self._shadows[id(op)]
        if not shadow.sender:
            return
        t0 = perf_counter()
        self.checks += 1
        residue = sum(len(b) for b in op._buffers.values())
        if residue:
            self._emit(
                "REX203",
                f"{residue} delta(s) left in exchange "
                f"{op.exchange!r} send buffers at a stratum barrier",
                location=shadow.loc,
                hint="a sender must flush every destination buffer "
                     "when punctuation passes")
        self.overhead_seconds += perf_counter() - t0

    def before_stratum_end(self, op, punct) -> None:
        shadow = self._shadow(op)
        if shadow.groupby:
            t0 = perf_counter()
            self._groupby_replay(op, shadow)
            self.overhead_seconds += perf_counter() - t0

    def after_stratum_end(self, op, punct) -> None:
        shadow = self._shadows[id(op)]
        if shadow.groupby:
            t0 = perf_counter()
            self._groupby_verify(op, shadow)
            if op.clear_states_each_stratum or op.reset_emissions_each_stratum:
                shadow.groups.clear()
            self.overhead_seconds += perf_counter() - t0

    def reset_operator(self, op) -> None:
        """The executor rebuilt this operator's state (checkpoint-resume
        recovery); discard the shadow so re-derived state isn't diffed
        against pre-failure history."""
        shadow = self._shadows.get(id(op))
        if shadow is not None:
            shadow.batches = []
            shadow.groups = {}
            shadow.dirty = {}

    # -- static-proof assertions (REX307) -------------------------------
    def _check_polarity(self, op, shadow: _OpShadow, deltas, port) -> None:
        """Observe the arriving delta kinds per input port and assert them
        against the static polarity proof.

        Runs for every stateful operator (proof or not) so
        :meth:`observed_polarities` always reflects what actually flowed.
        The per-batch cost is one kind-set scan plus a set difference —
        once a port's kinds have all been seen, the probe short-circuits.
        A delta kind outside the proven set is a hard REX307 error.
        """
        kinds = {d.op for d in deltas}
        seen = shadow.observed.get(port)
        if seen is None:
            seen = shadow.observed[port] = set()
        fresh = kinds - seen
        if not fresh:
            return
        seen |= fresh
        self.checks += 1
        if port in (getattr(op, "proof_insert_only_ports", None) or ()):
            limit = frozenset((DeltaOp.INSERT,))
        else:
            limit = op.proof_polarity
        if limit is None:
            return
        bad = fresh - limit
        if bad:
            syms = ",".join(sorted(k.value for k in bad))
            proven = ",".join(sorted(k.value for k in limit))
            self._emit(
                "REX307",
                f"runtime delta kind(s) {{{syms}}} on port {port} "
                f"contradict the static polarity proof {{{proven}}}",
                location=shadow.loc,
                hint="either an operator emitted an undeclared delta "
                     "kind or a UDF's emits_polarity declaration is "
                     "wrong (the proof is the plan's one inference, "
                     "listed by QueryResult.analysis.properties); rerun "
                     "with ExecOptions(absint=False) and sanitize='full' "
                     "so full shadow replay, not the downgraded "
                     "assertion mode, localizes the source")

    def observed_polarities(self) -> Dict[str, Dict[int, frozenset]]:
        """Runtime-observed delta kinds per stateful operator and input
        port (instances with the same name on the same node are unioned).
        This is the hook the property suite uses to check that static
        polarity verdicts are never contradicted by real executions."""
        out: Dict[str, Dict[int, frozenset]] = {}
        for op_id, shadow in self._shadows.items():
            if not shadow.observed:
                continue
            op = self._ops[op_id]
            entry = out.setdefault(f"{op.name}@n{shadow.node_id}", {})
            for port, kinds in shadow.observed.items():
                entry[port] = entry.get(port, frozenset()) | frozenset(kinds)
        return out

    # -- group-by re-aggregation (REX201) and legality (REX200) ---------
    def _groupby_replay(self, op, shadow: _OpShadow) -> None:
        """Fold the recorded delta stream into per-key shadows, mirroring
        GroupBy.process's key handling (REPLACE straddles decompose)."""
        batches, shadow.batches = shadow.batches, []
        if not batches:
            return
        key_fn = op.key_fn
        groups = shadow.groups
        sampled = self._sampled
        loc = shadow.loc
        insert, delete = DeltaOp.INSERT, DeltaOp.DELETE
        replace, update = DeltaOp.REPLACE, DeltaOp.UPDATE
        row_memo = shadow.row_memo
        work: List[tuple] = []  # (key, op, row, old_row, delta)
        for deltas in batches:
            for d in deltas:
                dop = d.op
                if dop is replace:
                    old_key = key_fn(d.old)
                    new_key = key_fn(d.row)
                    if old_key != new_key:
                        if sampled(old_key):
                            work.append((old_key, delete, d.old, None, d))
                        if sampled(new_key):
                            work.append((new_key, insert, d.row, None, d))
                        continue
                    if sampled(new_key):
                        work.append((new_key, replace, d.row, d.old, d))
                    continue
                row = d.row
                try:
                    key, is_sampled = row_memo[row]
                except KeyError:
                    key = key_fn(row)
                    is_sampled = sampled(key)
                    if len(row_memo) < ROW_MEMO_CAP:
                        row_memo[row] = (key, is_sampled)
                except TypeError:  # unhashable row: uncacheable lookup
                    key = key_fn(row)
                    is_sampled = sampled(key)
                if is_sampled:
                    work.append((key, dop, row, d.old, d))
        dirty = shadow.dirty
        for key, dop, row, old_row, d in work:
            self.checks += 1
            dirty[key] = None
            sg = groups.get(key)
            if sg is None:
                sg = groups[key] = _ShadowGroup()
            if sg.saturated:
                continue
            try:
                if dop is update:
                    if sg.pure:
                        sg.pure = False
                        sg.states = self._refold_states(op, sg.multiset)
                    self._replay_into_states(op, sg.states, d)
                    continue
                if not sg.pure:
                    self._replay_into_states(op, sg.states, d)
                    continue
            except Exception:
                # The aggregator rejects the shadow's synthetic fold
                # (e.g. a δ-only UDA offered a refold INSERT); exclude the
                # key rather than crash the query from inside a check.
                sg.saturated = True
                continue
            ms = sg.multiset
            if dop is insert:
                ms[row] += 1
                if len(ms) > SHADOW_CAP:
                    sg.saturated = True
            elif dop is delete:
                if ms[row] <= 0:
                    self._emit(
                        "REX200",
                        f"DELETE of a row never inserted into group "
                        f"{key!r}: {row!r}",
                        location=loc,
                        hint="upstream emitted a deletion for state that "
                             "does not exist (Definition 1)")
                ms[row] -= 1
            else:  # same-key REPLACE
                if ms[old_row] <= 0:
                    self._emit(
                        "REX200",
                        f"REPLACE in group {key!r} retracts an image that "
                        f"is not in the group: {old_row!r}",
                        location=loc,
                        hint="the old image of a replacement must match "
                             "existing state (Definition 1)")
                ms[old_row] -= 1
                ms[row] += 1

    @staticmethod
    def _refold_states(op, multiset: Counter) -> List[Any]:
        states = [spec.aggregator.init_state() for spec in op.specs]
        for row, n in multiset.items():
            if n <= 0:
                continue
            d = Delta(DeltaOp.INSERT, row)
            for i, spec in enumerate(op.specs):
                value = spec.arg(row)
                for _ in range(n):
                    states[i] = spec.aggregator.agg_state(
                        states[i], d, value, None)
        return states

    @staticmethod
    def _replay_into_states(op, states: List[Any], d: Delta) -> None:
        is_update = d.op is DeltaOp.UPDATE
        is_replace = d.op is DeltaOp.REPLACE
        for i, spec in enumerate(op.specs):
            value = None if is_update else spec.arg(d.row)
            old_value = spec.arg(d.old) if is_replace else None
            states[i] = spec.aggregator.agg_state(states[i], d, value,
                                                  old_value)

    def _groupby_verify(self, op, shadow: _OpShadow) -> None:
        """After the stratum flush, each sampled group's emitted aggregate
        must equal the shadow's independent re-aggregation."""
        loc = shadow.loc
        for key, group in op.groups.items():
            if group.live < 0 and self._sampled(key):
                self.checks += 1
                self._emit(
                    "REX200",
                    f"group {key!r} has negative live count "
                    f"({group.live}): more deletions than insertions",
                    location=loc,
                    hint="UPDATE/DELETE deltas must hit existing state "
                         "rows (Definition 1)")
        dirty = shadow.dirty
        shadow.dirty = {}
        for key in dirty:
            sg = shadow.groups.get(key)
            if sg is None or sg.saturated:
                continue
            self.checks += 1
            try:
                if sg.pure:
                    states = self._refold_states(op, sg.multiset)
                    total = sum(n for n in sg.multiset.values() if n > 0)
                else:
                    states = sg.states
                    total = None  # δ streams have no row-count notion
                expected = tuple(spec.aggregator.agg_result(state)
                                 for spec, state in zip(op.specs, states))
            except Exception:
                sg.saturated = True
                continue
            group = op.groups.get(key)
            if group is None:
                empty = ((total is None or total <= 0)
                         and all(v is None for v in expected))
                if not empty:
                    self._emit(
                        "REX201",
                        f"group {key!r} was flushed away but re-aggregation "
                        f"of its delta stream yields {expected!r}",
                        location=loc,
                        hint="the aggregate state lost contributions its "
                             "delta stream still contains")
                continue
            if group.last is None:
                continue  # never emitted this stratum; nothing to diff
            emitted = tuple(group.last[len(key):])
            if not _values_close(emitted, expected):
                self._emit(
                    "REX201",
                    f"group {key!r} emitted {emitted!r} but differential "
                    f"re-aggregation of its delta stream yields "
                    f"{expected!r}",
                    location=loc,
                    hint="the delta handler's incremental state update is "
                         "not equivalent to refresh (check its "
                         "DELETE/REPLACE retraction rules)")

    # -- fixpoint annotation legality (REX200) --------------------------
    def _skip_batch(self, shadow: _OpShadow) -> bool:
        """The legality check is batch-local (pre-state snapshot and the
        admitted deltas of one push), so at sample level striding over
        whole batches is as sound as striding over keys — and far
        cheaper, since it skips the per-delta key pass entirely."""
        if self._full:
            return False
        shadow.batch_counter += 1
        return shadow.batch_counter % SAMPLE_MOD != 0

    def _fixpoint_prestate(self, op, shadow: _OpShadow, deltas) -> dict:
        """Pre-state snapshot for sampled keys occurring exactly once in
        the batch (multi-occurrence keys would need interleaved snapshots;
        skip them)."""
        key_fn = op.key_fn
        state = op.state
        counts: Counter = Counter()
        keys = []
        for d in deltas:
            try:
                k = key_fn(d.row)
            except Exception:
                keys.append(None)
                counts[None] += 1
                continue
            keys.append(k)
            counts[k] += 1
        pre = {}
        for d, k in zip(deltas, keys):
            if k is None or counts[k] != 1 or not self._sampled(k):
                continue
            pre[k] = state.get(k)
            self.checks += 1
            if d.op is DeltaOp.DELETE and pre[k] is None:
                self._emit(
                    "REX200",
                    f"DELETE for key {k!r} hit no existing fixpoint "
                    f"row: {d.row!r}",
                    location=shadow.loc,
                    hint="upstream retracted a row that was never "
                         "derived (Definition 1)")
        return pre

    def _check_admitted(self, op, shadow: _OpShadow, admitted, pre) -> None:
        key_fn = op.key_fn
        loc = shadow.loc
        for d in admitted:
            try:
                k = key_fn(d.row)
            except Exception:
                continue
            p = pre.get(k, _MISSING)
            if p is _MISSING:
                continue
            self.checks += 1
            if d.op is DeltaOp.INSERT:
                if p == d.row and p is not None and not op.admit_unchanged:
                    self._emit(
                        "REX200",
                        f"duplicate derivation admitted for key {k!r}: "
                        f"{d.row!r} equals existing state",
                        location=loc,
                        hint="duplicate inserts must be eliminated, "
                             "not re-admitted (Definition 1)")
            elif d.op is DeltaOp.REPLACE:
                if p is None:
                    self._emit(
                        "REX200",
                        f"REPLACE admitted for key {k!r} with no "
                        f"pre-existing row",
                        location=loc,
                        hint="a replacement needs an existing image "
                             "to retract")
                elif d.old != p:
                    self._emit(
                        "REX200",
                        f"REPLACE for key {k!r} retracts {d.old!r} but "
                        f"the pre-state row was {p!r}",
                        location=loc,
                        hint="stale old image: the handler disagrees "
                             "with the operator's stored state")
            elif d.op is DeltaOp.DELETE and p is None:
                self._emit(
                    "REX200",
                    f"DELETE admitted for key {k!r} with no "
                    f"pre-existing row",
                    location=loc,
                    hint="upstream retracted a row that was never "
                         "derived (Definition 1)")

    # -- join bucket legality (REX200) ----------------------------------
    def _join_precheck(self, op, shadow: _OpShadow, deltas, port) -> None:
        keys = op.keys[port]
        # Copies of each row the batch's own earlier deltas added to
        # (+) or took out of (-) the side: the join applies a batch in
        # order, so a ``-`` may target what a ``+`` before it inserted.
        net: Dict[tuple, int] = {}
        for d in deltas:
            kind = d.op
            if kind is DeltaOp.INSERT:
                net[d.row] = net.get(d.row, 0) + 1
                continue
            target = d.old if kind is DeltaOp.REPLACE else d.row
            try:
                k = keys(target)
            except Exception:
                continue
            if self._sampled(k):
                self.checks += 1
                bucket = op.buckets.get(k)
                side = bucket[port] if bucket is not None else ()
                if side.count(target) + net.get(target, 0) <= 0:
                    self._emit(
                        "REX200",
                        f"{kind.name} on join input {port} targets a "
                        f"row absent from bucket {k!r}: {target!r}",
                        location=shadow.loc,
                        hint="UPDATE/DELETE must hit existing state "
                             "rows (Definition 1)")
            if kind is not DeltaOp.UPDATE:
                net[target] = net.get(target, 0) - 1
                if kind is DeltaOp.REPLACE:
                    net[d.row] = net.get(d.row, 0) + 1

    # ------------------------------------------------------------------
    # Driver callbacks
    # ------------------------------------------------------------------
    def end_stratum(self, stratum: int) -> None:
        """Barrier check: with the network drained, every exchange must
        conserve deltas (sent == delivered + dropped-at-dead-nodes)."""
        t0 = perf_counter()
        for exchange, sent in self._sent.items():
            self.checks += 1
            seen = self._delivered[exchange] + self._dropped[exchange]
            if sent != seen:
                self._emit(
                    "REX203",
                    f"exchange {exchange!r} lost deltas by stratum "
                    f"{stratum}: {sent} sent vs {seen} delivered+dropped",
                    location=f"exchange {exchange}",
                    hint="deltas in flight across a drained barrier "
                         "indicate a delivery or registration bug")
        self.overhead_seconds += perf_counter() - t0

    def record_checkpoint(self, key, delta: Delta) -> None:
        """Fingerprint a replicated Δ-set entry (pre-failure image)."""
        if not self._sampled(key):
            return
        if delta.op is DeltaOp.DELETE:
            self._ckpt.pop(key, None)
        else:
            self._ckpt[key] = delta.row

    def verify_restored(self, key, row: tuple) -> None:
        """REX204: a recovered row must equal its checkpoint fingerprint."""
        expected = self._ckpt.get(key, _MISSING)
        if expected is _MISSING:
            return
        self.checks += 1
        if row != expected:
            self._emit(
                "REX204",
                f"recovery restored {row!r} for key {key!r} but the "
                f"checkpointed pre-failure image was {expected!r}",
                location="(recovery)",
                hint="a checkpoint replica diverged from the Δ-set that "
                     "was replicated (corruption or missed update)")

    def publish(self, registry) -> None:
        """Surface check/violation counts in the obs metrics registry."""
        registry.counter("sanitizer.checks").value = self.checks
        registry.counter("sanitizer.violations").value = self.violations
        registry.gauge("sanitizer.overhead_seconds").set(
            self.overhead_seconds)
