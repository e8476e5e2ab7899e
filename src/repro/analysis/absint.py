"""Delta-polarity & monotonicity abstract interpretation (REX300-307).

The engine's deltas carry one of four annotations (Definition 1): ``+``
(insert), ``-`` (delete), ``->`` (replace), ``δ`` (value update).  Most
plan fragments can only ever produce a *subset* of those kinds — a table
scan emits pure insertions, a group-by emits insert/replace (and deletes
only when its input can retract), a declared handler emits what it says
it emits.  This module runs an abstract interpretation over the lowered
physical plan — the tree the executor builds from — that infers, per
node:

* **delta polarity** — the set of annotation kinds the node's output
  stream can carry, as a value of the lattice::

        ⊥  <  insert-only  <  insert+replace  <  any
        (the abstraction is a subset of {+, -, ->, δ}; join = union;
        named points are the common rungs, every subset is a value)

* **monotonicity** — whether a fixpoint's body can ever shrink or
  retract the recursive relation (no ``-`` derivable anywhere in the
  loop);

* **dead deltas** — annotation kinds a stateful operator's handling code
  can never observe, so the corresponding branches are provably dead.

Verdicts carry an ``exact`` bit: an undeclared handler (no
:attr:`~repro.udf.aggregates.Aggregator.emits_polarity`) widens its
output to "any" *inexactly* (REX306) and downstream monotonicity
verdicts are withheld rather than guessed.

Findings surface as REX300-REX306 diagnostics (only runtime REX307 —
"a delta contradicted a proof" — is an error; the static pass never
blocks execution).  A query infers once, in its plan's preparation
(:func:`repro.analysis.analyzer.prepare`).  The operators execute the
same general loops whatever the verdicts say; on sanitized runs under
``ExecOptions(absint=True)`` the executor hands the proofs to the
sanitizer, which asserts the proven polarities (downgrading a proven
join's or fixpoint's shadow checks to that assertion) and escalates any
contradiction to REX307.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.diagnostics import Diagnostic, make
from repro.common.deltas import DeltaOp
from repro.runtime.plan import (
    PApply,
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
    PhysicalPlan,
    instantiate,
)

INSERT = DeltaOp.INSERT
DELETE = DeltaOp.DELETE
REPLACE = DeltaOp.REPLACE
UPDATE = DeltaOp.UPDATE

#: Lattice constants (subsets of the four annotation kinds).
BOTTOM: frozenset = frozenset()
INSERT_ONLY: frozenset = frozenset({INSERT})
INSERT_REPLACE: frozenset = frozenset({INSERT, REPLACE})
ANY: frozenset = frozenset(DeltaOp)

#: Canonical rendering order for annotation symbols.
_SYMBOL_ORDER = (INSERT, DELETE, REPLACE, UPDATE)

#: Upper bound on feedback-polarity iterations.  The transfer functions
#: are monotone over a finite lattice (16 subsets x exactness), so the
#: loop converges in at most a handful of steps; 8 is generous.
MAX_PASSES = 8


def kind_symbols(kinds: frozenset) -> List[str]:
    """The annotation symbols of ``kinds`` in canonical ``+ - -> δ`` order."""
    return [op.value for op in _SYMBOL_ORDER if op in kinds]


def polarity_name(kinds: frozenset) -> str:
    """Human name of a lattice point (named rungs, else the symbol set)."""
    if not kinds:
        return "⊥"
    if kinds == INSERT_ONLY:
        return "insert-only"
    if kinds == INSERT_REPLACE:
        return "insert+replace"
    if kinds == ANY:
        return "any"
    return "{" + ",".join(kind_symbols(kinds)) + "}"


@dataclass(frozen=True)
class Polarity:
    """An abstract delta stream: which annotation kinds it may carry.

    ``exact=False`` marks a verdict widened past an undeclared handler —
    the kinds are a sound over-approximation but proofs must not be
    built on it.
    """

    kinds: frozenset = BOTTOM
    exact: bool = True

    def join(self, other: "Polarity") -> "Polarity":
        return Polarity(self.kinds | other.kinds, self.exact and other.exact)

    @property
    def name(self) -> str:
        return polarity_name(self.kinds)

    def proves(self, allowed: frozenset) -> bool:
        """True when this stream is *proven* to stay within ``allowed``."""
        return self.exact and bool(self.kinds) and self.kinds <= allowed

    def __repr__(self):  # pragma: no cover - cosmetic
        suffix = "" if self.exact else "?"
        return f"Polarity({self.name}{suffix})"


def join_all(pols: List[Polarity]) -> Polarity:
    out = Polarity(BOTTOM, True)
    for p in pols:
        out = out.join(p)
    return out


@dataclass
class NodeProperties:
    """Everything the interpretation inferred about one plan node."""

    path: str
    label: str
    out_polarity: Polarity
    in_polarity: Optional[Polarity] = None
    #: Per-input polarity for multi-port operators (joins), input order.
    port_polarities: Optional[Tuple[Polarity, ...]] = None
    #: Fixpoint nodes only: True/False when proven, None when unknown.
    monotone: Optional[bool] = None
    #: Annotation kinds this operator handles but can never observe.
    dead: frozenset = BOTTOM

    def to_dict(self) -> Dict:
        doc: Dict = {
            "path": self.path,
            "label": self.label,
            "polarity": self.out_polarity.name,
            "polarity_kinds": kind_symbols(self.out_polarity.kinds),
            "exact": self.out_polarity.exact,
        }
        if self.in_polarity is not None:
            doc["input_polarity"] = self.in_polarity.name
            doc["input_polarity_kinds"] = kind_symbols(self.in_polarity.kinds)
        if self.monotone is not None:
            doc["monotone"] = self.monotone
        if self.dead:
            doc["dead_kinds"] = kind_symbols(self.dead)
        return doc

    def annotation(self) -> str:
        """Compact EXPLAIN column, e.g. ``Δ=insert-only`` or
        ``Δ=insert+replace monotone``."""
        text = f"Δ={self.out_polarity.name}"
        if not self.out_polarity.exact:
            text += "?"
        if self.monotone is True:
            text += " monotone"
        elif self.monotone is False:
            text += " non-monotone"
        return text


class PlanFacts:
    """The per-node results of one analysis of a physical plan (this
    module's :class:`NodeProperties`, or the lineage pass's
    ``NodeLineage``), queryable by node: an operator node, or — through
    the plan's ``origins`` — the logical node it was lowered from."""

    def __init__(self, nodes: List, by_id: Dict[int, object],
                 origins: Optional[Dict[int, object]] = None):
        self.nodes = nodes
        self._by_id = by_id
        for pid, lnode in (origins or {}).items():
            if pid in by_id:
                by_id[id(lnode)] = by_id[pid]

    def of(self, node):
        return self._by_id.get(id(node))

    def annotation(self, node) -> str:
        facts = self.of(node)
        return facts.annotation() if facts is not None else ""

    def report(self) -> List[Dict]:
        """JSON-ready rows (what ``cli analyze --format json`` embeds
        under ``"properties"`` and ``"lineage"``)."""
        return [n.to_dict() for n in self.nodes]


def split_plan(plan: Union[PhysicalPlan, PNode]):
    """``(root, origins)`` of a plan; a bare tree has no origins."""
    if isinstance(plan, PhysicalPlan):
        return plan.root, plan.origins
    return plan, None


def _declared_polarity(obj) -> Optional[frozenset]:
    declared = getattr(obj, "emits_polarity", None)
    if declared is None:
        return None
    return frozenset(declared)


#: Annotation kinds whose handling code exists in each stateful operator
#: (the universe REX304's dead-kind facts are computed against).
_HANDLED_GROUPBY = ANY
_HANDLED_JOIN = ANY
_HANDLED_FIXPOINT_KEYED = frozenset({INSERT, DELETE, REPLACE})
_HANDLED_FIXPOINT_SET = ANY


class _Pass:
    """One evaluation of the transfer functions over a physical tree,
    with the feedback leaf's polarity held constant (supplied by the
    outer iteration)."""

    def __init__(self, feedback: Polarity):
        self.feedback = feedback
        self.fixpoint_out = Polarity(BOTTOM, True)
        self.nodes: List[NodeProperties] = []
        self.by_id: Dict[int, NodeProperties] = {}
        self.diagnostics: List[Diagnostic] = []

    # -- helpers ----------------------------------------------------------
    def _record(self, node, props: NodeProperties) -> NodeProperties:
        self.nodes.append(props)
        self.by_id[id(node)] = props
        return props

    def _emit(self, code: str, message: str, location: str,
              hint: str = "") -> None:
        self.diagnostics.append(make(code, message, location=location,
                                     hint=hint))

    def _widen(self, what: str, location: str) -> Polarity:
        self._emit("REX306",
                   f"{what} declares no emission polarity; the verdict "
                   "widens to 'any'",
                   location,
                   hint="set emits_polarity = frozenset({DeltaOp...}) on "
                        "the handler class to restore precision")
        return Polarity(ANY, False)

    def _stateful_checks(self, label: str, path: str, in_pol: Polarity,
                         handled: frozenset) -> frozenset:
        """REX300/REX304/REX305 for a stateful operator; returns the dead
        kinds."""
        if in_pol.proves(INSERT_ONLY):
            self._emit("REX300",
                       f"input to {label} is proven insert-only "
                       f"(polarity {in_pol.name})",
                       path,
                       hint="retraction and replacement bookkeeping can "
                            "never run here; under ExecOptions(absint=True) "
                            "the sanitizer asserts this polarity at runtime")
        dead = BOTTOM
        if in_pol.exact and in_pol.kinds:
            dead = handled - in_pol.kinds
            if dead:
                self._emit("REX304",
                           f"dead delta polarity at {label}: kinds "
                           f"{{{','.join(kind_symbols(dead))}}} can never "
                           f"arrive (input polarity {in_pol.name})",
                           path,
                           hint="the operator's handling for these kinds "
                                "is provably unreachable on this plan")
        if in_pol.exact and REPLACE in in_pol.kinds \
                and INSERT not in in_pol.kinds:
            self._emit("REX305",
                       f"input to {label} carries replacements (polarity "
                       f"{in_pol.name}) with no insert polarity: a "
                       "replacement may arrive before any base row exists",
                       path,
                       hint="emit an INSERT for a key's first image, or "
                            "declare the handler's polarity accordingly")
        return dead

    def _rules_join_output(self, kinds: frozenset) -> frozenset:
        """Gupta et al. delta rules through a plain hash join, per input
        kind: ``->`` may decompose into delete+insert when the join key
        changes."""
        out = set()
        if INSERT in kinds:
            out.add(INSERT)
        if DELETE in kinds:
            out.add(DELETE)
        if REPLACE in kinds:
            out.update((REPLACE, DELETE, INSERT))
        if UPDATE in kinds:
            out.add(UPDATE)
        return frozenset(out)

    def _filter_transfer(self, p: Polarity) -> Polarity:
        """Filter (and row-count-changing apply): a ``->`` whose images
        fall on different predicate sides degrades to ``+``/``-``."""
        kinds = p.kinds
        if REPLACE in kinds:
            kinds = kinds | {INSERT, DELETE}
        return Polarity(kinds, p.exact)

    def _groupby_transfer(self, in_pol: Polarity) -> Polarity:
        # First output per group is +, changed outputs are ->; a group
        # can only empty (emit -) when contributors can retract, i.e.
        # when - or -> (straddle decompose) can arrive.  δ value-updates
        # pin groups live, so they never cause deletions.
        kinds = {INSERT, REPLACE}
        if DELETE in in_pol.kinds or REPLACE in in_pol.kinds:
            kinds.add(DELETE)
        return Polarity(frozenset(kinds), in_pol.exact)

    def _fixpoint_checks(self, path: str, body: Polarity,
                         admitted: Polarity) -> Optional[bool]:
        """REX301/REX302; returns the monotonicity verdict."""
        if not (body.exact and admitted.exact):
            return None
        loop_kinds = body.kinds | admitted.kinds
        monotone = DELETE not in loop_kinds
        if monotone:
            self._emit("REX301",
                       "fixpoint body is proven monotone (loop polarity "
                       f"{polarity_name(loop_kinds)} never retracts)",
                       path,
                       hint="the sanitizer downgrades shadow replay to a "
                            "polarity assertion on this proof")
        else:
            self._emit("REX302",
                       "fixpoint body may retract or shrink the recursive "
                       f"relation (loop polarity "
                       f"{polarity_name(loop_kinds)} includes '-')",
                       path,
                       hint="convergence now depends on runtime values; "
                            "make the while handler monotone if the "
                            "recurrence allows it")
        return monotone

    # -- transfer over the tree -----------------------------------------
    def eval(self, node: PNode, path: str = "") -> Polarity:
        name = node.kind
        here = f"{path}/{name}" if path else name
        label = name

        if isinstance(node, PFused):
            # The analyses run before fusion; a fused tree reads as the
            # chain it collapsed.
            chain = node.children
            for constituent in node.constituents:
                chain = (replace(constituent, children=chain),)
            return self.eval(chain[0], path)

        child_pols = [self.eval(child, here) for child in node.children]
        in_pol = join_all(child_pols) if child_pols else None

        monotone = None
        port_pols = None
        dead: frozenset = BOTTOM

        if isinstance(node, PScan):
            out = Polarity(INSERT_ONLY, True)
        elif isinstance(node, PFeedback):
            out = self.feedback
        elif isinstance(node, (PProject, PRehash)):
            out = in_pol if in_pol is not None else Polarity(BOTTOM, True)
        elif isinstance(node, PFilter):
            out = self._filter_transfer(in_pol)
        elif isinstance(node, PApply):
            out = self._eval_apply(node, in_pol, here)
        elif isinstance(node, PJoin):
            out, port_pols, dead = self._eval_join(node, child_pols,
                                                   in_pol, here)
        elif isinstance(node, PGroupBy):
            dead = self._stateful_checks("GroupBy", here, in_pol,
                                         _HANDLED_GROUPBY)
            out = self._groupby_transfer(in_pol)
        elif isinstance(node, PFixpoint):
            out, monotone, dead = self._eval_fixpoint(node, child_pols,
                                                      in_pol, here)
        else:  # PUnion, PCollect, unknown passthroughs
            out = in_pol if in_pol is not None else Polarity(BOTTOM, True)

        self._record(node, NodeProperties(
            path=here, label=label, out_polarity=out, in_polarity=in_pol,
            port_polarities=port_pols, monotone=monotone, dead=dead))
        return out

    def _eval_apply(self, node: PApply, in_pol: Polarity,
                    here: str) -> Polarity:
        udf = instantiate(node.udf_factory)
        declared = _declared_polarity(udf)
        if node.delta_aware:
            if declared is not None:
                return Polarity(declared, True)
            return self._widen("delta-aware applyFunction "
                               f"{getattr(udf, 'name', 'udf')!r}", here)
        if getattr(udf, "table_valued", False):
            # Length-mismatched REPLACE images decompose into -/+ pairs.
            return self._filter_transfer(in_pol)
        return in_pol

    def _eval_join(self, node: PJoin, child_pols: List[Polarity],
                   in_pol: Polarity, here: str):
        out_kinds: set = set()
        exact = True
        handler = (instantiate(node.handler_factory)
                   if node.handler_factory is not None else None)
        for port, p in enumerate(child_pols):
            uses_handler = (handler is not None
                            and (node.handler_side is None
                                 or port == node.handler_side))
            if uses_handler:
                declared = _declared_polarity(handler)
                if declared is None:
                    widened = self._widen(
                        f"join delta handler {handler.name!r}", here)
                    out_kinds |= widened.kinds
                    exact = False
                else:
                    out_kinds |= declared
            else:
                out_kinds |= self._rules_join_output(p.kinds)
                exact = exact and p.exact
        dead = BOTTOM
        if handler is None:
            dead = self._stateful_checks("HashJoin", here, in_pol,
                                         _HANDLED_JOIN)
        return (Polarity(frozenset(out_kinds), exact),
                tuple(child_pols), dead)

    def _eval_fixpoint(self, node: PFixpoint, child_pols: List[Polarity],
                       in_pol: Polarity, here: str):
        body = child_pols[1] if len(child_pols) > 1 else in_pol
        handler = (instantiate(node.while_handler_factory)
                   if node.while_handler_factory is not None else None)
        dead: frozenset = BOTTOM
        if handler is not None:
            declared = _declared_polarity(handler)
            admitted = (Polarity(declared, True) if declared is not None
                        else self._widen(
                            f"while delta handler {handler.name!r}", here))
        elif node.semantics == "bag":
            admitted = in_pol
        elif node.semantics == "set":
            kinds = {INSERT}
            if DELETE in in_pol.kinds or REPLACE in in_pol.kinds:
                kinds.add(DELETE)
            admitted = Polarity(frozenset(kinds), in_pol.exact)
            dead = self._stateful_checks("Fixpoint", here, in_pol,
                                         _HANDLED_FIXPOINT_SET)
        else:  # keyed
            kinds = {INSERT, REPLACE}
            if DELETE in in_pol.kinds:
                kinds.add(DELETE)
            admitted = Polarity(frozenset(kinds), in_pol.exact)
            dead = self._stateful_checks("Fixpoint", here, in_pol,
                                         _HANDLED_FIXPOINT_KEYED)
            if in_pol.exact and UPDATE in in_pol.kinds:
                self._emit(
                    "REX305",
                    "δ(UPDATE) deltas reach a keyed fixpoint that has no "
                    "while delta handler; the operator rejects them at "
                    "runtime",
                    here,
                    hint="interpret the δ stream with a group-by or a "
                         "while delta handler before the fixpoint")
        monotone = self._fixpoint_checks(here, body, admitted)
        self.fixpoint_out = admitted
        return admitted, monotone, dead


def infer(plan: Union[PhysicalPlan, PNode]
          ) -> Tuple[PlanFacts, List[Diagnostic]]:
    """Run the abstract interpretation to a fixed point over the feedback
    edge; returns (per-node properties, REX30x diagnostics)."""
    root, origins = split_plan(plan)
    feedback = Polarity(BOTTOM, True)
    run = None
    for _ in range(MAX_PASSES):
        run = _Pass(feedback)
        run.eval(root)
        if run.fixpoint_out == feedback:
            break
        feedback = run.fixpoint_out
    return PlanFacts(run.nodes, run.by_id, origins), run.diagnostics
