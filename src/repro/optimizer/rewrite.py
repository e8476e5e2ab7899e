"""Proof-directed plan rewrites: spend the lineage analysis.

Two families, both gated on facts inferred by
:mod:`repro.analysis.lineage` (column demand, predicate effects) and
:mod:`repro.analysis.absint` (delta polarity):

* **Filter pushdown** — a :class:`~repro.runtime.plan.PFilter` moves
  below an exchange (fewer rows cross the wire), below a Project (the
  predicate composes with the row function), below an extend-mode
  ApplyFunction (the child prefix keeps its positions), or into the left
  input of a plain hash join (the predicate reads only left columns).
* **Exchange narrowing** — when only a prefix of the columns crossing a
  non-broadcast :class:`~repro.runtime.plan.PRehash` is live downstream,
  a truncating Project is inserted below the exchange so the wire
  carries only that prefix.

Legality is deliberately austere.  Every rewrite requires the stream it
touches to be **proven insert-only with an exact polarity** — REPLACE
straddles route and filter differently across a move, and UPDATE deltas
from the bench handlers carry key-only rows narrower than the declared
width, which truncation or late filtering would corrupt.  Filters move
only when their predicate is pure (re-evaluation safe) with an exactly
known read-set; narrowing only truncates a *suffix* (``row[:k]``),
because downstream compiled callables address columns by fixed position.
The pass is the only place legality is written: a plan's preparation
(:func:`repro.analysis.analyzer.prepare`) runs it once, on the facts of
the plan's one inference, before fusion; the executor builds what it
returns (``ExecOptions(rewrite=True)``, the default), and the analyzer
reports each :class:`RewriteDecision` at its path (a declined candidate
as REX404, an applied ``filter-pushdown`` as REX405, an applied
``narrow-exchange`` as REX406), so a diagnostic and the rewrite it names
cannot disagree.  Where nothing fires the tree is returned with
identical object identity and ``QueryMetrics.fingerprint`` is
bit-identical rewrite on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.absint import INSERT_ONLY, PlanFacts, \
    infer as infer_polarity
from repro.analysis.diagnostics import Diagnostic, make
from repro.analysis.lineage import infer_lineage
from repro.common.deltas import DeltaOp
from repro.runtime.plan import (
    PApply,
    PCollect,
    PFilter,
    PFixpoint,
    PJoin,
    PNode,
    PProject,
    PRehash,
    derive,
    instantiate,
)

#: Upper bound on pushdown sweeps: each sweep moves a filter at most one
#: level, so this bounds how deep a filter can sink.
MAX_SWEEPS = 8


def _no_candidates(root: PNode) -> bool:
    """True when a constant-time structural scan proves no rewrite can
    *apply* to ``root``, so a plan's preparation (and
    :func:`rewrite_plan`) skips the inference and the pass.

    Its obligations mirror the legality gates below: filter pushdown
    needs a :class:`PFilter`; exchange narrowing needs a non-broadcast
    single-child :class:`PRehash` that feeds neither a fixpoint nor the
    collector (both demand every column) and does not drain a handler
    join declaring a non-insert ``emits_polarity`` (the insert-only gate
    cannot hold there).  Skipping is sound
    (``tests/test_rewrite_decisions.py``) and elides only the decline
    records of dead candidates.  The gate is cheap, not complete: it
    skips ``pagerank_plan(mode="delta")`` but not ``sssp_plan()``, whose
    exchange drains a handler join declared insert-only.
    """
    stack = [(root, None)]
    while stack:
        node, parent = stack.pop()
        for child in node.children:
            stack.append((child, node))
        if isinstance(node, PFilter):
            return False
        if (isinstance(node, PRehash) and not node.broadcast
                and len(node.children) == 1):
            if isinstance(parent, (PCollect, PFixpoint)):
                continue  # full-width demand: narrowing is moot
            child = node.children[0]
            if isinstance(child, PJoin) and child.handler_factory is not None:
                emits = getattr(instantiate(child.handler_factory),
                                "emits_polarity", None)
                if emits and not frozenset(emits) <= {DeltaOp.INSERT}:
                    continue  # insert-only gate provably fails
            return False
    return True


@dataclass(frozen=True)
class RewriteDecision:
    """One rewrite candidate and what the pass did with it."""

    path: str
    """Plan path of the candidate's topmost node (root-relative)."""
    kind: str
    """``filter-pushdown`` or ``narrow-exchange``."""
    applied: bool
    reason: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "kind": self.kind,
            "applied": self.applied,
            "reason": self.reason,
        }

    def diagnostic(self) -> Diagnostic:
        """The analyzer's finding for this decision: REX404 for a
        declined candidate, REX405/REX406 for an applied filter pushdown
        / exchange narrowing."""
        if not self.applied:
            return make("REX404", f"{self.kind} declined: {self.reason}",
                        location=self.path,
                        hint="the rewrite pass leaves this candidate in "
                             "place until the named fact is proven")
        code = "REX405" if self.kind == "filter-pushdown" else "REX406"
        return make(code, f"{self.kind} licensed: {self.reason}",
                    location=self.path,
                    hint="ExecOptions(rewrite=True) applies it")


def _truncator(width: int):
    """The inserted narrowing projection: keep the first ``width``
    columns.  Suffix truncation only — downstream compiled callables
    address columns by fixed position, so renumbering is off the table.
    """
    return lambda row, _w=width: row[:_w]


def _composed(predicate, row_fn):
    """``predicate`` evaluated on the projected row, for pushing a
    filter below the Project that feeds it."""
    return lambda row, _p=predicate, _f=row_fn: _p(_f(row))


class _Rewriter:
    """One sweep over the tree with the caller's lineage/polarity facts.

    Lookups are keyed by the node identities of the tree the facts were
    inferred on; rebuilt subtrees are fresh objects, so after a sweep
    that changed the tree the caller re-infers (see :func:`rewrite_with`).
    Each rebuilt node is noted on ``rebuilds``
    (:func:`~repro.runtime.plan.derive`).
    """

    def __init__(self, props: PlanFacts, lineage: PlanFacts,
                 decisions: List[RewriteDecision],
                 rebuilds: Optional[list] = None):
        self.props = props
        self.lineage = lineage
        self.decisions = decisions
        self.rebuilds = rebuilds
        self.changed = False

    def _derive(self, node: PNode, **changes) -> PNode:
        return derive(node, self.rebuilds, **changes)

    def _insert_only(self, node: PNode) -> bool:
        props = self.props.of(node)
        return (props is not None
                and props.out_polarity.proves(INSERT_ONLY))

    def _decline(self, path: str, kind: str, reason: str) -> None:
        self.decisions.append(RewriteDecision(
            path=path, kind=kind, applied=False, reason=reason))

    def _apply(self, path: str, kind: str, reason: str) -> None:
        self.decisions.append(RewriteDecision(
            path=path, kind=kind, applied=True, reason=reason))
        self.changed = True

    # -- filter pushdown --------------------------------------------------
    def push_filters(self, node: PNode, path: str = "") -> PNode:
        here = f"{path}/{node.kind}" if path else node.kind
        rebuilt = tuple(self.push_filters(child, here)
                        for child in node.children)
        if isinstance(node, PFilter) and len(node.children) == 1:
            pushed = self._push_one(node, rebuilt[0], here)
            if pushed is not None:
                return pushed
        if rebuilt == node.children:
            return node
        return self._derive(node, children=rebuilt)

    def _push_one(self, node: PFilter, below: PNode,
                  here: str) -> Optional[PNode]:
        """Move ``node`` below ``below`` (its rebuilt child) if legal;
        None means no move.  Gate lookups use the original child
        (``node.children[0]``) — same shape, valid fact keys."""
        original_child = node.children[0]
        lin = self.lineage.of(node)
        if lin is None or not isinstance(
                original_child, (PRehash, PProject, PApply, PJoin)):
            return None
        target = original_child.kind
        kind = "filter-pushdown"
        if isinstance(original_child, PRehash) and original_child.broadcast:
            return None
        if not (lin.pure and lin.reads_exact):
            blocker = ("predicate is not provably pure"
                       if lin.pure is not True
                       else "predicate read-set could not be proven")
            self._decline(here, kind, f"below {target}: {blocker}")
            return None
        if not self._insert_only(original_child):
            self._decline(
                here, kind,
                f"below {target}: stream polarity not proven insert-only "
                "(replace/update deltas route and filter differently "
                "across the move)")
            return None
        reads = lin.reads or frozenset()

        if isinstance(original_child, PRehash):
            moved = self._derive(below, children=(
                self._derive(node, children=(below.children[0],)),))
            self._apply(here, kind,
                        f"below {target}: pure predicate over "
                        f"{sorted(reads)}, insert-only stream; rows are "
                        "dropped before they cross the exchange")
            return moved

        if isinstance(original_child, PProject):
            child_lin = self.lineage.of(original_child)
            if child_lin is None or child_lin.pure is not True:
                self._decline(here, kind,
                              f"below {target}: projection row function "
                              "is not provably pure")
                return None
            moved = self._derive(below, children=(self._derive(
                node, predicate=_composed(node.predicate, below.row_fn),
                children=(below.children[0],)),))
            self._apply(here, kind,
                        f"below {target}: predicate composed with the "
                        "pure row function; rows are dropped before the "
                        "projection runs")
            return moved

        if isinstance(original_child, PApply):
            if original_child.mode != "extend":
                self._decline(here, kind,
                              f"below {target}: replace-mode apply does "
                              "not preserve input column positions")
                return None
            grand = self.lineage.of(original_child.children[0])
            child_arity = grand.out_arity if grand is not None else None
            if child_arity is None or any(r >= child_arity for r in reads):
                self._decline(here, kind,
                              f"below {target}: predicate reads columns "
                              "produced by the UDF (or the input width "
                              "is unknown)")
                return None
            moved = self._derive(below, children=(
                self._derive(node, children=(below.children[0],)),))
            self._apply(here, kind,
                        f"below {target}: predicate reads only the "
                        f"pass-through prefix {sorted(reads)}; rows are "
                        "dropped before the UDF runs")
            return moved

        # Plain hash join: predicate confined to left-input columns.
        if original_child.handler_factory is not None:
            self._decline(here, kind,
                          f"below {target}: handler joins synthesize "
                          "their output rows; no column provenance to "
                          "push through")
            return None
        left = self.lineage.of(original_child.children[0])
        left_arity = left.out_arity if left is not None else None
        if left_arity is None or any(r >= left_arity for r in reads):
            self._decline(here, kind,
                          f"below {target}: predicate reads right-side "
                          "columns (or the left width is unknown); only "
                          "left-confined predicates push")
            return None
        if not self._insert_only(original_child.children[0]):
            self._decline(here, kind,
                          f"below {target}: left input polarity not "
                          "proven insert-only")
            return None
        moved = self._derive(below, children=(
            self._derive(node, children=(below.children[0],)),
            below.children[1]))
        self._apply(here, kind,
                    f"below {target}: predicate reads only left columns "
                    f"{sorted(reads)}; left rows are dropped before they "
                    "enter the join state")
        return moved

    # -- exchange narrowing -----------------------------------------------
    def narrow_exchanges(self, node: PNode, path: str = "") -> PNode:
        here = f"{path}/{node.kind}" if path else node.kind
        rebuilt = tuple(self.narrow_exchanges(child, here)
                        for child in node.children)
        node2 = node if rebuilt == node.children \
            else self._derive(node, children=rebuilt)
        if not (isinstance(node, PRehash) and not node.broadcast
                and len(node.children) == 1):
            return node2
        kind = "narrow-exchange"
        lin = self.lineage.of(node)
        child_lin = self.lineage.of(node.children[0])
        wanted = lin.in_live if lin is not None else None
        child_arity = child_lin.out_arity if child_lin is not None else None
        if wanted is None or not wanted.exact or not wanted.cols \
                or child_arity is None:
            return node2
        width = max(wanted.cols) + 1
        if width >= child_arity:
            return node2
        if not self._insert_only(node.children[0]):
            self._decline(
                here, kind,
                f"live columns {sorted(wanted.cols)} of {child_arity}, "
                "but stream polarity not proven insert-only: delta rows "
                "may be key-only tuples narrower than the declared width")
            return node2
        self._apply(here, kind,
                    f"only columns {sorted(wanted.cols)} of {child_arity} "
                    f"are live downstream; truncating to row[:{width}] "
                    "below the exchange")
        return self._derive(node2, children=(
            PProject(row_fn=_truncator(width),
                     children=(node2.children[0],)),))


def rewrite_plan(root: PNode,
                 table_arity: Optional[Dict[str, int]] = None
                 ) -> Tuple[PNode, List[RewriteDecision]]:
    """The pass on its own, as a plan's preparation runs it: the
    pre-gate, then one inference of each fact and :func:`rewrite_with`.
    Returns the (possibly new) root and one :class:`RewriteDecision` per
    candidate; a tree where nothing applies comes back as is.
    ``table_arity`` maps a table to its width; without it no exchange
    above a scan narrows."""
    if _no_candidates(root):
        return root, []
    return rewrite_with(root, *_facts(root, table_arity), table_arity)


def _facts(root: PNode, table_arity: Optional[Dict[str, int]]):
    props, _ = infer_polarity(root)
    lineage, _ = infer_lineage(root, table_arity=table_arity)
    return props, lineage


def rewrite_with(root: PNode, props: PlanFacts, lineage: PlanFacts,
                 table_arity: Optional[Dict[str, int]] = None,
                 rebuilds: Optional[list] = None
                 ) -> Tuple[PNode, List[RewriteDecision]]:
    """The whole pass over ``root``, starting from polarity and lineage
    facts the caller inferred on that tree (a prepared plan passes its
    own); they are re-inferred only after a sweep changed the tree.  No
    pre-gate: every candidate gets its decision.  Each rebuilt node is
    noted on ``rebuilds``."""
    decisions: List[RewriteDecision] = []
    for _ in range(MAX_SWEEPS):
        sweep = _Rewriter(props, lineage, decisions, rebuilds)
        root = sweep.push_filters(root)
        if not sweep.changed:
            break
        props, lineage = _facts(root, table_arity)
    root = _Rewriter(props, lineage, decisions,
                     rebuilds).narrow_exchanges(root)
    # A candidate declined in sweep 1 is re-visited (and re-declined)
    # by every later sweep; keep the first record of each decision.
    return root, list(dict.fromkeys(decisions))
