"""Rule passes over physical plans.

Physical nodes carry opaque compiled callables (key functions, factories)
rather than named columns, so the checkable surface is structural: the
fixpoint/feedback topology, pre-aggregation pairing, handler wiring, and
delta-interpretation placement.  Hand-built plans (the ``repro.algorithms``
builders, tests) get the same soundness screen RQL-compiled plans get from
the logical rules.
"""

from __future__ import annotations

from typing import Callable, List

from repro.analysis.diagnostics import Diagnostic, Severity, make
from repro.runtime.plan import (
    PApply,
    PFeedback,
    PFixpoint,
    PGroupBy,
    PJoin,
    PNode,
    PRehash,
)

PhysicalRulePass = Callable[[PNode, Callable[[Diagnostic], None]], None]


def _walk_with_path(node: PNode, path: str = ""):
    here = f"{path}/{node.kind}" if path else node.kind
    yield node, here
    for child in node.children:
        yield from _walk_with_path(child, here)


def _count(node: PNode, kind) -> int:
    return sum(1 for n in node.walk() if isinstance(n, kind))


def check_fixpoint_structure(root: PNode, emit) -> None:
    """Mirror of :meth:`PhysicalPlan._validate`, reported as diagnostics
    (so ``repro analyze`` can explain a plan the constructor would
    reject) plus the nesting/base-case checks the constructor skips."""
    fixpoints = [(n, p) for n, p in _walk_with_path(root)
                 if isinstance(n, PFixpoint)]
    n_feedbacks = _count(root, PFeedback)
    if len(fixpoints) > 1:
        emit(make("REX001",
                  f"plan contains {len(fixpoints)} fixpoints; the engine "
                  f"executes at most one per plan",
                  location=fixpoints[1][1],
                  hint="stratify: run the inner fixpoint as its own "
                       "query and feed its result in as a table"))
    if not fixpoints:
        if n_feedbacks:
            emit(make("REX002",
                      "feedback leaf present but the plan has no fixpoint",
                      location="Collect",
                      hint="wrap the recursion in a PFixpoint"))
        return
    fp, path = fixpoints[0]
    if len(fp.children) != 2:
        emit(make("REX002",
                  f"fixpoint has {len(fp.children)} child(ren); "
                  f"(base, recursive) required",
                  location=path))
        return
    base, recursive = fp.children
    in_base = _count(base, PFeedback)
    in_recursive = _count(recursive, PFeedback)
    if in_recursive != 1:
        emit(make("REX002",
                  f"recursive branch contains {in_recursive} feedback "
                  f"leaves (exactly one required)",
                  location=path))
    if in_base:
        emit(make("REX002",
                  "base case reads the recursive relation",
                  location=path,
                  hint="the base case must be non-recursive"))
    if n_feedbacks > in_base + in_recursive:
        emit(make("REX002",
                  "feedback leaf outside the fixpoint's branches",
                  location=path))
    if fp.key_fn is None and fp.while_handler_factory is None \
            and fp.semantics == "keyed":
        emit(make("REX002",
                  "keyed fixpoint without a key function or while-state "
                  "handler cannot deduplicate derivations",
                  location=path,
                  hint="supply key_fn or a while handler"))


def check_handler_wiring(root: PNode, emit) -> None:
    """Handler joins inside recursion must see the feedback stream, and
    their δ-payload outputs must be interpreted before the fixpoint."""
    parents = {}
    for n in root.walk():
        for c in n.children:
            parents[id(c)] = n
    for fp, fpath in _walk_with_path(root):
        if not isinstance(fp, PFixpoint) or len(fp.children) != 2:
            continue
        recursive = fp.children[1]
        for node, path in _walk_with_path(recursive, fpath):
            if not isinstance(node, PJoin) or node.handler_factory is None:
                continue
            if not _count(node, PFeedback):
                emit(make(
                    "REX007",
                    "join delta handler inside the recursive branch is "
                    "not fed by the feedback leaf",
                    location=path,
                    hint="route the fixpoint receiver into the handler's "
                         "mutable side"))
            if not _interpreted(node, fp, parents):
                emit(make(
                    "REX007",
                    "join delta handler output reaches the fixpoint with "
                    "no group-by or while-state handler to interpret its "
                    "δ payloads",
                    location=path,
                    hint="aggregate the handler output or attach a while "
                         "handler to the fixpoint"))


def _interpreted(join: PJoin, fp: PFixpoint, parents) -> bool:
    if fp.while_handler_factory is not None:
        return True
    node = parents.get(id(join))
    while node is not None and node is not fp:
        if isinstance(node, PGroupBy):
            return True
        node = parents.get(id(node))
    return False


def check_redundant_broadcast(root: PNode, emit) -> None:
    for node, path in _walk_with_path(root):
        if isinstance(node, PRehash) and node.broadcast \
                and node.children \
                and isinstance(node.children[0], PRehash) \
                and node.children[0].broadcast:
            emit(make("REX006",
                      "broadcast of an already-broadcast stream",
                      location=path,
                      hint="drop the inner broadcast exchange"))


def check_delta_aware_apply(root: PNode, emit) -> None:
    """Inside a recursive branch, replace/update deltas flow on every
    stratum; a non-delta-aware applyFunction silently re-derives from the
    new row only, which is fine for pure row transforms but wrong for
    UDFs that must see annotations — advisory only."""
    for fp, fpath in _walk_with_path(root):
        if not isinstance(fp, PFixpoint) or len(fp.children) != 2:
            continue
        for node, path in _walk_with_path(fp.children[1], fpath):
            if isinstance(node, PApply) and not node.delta_aware \
                    and getattr(node, "mode", "extend") == "replace":
                emit(make(
                    "REX007",
                    "row-replacing applyFunction inside the recursive "
                    "branch is not delta-aware: REPLACE annotations lose "
                    "their old rows through it",
                    location=path,
                    severity=Severity.INFO,
                    hint="set delta_aware=True if the UDF must see "
                         "annotations"))


PHYSICAL_PASSES: List[PhysicalRulePass] = [
    check_fixpoint_structure,
    check_handler_wiring,
    check_redundant_broadcast,
    check_delta_aware_apply,
]
