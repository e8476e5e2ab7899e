"""Physical plan descriptors.

A plan is a tree of immutable node descriptors; the executor instantiates a
fresh operator tree from it on every worker (and again from scratch after a
restart-based recovery).  Anything holding per-worker mutable state —
aggregators, join/while delta handlers — is therefore described by a
*factory* (a zero-argument callable returning a fresh instance), never by a
shared instance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import PlanError  # noqa: F401 — re-exported for callers


class PNode:
    """Base physical-plan node; ``children`` feed into this node."""

    children: Tuple["PNode", ...] = ()

    @property
    def kind(self) -> str:
        """The node's type name without its ``P``: one step of a plan
        path (``Collect/Fixpoint/Rehash``)."""
        return type(self).__name__[1:]

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()


def instantiate(factory):
    """``factory()``, or None when the user code behind it raises: the
    analyses read what a factory builds without trusting it."""
    try:
        return factory()
    except Exception:  # noqa: BLE001 - factories are user code
        return None


def derive(node: PNode, rebuilds: Optional[list], **changes) -> PNode:
    """``dataclasses.replace(node, **changes)`` that notes ``(node, new)``
    on ``rebuilds`` when one is given: a plan pass that rebuilds nodes
    records where each came from, so facts inferred on the tree it was
    handed still answer for the tree it returns."""
    new = replace(node, **changes)
    if rebuilds is not None:
        rebuilds.append((node, new))
    return new


@dataclass(frozen=True)
class PScan(PNode):
    """Scan a catalog table's local partition."""

    table: str
    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PFeedback(PNode):
    """The fixpoint receiver: leaf of the recursive branch."""

    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PFilter(PNode):
    predicate: Callable[[tuple], Any]
    children: Tuple[PNode, ...] = ()
    #: UDF invocations per tuple inside the predicate (charged as UDC cost).
    udf_calls: int = 0


@dataclass(frozen=True)
class PProject(PNode):
    row_fn: Callable[[tuple], tuple]
    children: Tuple[PNode, ...] = ()

    @classmethod
    def over(cls, child: PNode, row_fn) -> "PProject":
        return cls(row_fn=row_fn, children=(child,))


@dataclass(frozen=True)
class PApply(PNode):
    """applyFunction over a UDF (``udf_factory`` returns the UDF object)."""

    udf_factory: Callable[[], Any]
    arg_fn: Callable[[tuple], tuple]
    mode: str = "extend"
    delta_aware: bool = False
    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PJoin(PNode):
    """Pipelined hash join; children = (left, right)."""

    left_key: Callable[[tuple], tuple]
    right_key: Callable[[tuple], tuple]
    handler_factory: Optional[Callable[[], Any]] = None
    handler_side: Optional[int] = 1
    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PGroupBy(PNode):
    """Group-by; ``specs_factory`` returns fresh AggregateSpec objects."""

    key_fn: Callable[[tuple], tuple]
    specs_factory: Callable[[], Sequence[Any]]
    mode: str = "stratum"
    clear_states_each_stratum: bool = False
    reset_emissions_each_stratum: bool = False
    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PRehash(PNode):
    """Cross-worker repartition by key (or broadcast)."""

    key_fn: Optional[Callable[[tuple], tuple]] = None
    broadcast: bool = False
    children: Tuple[PNode, ...] = ()

    @classmethod
    def by(cls, child: PNode, key_fn) -> "PRehash":
        return cls(key_fn=key_fn, children=(child,))

    @classmethod
    def broadcast_of(cls, child: PNode) -> "PRehash":
        return cls(broadcast=True, children=(child,))


@dataclass(frozen=True)
class PFused(PNode):
    """A maximal chain of stateless operators collapsed into one kernel.

    ``constituents`` are the original chain nodes in *data-flow* order
    (deepest child first), stored with their children stripped so a plan
    walk sees each constituent exactly once.  ``children`` are the inputs
    of the chain's deepest node.  Produced by
    :func:`repro.optimizer.fusion.fuse_plan`; never built by hand.
    """

    constituents: Tuple[PNode, ...] = ()
    children: Tuple[PNode, ...] = ()

    def walk(self):
        yield self
        for constituent in self.constituents:
            yield constituent
        for child in self.children:
            yield from child.walk()


@dataclass(frozen=True)
class PUnion(PNode):
    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PFixpoint(PNode):
    """Fixpoint; children = (base_case, recursive_case).

    ``key_fn`` is both the duplicate-elimination key and the partitioning
    key for Δ-set checkpoints.  ``while_handler_factory`` overrides the
    built-in keyed/set semantics with a user while-state handler.
    """

    key_fn: Optional[Callable[[tuple], tuple]] = None
    semantics: str = "keyed"
    while_handler_factory: Optional[Callable[[], Any]] = None
    admit_unchanged: bool = False
    children: Tuple[PNode, ...] = ()


@dataclass(frozen=True)
class PCollect(PNode):
    """Root sink: ships result deltas to the requestor."""

    children: Tuple[PNode, ...] = ()


class PhysicalPlan:
    """A validated plan: a :class:`PCollect` root over an operator tree."""

    def __init__(self, root: PNode):
        if not isinstance(root, PCollect):
            root = PCollect(children=(root,))
        self.root = root
        #: ``id`` of an operator node -> the logical node it was lowered
        #: from (filled by :func:`repro.optimizer.physical.lower`).
        self.origins: Dict[int, Any] = {}
        self._validate()

    def _validate(self) -> None:
        fixpoints = [n for n in self.root.walk() if isinstance(n, PFixpoint)]
        feedbacks = [n for n in self.root.walk() if isinstance(n, PFeedback)]
        if len(fixpoints) > 1:
            self._reject("at most one fixpoint per plan is supported",
                         "REX001")
        if fixpoints:
            fp = fixpoints[0]
            if len(fp.children) != 2:
                self._reject("fixpoint requires (base, recursive) children")
            recursive_feedbacks = [n for n in fp.children[1].walk()
                                   if isinstance(n, PFeedback)]
            if len(recursive_feedbacks) != 1:
                self._reject(
                    "the recursive branch must contain exactly one feedback leaf"
                )
            if len(feedbacks) != len(recursive_feedbacks):
                self._reject("feedback outside the recursive branch")
        elif feedbacks:
            self._reject("feedback leaf requires a fixpoint")

    def _reject(self, message: str, code: str = "REX002") -> None:
        # Imported lazily: repro.analysis imports this module at top level.
        from repro.analysis.diagnostics import make
        from repro.common.errors import PlanValidationError
        raise PlanValidationError(
            "physical plan failed validation",
            diagnostics=[make(code, message)])

    @property
    def fixpoint(self) -> Optional[PFixpoint]:
        for node in self.root.walk():
            if isinstance(node, PFixpoint):
                return node
        return None

    @property
    def is_recursive(self) -> bool:
        return self.fixpoint is not None

    def tables(self) -> List[str]:
        return sorted({n.table for n in self.root.walk() if isinstance(n, PScan)})
