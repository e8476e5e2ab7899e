"""The partitioning model: where rows live, decided once.

Every stream has a *partitioning* — the output column positions its rows
are hash-partitioned on (``()`` when gathered onto one worker),
:data:`BROADCAST` (replicated on every worker) or ``None`` (arbitrary).
This module is the one place that decides

* what each logical node outputs (:func:`propagate`),
* what each stateful input requires — its key positions, ``()`` for a
  keyless aggregate, or :data:`BROADCAST` for a cross join's mutable side,
* when a partitioning satisfies a requirement (:func:`satisfies`).

Exchange placement (:func:`add_exchanges`, "whenever needed, a rehash
operator re-partitions data among worker nodes", Section 4.2), the
physical lowering (which lowers ``add_exchanges``' output one ``LRehash``
to one ``PRehash``) and the analyzer's REX005/REX006 checks all walk
:func:`propagate`.  Positions, not names, are tracked, so renames don't
confuse them.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

from repro.operators.expressions import ColumnRef
from repro.optimizer.logical import (
    LApply,
    LFeedback,
    LFilter,
    LFixpoint,
    LGroupBy,
    LJoin,
    LNode,
    LProject,
    LRehash,
    LScan,
)

BROADCAST = "broadcast"
Partitioning = Union[None, str, Tuple[int, ...]]

#: ``require(consumer, child, part, wanted, what) -> child``: called for
#: every input of ``consumer`` whose partitioning ``part`` does not
#: satisfy ``wanted``; returns the input to use in its place.
Require = Callable[[LNode, LNode, Partitioning, Partitioning, str], LNode]
#: ``redundant(rehash, part)``: called for every exchange whose input
#: already has the partitioning ``part`` the exchange produces.
Redundant = Callable[[LRehash, Partitioning], None]


def satisfies(part: Partitioning, wanted: Partitioning) -> bool:
    """Rows hashed on a non-empty column set P co-locate equal values of
    every key set K ⊇ P.  A gather satisfies only a keyless requirement,
    and a broadcast only a broadcast one."""
    if wanted == () or wanted == BROADCAST:
        return part == wanted
    return (isinstance(part, tuple) and bool(part)
            and set(part) <= set(wanted))


def add_exchanges(node: LNode) -> LNode:
    """Return an equivalent tree with an explicit exchange below every
    input whose partitioning does not satisfy its consumer.  A composite
    key is rehashed on its first column; a tree that already satisfies
    every requirement comes back unchanged."""
    out, _ = propagate(node, _place)
    return out


def _place(consumer: LNode, child: LNode, part: Partitioning,
           wanted: Partitioning, what: str) -> LNode:
    if wanted == BROADCAST:
        return LRehash(child, key=None, broadcast=True)
    if wanted == ():
        return LRehash(child, key=None)  # gather
    return LRehash(child, key=wanted[0])


def _placed(wanted: Partitioning) -> Partitioning:
    """The partitioning :func:`_place`'s exchange produces."""
    if wanted == BROADCAST or wanted == ():
        return wanted
    return wanted[:1]


def propagate(node: LNode, require: Require,
              redundant: Optional[Redundant] = None
              ) -> Tuple[LNode, Partitioning]:
    """Walk ``node`` bottom-up; return the (possibly rebuilt) tree and its
    output partitioning.  An unsatisfied input is reported to ``require``
    and from then on treated as placement's exchange would leave it."""

    def walk(child: LNode) -> Tuple[LNode, Partitioning]:
        return propagate(child, require, redundant)

    def need(child: LNode, part: Partitioning, wanted: Partitioning,
             what: str) -> Tuple[LNode, Partitioning]:
        if satisfies(part, wanted):
            return child, part
        return require(node, child, part, wanted, what), _placed(wanted)

    if isinstance(node, LScan):
        if node.partition_key is None:
            return node, None
        return node, (node.partition_key,)

    if isinstance(node, LFeedback):
        return node, (node.fixpoint_key,)

    if isinstance(node, LFilter):
        child, part = walk(node.children[0])
        return _rebuilt(node, child), part

    if isinstance(node, LApply):
        child, part = walk(node.children[0])
        # 'extend' appends columns, keeping key positions intact.
        return (_rebuilt(node, child),
                part if node.mode == "extend" else None)

    if isinstance(node, LProject):
        child, part = walk(node.children[0])
        in_schema = node.children[0].schema
        passed: Dict[int, int] = {}
        for i, (expr, _) in enumerate(node.items):
            if isinstance(expr, ColumnRef) and in_schema.has(expr.name):
                passed.setdefault(expr.bind(in_schema).index, i)
        return _rebuilt(node, child), _remap(part, passed)

    if isinstance(node, LRehash):
        child, part = walk(node.children[0])
        if node.broadcast:
            out: Partitioning = BROADCAST
        elif node.key is None:
            out = ()
        else:
            out = (node.key,)
        if redundant is not None and part == out:
            redundant(node, out)
        return _rebuilt(node, child), out

    if isinstance(node, LJoin):
        left, lpart = walk(node.left)
        right, rpart = walk(node.right)
        if node.condition is None:
            right, _ = need(right, rpart, BROADCAST,
                            "cross join's mutable (right) input")
            return _rebuilt(node, left, right), None
        lpos, rpos = node.condition
        left, lpart = need(left, lpart, (lpos,), "join input (left, key "
                           f"{node.left.schema[lpos].name!r})")
        right, _ = need(right, rpart, (rpos,), "join input (right, key "
                        f"{node.right.schema[rpos].name!r})")
        out = lpart if node.handler_factory is None else None
        return _rebuilt(node, left, right), out

    if isinstance(node, LGroupBy):
        child, part = walk(node.children[0])
        if not node.pre_aggregated:
            # A combiner aggregates whatever its worker holds locally; the
            # final instance needs each group on one worker.
            names = [node.children[0].schema[k].name for k in node.keys]
            what = (f"group-by on {names}" if node.keys
                    else "global (keyless) aggregate")
            child, part = need(child, part, node.keys, what)
        # The keys lead the output; any other column is aggregated away.
        keys_out: Dict[int, int] = {}
        for i, pos in enumerate(node.keys):
            keys_out.setdefault(pos, i)
        return _rebuilt(node, child), _remap(part, keys_out)

    if isinstance(node, LFixpoint):
        key = (node.key,)
        name = node.schema[node.key].name
        base, _ = need(*walk(node.children[0]), key,
                       f"fixpoint base case (key {name!r})")
        recursive, _ = need(*walk(node.children[1]), key,
                            f"fixpoint recursive case (key {name!r})")
        return _rebuilt(node, base, recursive), key

    return _rebuilt(node, *(walk(c)[0] for c in node.children)), None


def _remap(part: Partitioning, positions: Dict[int, int]) -> Partitioning:
    """Partitioning through a node mapping input positions to output
    positions: it survives iff every partition column passes through."""
    if not isinstance(part, tuple) or not part:
        return part  # None, broadcast and gather pass unchanged
    if not all(p in positions for p in part):
        return None
    return tuple(positions[p] for p in part)


def _rebuilt(node: LNode, *children: LNode) -> LNode:
    if all(new is old for new, old in zip(children, node.children)):
        return node
    return node.with_children(list(children))
