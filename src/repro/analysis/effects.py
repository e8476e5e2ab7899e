"""AST-based effect extraction for UDFs, predicates, and delta handlers.

The lineage analysis (:mod:`repro.analysis.lineage`) and the REX107 lint
rule both need to know, for a black-box Python callable, *which row
attributes it reads* — ``row[0]``, ``delta.row[2]``, a tuple-unpacking
``v, p, d = delta.row`` — and whether that knowledge is exact or had to
be widened because the row escaped whole (aliased, passed to a call,
returned, or indexed by a non-constant).

Soundness contract: an :class:`EffectSummary` with ``exact=True`` is a
proof — the callable reads **only** the listed positions.  Anything the
extractor cannot follow widens to ``exact=False`` and no verdict or
rewrite may be built on the (then meaningless) ``reads`` set.  Callables
whose source is unavailable (C builtins, ``functools.partial``,
``operator.itemgetter``) come back ``opaque=True``.

Purity here means "safe to re-evaluate in a different plan position":
no writes to nonlocal/global state, no calls outside a small whitelist
of value-level builtins.  It deliberately ignores allocation and
exceptions — re-ordering a predicate that may raise changes *which* row
raises first, but the engine treats predicate exceptions as query
failure either way.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Sequence, Set, Tuple

#: Calls considered pure value-level computation (re-evaluation safe).
_PURE_CALLS = frozenset({
    "abs", "min", "max", "len", "round", "int", "float", "bool", "str",
    "tuple", "frozenset", "sorted", "sum", "divmod", "pow", "hash",
})

#: Attribute accesses on these bases are pure math (``math.sqrt`` ...).
_PURE_MODULES = frozenset({"math"})


@dataclass(frozen=True)
class EffectSummary:
    """What one callable does to its row argument.

    ``reads`` — constant positions read off the row parameter.  Only a
    proof when ``exact`` is True; when False the callable let the row
    escape (or indexed it dynamically) and may read anything.
    ``out_arity`` — number of columns produced when the body is a single
    tuple-literal return, else None.
    ``passthrough`` — output position -> input position for outputs that
    are bare ``row[i]`` references (identity column moves); only
    populated when ``out_arity`` is known.
    ``pure`` — safe to re-evaluate at a different plan position.
    ``opaque`` — no source was retrievable at all; everything above is
    the widened default.
    """

    reads: FrozenSet[int] = frozenset()
    exact: bool = False
    out_arity: Optional[int] = None
    passthrough: Dict[int, int] = field(default_factory=dict)
    pure: bool = False
    opaque: bool = True

    def proves_reads(self) -> bool:
        """True when ``reads`` is a sound upper bound on what is read."""
        return self.exact and not self.opaque


#: The widened "don't know anything" summary.
OPAQUE = EffectSummary()


def _source_tree(fn) -> Optional[ast.AST]:
    """Parse ``fn``'s source, or None when it is not retrievable."""
    try:
        src = inspect.getsource(fn)
    except (OSError, TypeError):
        return None
    try:
        return ast.parse(textwrap.dedent(src))
    except SyntaxError:
        # A lambda sliced mid-expression by getsource (e.g. defined
        # inside a call argument list): retry by scanning for the first
        # parsable lambda inside the line.
        return _reparse_lambda(src)


def _reparse_lambda(src: str) -> Optional[ast.AST]:
    text = textwrap.dedent(src).strip().rstrip(",)")
    start = text.find("lambda")
    while start >= 0:
        for end in range(len(text), start, -1):
            try:
                tree = ast.parse(text[start:end].rstrip(",)"), mode="eval")
            except SyntaxError:
                continue
            if isinstance(tree.body, ast.Lambda):
                return tree
            break
        start = text.find("lambda", start + 1)
    return None


def _callable_def(fn, tree: ast.AST):
    """The FunctionDef / Lambda node matching ``fn`` inside its source."""
    name = getattr(fn, "__name__", None)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
        elif isinstance(node, ast.Lambda) and name == "<lambda>":
            return node
    # Fallback: any single lambda in the parsed fragment.
    lambdas = [n for n in ast.walk(tree) if isinstance(n, ast.Lambda)]
    if len(lambdas) == 1:
        return lambdas[0]
    return None


def _param_names(node) -> Sequence[str]:
    args = node.args
    return [a.arg for a in args.posonlyargs + args.args]


class _RowReads(ast.NodeVisitor):
    """Collect constant-subscript reads of a set of row expressions.

    A *row expression* is either a bare parameter name (``row``) or an
    attribute path rooted at a parameter (``delta.row``); ``paths`` maps
    the dotted string form to True.  Any other use of a row expression —
    aliasing, call argument, return of the whole row, non-constant
    subscript — marks the summary inexact.
    """

    def __init__(self, paths: Set[str]):
        self.paths = paths
        self.reads: Set[int] = set()
        self.exact = True
        self.pure = True
        self._unpack_targets: Dict[str, int] = {}

    # -- row expression matching ----------------------------------------
    def _row_path(self, node: ast.expr) -> Optional[str]:
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            dotted = ".".join(reversed(parts))
            if dotted in self.paths:
                return dotted
        return None

    # -- reads -----------------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._row_path(node.value) is not None:
            index = node.slice
            if isinstance(index, ast.Constant) and isinstance(
                    index.value, int) and index.value >= 0:
                self.reads.add(index.value)
                # Don't descend into node.value: the bare row reference
                # under a constant subscript is a read, not an escape.
                self.visit(index)
                return
            if isinstance(index, ast.Slice):
                # row[:k] style — reads an unknown prefix; treat as
                # reading everything (inexact) since the bound may be
                # dynamic, unless all bounds are constants.
                lo = getattr(index.lower, "value", 0) or 0
                hi = getattr(index.upper, "value", None)
                if (index.step is None and isinstance(lo, int)
                        and isinstance(hi, int) and hi >= lo >= 0):
                    self.reads.update(range(lo, hi))
                    return
            self.exact = False
            return
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Tuple unpacking ``v, p, d = delta.row`` reads positions 0..n-1.
        if (len(node.targets) == 1
                and isinstance(node.targets[0], (ast.Tuple, ast.List))
                and self._row_path(node.value) is not None):
            elts = node.targets[0].elts
            if all(isinstance(e, ast.Name) for e in elts):
                self.reads.update(range(len(elts)))
                for i, e in enumerate(elts):
                    self._unpack_targets[e.id] = i
                return
            self.exact = False
            return
        # Assigning the whole row anywhere else is an escape.
        if self._row_path(node.value) is not None:
            self.exact = False
        for target in node.targets:
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                self.pure = False
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, (ast.Attribute, ast.Subscript)):
            self.pure = False
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        # A bare row reference surviving to here (not consumed by a
        # constant subscript or a recognized unpack) escaped.
        if isinstance(node.ctx, ast.Load) and node.id in self.paths:
            self.exact = False
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.ctx, ast.Load)
                and self._row_path(node) is not None):
            self.exact = False
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            if (isinstance(func.value, ast.Name)
                    and func.value.id in _PURE_MODULES):
                name = f"{func.value.id}.{func.attr}"
            else:
                name = func.attr
        if name is not None and name not in _PURE_CALLS \
                and "." not in name:
            self.pure = False
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.pure = False

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.pure = False


def _tuple_return(node) -> Optional[ast.expr]:
    """The single returned expression of a def/lambda body, if any."""
    if isinstance(node, ast.Lambda):
        return node.body
    returns = [n for n in node.body if isinstance(n, ast.Return)]
    if len(returns) == 1 and returns[0] is node.body[-1] \
            and returns[0].value is not None:
        return returns[0].value
    return None


def _output_shape(body: Optional[ast.expr],
                  paths: Set[str]) -> Tuple[Optional[int], Dict[int, int]]:
    """(out_arity, passthrough) for a tuple-literal return expression."""
    if not isinstance(body, (ast.Tuple, ast.List)):
        return None, {}
    passthrough: Dict[int, int] = {}
    for out_pos, elt in enumerate(body.elts):
        if (isinstance(elt, ast.Subscript)
                and isinstance(elt.slice, ast.Constant)
                and isinstance(elt.slice.value, int)):
            value = elt.value
            parts = []
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name):
                parts.append(value.id)
                if ".".join(reversed(parts)) in paths:
                    passthrough[out_pos] = elt.slice.value
    return len(body.elts), passthrough


#: Summaries by ``(code object, row_param, row_attrs)``.  A summary is a
#: function of the source alone, and compiled expressions and key
#: extractors share one code object per source, so each is parsed once.
_SUMMARIES: Dict[tuple, EffectSummary] = {}


def extract_effects(fn, row_param: int = 0,
                    row_attrs: Sequence[str] = ("row",)) -> EffectSummary:
    """Effect summary for a row-level callable.

    ``row_param`` picks which positional parameter carries the row.  When
    the parameter is a record (a :class:`~repro.common.deltas.Delta`),
    ``row_attrs`` lists the attribute names under which the row tuple
    hides (``delta.row`` and, for REPLACE deltas, ``delta.old``); for a
    plain row parameter the bare name itself is the row expression.
    """
    fn = inspect.unwrap(fn)
    code = getattr(fn, "__code__", None)
    if code is None:
        return _extract(fn, row_param, row_attrs)
    key = (code, row_param, tuple(row_attrs))
    summary = _SUMMARIES.get(key)
    if summary is None:
        summary = _SUMMARIES[key] = _extract(fn, row_param, row_attrs)
    return summary


def _extract(fn, row_param: int,
             row_attrs: Sequence[str]) -> EffectSummary:
    tree = _source_tree(fn)
    if tree is None:
        return OPAQUE
    node = _callable_def(fn, tree)
    if node is None:
        return OPAQUE
    params = _param_names(node)
    # Methods: drop the self/cls slot so row_param counts real arguments.
    if params and params[0] in ("self", "cls") \
            and not isinstance(node, ast.Lambda):
        params = params[1:]
    if row_param >= len(params):
        return OPAQUE
    base = params[row_param]
    paths = {base} | {f"{base}.{attr}" for attr in row_attrs}
    visitor = _RowReads(paths)
    body_nodes = node.body if isinstance(node.body, list) else [node.body]
    for stmt in body_nodes:
        visitor.visit(stmt)
    out_arity, passthrough = _output_shape(_tuple_return(node), paths)
    return EffectSummary(
        reads=frozenset(visitor.reads),
        exact=visitor.exact,
        out_arity=out_arity,
        passthrough=passthrough,
        pure=visitor.pure,
        opaque=False,
    )


def extract_handler_effects(handler_cls,
                            method: str = "update") -> EffectSummary:
    """Effect summary for a delta handler's ``update`` method.

    Handlers receive the delta as a named parameter; the row tuple hides
    under ``delta.row`` / ``delta.old``.  The delta parameter is found by
    name (``delta``) rather than position because the two handler
    protocols place it differently (:class:`JoinDeltaHandler.update`
    takes ``(left_bucket, right_bucket, delta, side)``,
    :class:`WhileDeltaHandler.update` takes ``(while_relation, delta)``).
    """
    fn = getattr(handler_cls, method, None)
    if fn is None:
        return OPAQUE
    fn = inspect.unwrap(fn)
    tree = _source_tree(fn)
    if tree is None:
        return OPAQUE
    node = _callable_def(fn, tree)
    if node is None:
        return OPAQUE
    params = _param_names(node)
    if "delta" not in params:
        return OPAQUE
    paths = {"delta.row", "delta.old"}
    visitor = _RowReads(paths)
    for stmt in node.body:
        visitor.visit(stmt)
    return EffectSummary(
        reads=frozenset(visitor.reads),
        exact=visitor.exact,
        out_arity=None,
        passthrough={},
        pure=visitor.pure,
        opaque=False,
    )


def declared_reads(obj) -> Optional[FrozenSet[int]]:
    """The ``reads=`` declaration on a UDF/handler/aggregator, if any."""
    declared = getattr(obj, "reads", None)
    if declared is None:
        return None
    try:
        return frozenset(int(i) for i in declared)
    except (TypeError, ValueError):
        return None


def check_declaration(obj, summary: EffectSummary
                      ) -> Tuple[FrozenSet[int], FrozenSet[int]]:
    """Cross-check a ``reads=`` declaration against extracted effects.

    Returns ``(undeclared, overdeclared)``: positions the body reads but
    the declaration omits (REX401 — only meaningful when the extraction
    is exact-or-wider... the extraction need not be exact for this
    direction, since every extracted read is a real read), and declared
    positions the body provably never reads (REX402 — requires an exact
    extraction, else silence).
    """
    declared = declared_reads(obj)
    if declared is None or summary.opaque:
        return frozenset(), frozenset()
    undeclared = summary.reads - declared
    overdeclared = (declared - summary.reads) if summary.exact \
        else frozenset()
    return frozenset(undeclared), frozenset(overdeclared)
