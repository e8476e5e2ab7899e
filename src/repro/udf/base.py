"""User-defined functions: registration, introspection, caching, hints.

The paper integrates Java user code three ways (Section 3.3): implementing a
typed interface, providing methods with reserved names discovered by
reflection, or supplying type metadata.  We mirror all three in Python:

* subclass :class:`UDF` (the typed interface);
* decorate a plain function with :func:`udf` (metadata supplied inline);
* pass any object with an ``evaluate`` method plus ``in_types``/``out_types``
  attributes to :func:`introspect_udf` (the reflection path).

Optimizer-facing metadata rides along: ``deterministic`` enables result
caching (Section 5.1 "Caching"), ``cost_hint`` carries the programmer's
big-O shape (Section 5.1 "Cost calibration and hints"), and ``selectivity``
feeds predicate-rank ordering.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.common.errors import UDFError
from repro.common.schema import SQLType


def _parse_types(specs: Optional[Sequence[str]]) -> Tuple[Tuple[str, SQLType], ...]:
    """Parse ``["nbr:Integer", "Double"]``-style declarations into
    (name, type) pairs; unnamed entries get positional names."""
    if not specs:
        return ()
    out = []
    for i, spec in enumerate(specs):
        if ":" in spec:
            name, tname = spec.split(":", 1)
        else:
            name, tname = f"arg{i}", spec
        out.append((name.strip(), SQLType.parse(tname)))
    return tuple(out)


class UDF:
    """A scalar or table-valued user-defined function.

    Scalar UDFs return a single value; table-valued UDFs (``table_valued``)
    return an iterable of output rows.  Subclasses implement
    :meth:`evaluate`; metadata comes from class attributes mirroring the
    paper's ``inTypes`` / ``outTypes`` declarations.
    """

    name: Optional[str] = None
    in_types: Sequence[str] = ()
    out_types: Sequence[str] = ()
    deterministic: bool = True
    table_valued: bool = False
    selectivity: float = 1.0
    """Expected output rows per input row (for filters: pass probability)."""
    cost_hint: Optional[Callable[..., float]] = None
    """Optional big-O shape: maps argument values to relative cost units."""
    reads: Optional[Sequence[int]] = None
    """Column-lineage metadata (REX4xx): the positions of the row (or of
    the first argument, for tuple-taking functions) this function reads,
    or ``None`` when undeclared.  The lineage analyzer cross-checks the
    declaration against the body (REX401/REX402) and the lint pass keeps
    it honest (REX107); narrowing rewrites trust only declarations the
    extractor confirms."""

    def __init__(self):
        self.name = self.name or type(self).__name__
        self.input_fields = _parse_types(self.in_types)
        self.output_fields = _parse_types(self.out_types)

    def evaluate(self, *args):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args):
        if self.input_fields and len(args) != len(self.input_fields):
            raise UDFError(
                f"UDF {self.name} expects {len(self.input_fields)} args, "
                f"got {len(args)}"
            )
        return self.evaluate(*args)

    def __repr__(self):
        kind = "TVF" if self.table_valued else "UDF"
        return f"{kind}({self.name}/{len(self.input_fields)})"


class _FunctionUDF(UDF):
    """Adapter wrapping a plain callable as a UDF."""

    def __init__(self, fn: Callable, name: str, in_types, out_types,
                 deterministic: bool, table_valued: bool,
                 selectivity: float, cost_hint, reads=None):
        self.name = name
        self.in_types = in_types or ()
        self.out_types = out_types or ()
        self.deterministic = deterministic
        self.table_valued = table_valued
        self.selectivity = selectivity
        self.cost_hint = cost_hint
        self.reads = reads
        super().__init__()
        self._fn = fn
        self.fn = fn

    def evaluate(self, *args):
        return self._fn(*args)


def udf(name: Optional[str] = None, in_types: Optional[Sequence[str]] = None,
        out_types: Optional[Sequence[str]] = None, deterministic: bool = True,
        table_valued: bool = False, selectivity: float = 1.0,
        cost_hint: Optional[Callable[..., float]] = None,
        reads: Optional[Sequence[int]] = None):
    """Decorator turning a plain Python function into a registered-able UDF.

    >>> @udf(in_types=["Integer"], out_types=["Integer"])
    ... def double(x):
    ...     return 2 * x
    """
    def wrap(fn: Callable) -> _FunctionUDF:
        return _FunctionUDF(fn, name or fn.__name__, in_types, out_types,
                            deterministic, table_valued, selectivity,
                            cost_hint, reads)
    return wrap


def introspect_udf(obj: Any) -> UDF:
    """The "reflection" path: adapt any object exposing ``evaluate`` (or
    being callable) plus optional ``in_types``/``out_types`` attributes."""
    if isinstance(obj, UDF):
        return obj
    if inspect.isclass(obj):
        obj = obj()
    target = getattr(obj, "evaluate", None)
    if target is None and callable(obj):
        target = obj
    if target is None:
        raise UDFError(f"{obj!r} has no evaluate method and is not callable")
    return _FunctionUDF(
        target,
        name=getattr(obj, "name", None) or type(obj).__name__,
        in_types=getattr(obj, "in_types", ()),
        out_types=getattr(obj, "out_types", ()),
        deterministic=getattr(obj, "deterministic", True),
        table_valued=getattr(obj, "table_valued", False),
        selectivity=getattr(obj, "selectivity", 1.0),
        cost_hint=getattr(obj, "cost_hint", None),
        reads=getattr(obj, "reads", None),
    )


class CachingUDF(UDF):
    """Memoizing wrapper for deterministic functions (Section 5.1).

    "Functions can be marked as volatile or deterministic: for deterministic
    functions, REX will cache and reuse values."  ``hits`` and ``misses``
    count cache lookups.
    """

    def __init__(self, inner: UDF, max_entries: int = 1 << 16):
        if not inner.deterministic:
            raise UDFError(f"cannot cache volatile UDF {inner.name}")
        self.name = inner.name
        self.in_types = inner.in_types
        self.out_types = inner.out_types
        self.deterministic = True
        self.table_valued = inner.table_valued
        self.selectivity = inner.selectivity
        self.cost_hint = inner.cost_hint
        self.reads = inner.reads
        super().__init__()
        self.inner = inner
        self.max_entries = max_entries
        self._cache: Dict[Tuple, Any] = {}
        self.hits = 0
        self.misses = 0

    def evaluate(self, *args):
        try:
            key = tuple(args)
            hit = key in self._cache
        except TypeError:  # unhashable argument: bypass the cache
            return self.inner(*args)
        if hit:
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        value = self.inner(*args)
        if len(self._cache) < self.max_entries:
            self._cache[key] = value
        return value

