"""Registry resolving names to UDFs, UDAs, and delta handlers.

The paper lets programs "directly use Java class and jar files without
requiring them to be registered using SQL DDL"; here, RQL queries resolve
identifiers against a :class:`UDFRegistry`, and anything shaped like a
function/aggregator can be dropped in without ceremony (see
:func:`repro.udf.base.introspect_udf`).
"""

from __future__ import annotations

import copy
from typing import Any, Callable, Dict, Optional

from repro.common.errors import UDFError
from repro.udf.aggregates import Aggregator, JoinDeltaHandler, WhileDeltaHandler
from repro.udf.base import UDF, CachingUDF, introspect_udf
from repro.udf.builtins import BUILTIN_AGGREGATES


class UDFRegistry:
    """Case-insensitive name resolution for user code."""

    def __init__(self, enable_caching: bool = True):
        self.enable_caching = enable_caching
        self._functions: Dict[str, UDF] = {}
        self._aggregators: Dict[str, Aggregator] = {}
        self._join_handlers: Dict[str, JoinDeltaHandler] = {}
        self._while_handlers: Dict[str, WhileDeltaHandler] = {}

    # -- registration -------------------------------------------------------
    def register(self, obj: Any, name: Optional[str] = None) -> str:
        """Register any user object, dispatching on its shape."""
        if isinstance(obj, type):
            obj = obj()
        if isinstance(obj, Aggregator):
            return self._put(self._aggregators, obj, name)
        if isinstance(obj, JoinDeltaHandler):
            return self._put(self._join_handlers, obj, name)
        if isinstance(obj, WhileDeltaHandler):
            return self._put(self._while_handlers, obj, name)
        fn = introspect_udf(obj)
        if self.enable_caching and fn.deterministic and not isinstance(fn, CachingUDF):
            fn = CachingUDF(fn)
        return self._put(self._functions, fn, name)

    def _put(self, table: Dict[str, Any], obj: Any, name: Optional[str]) -> str:
        key = (name or obj.name).lower()
        if key in table:
            raise UDFError(f"{key!r} is already registered")
        table[key] = obj
        return key

    # -- lookup ---------------------------------------------------------------
    def function(self, name: str) -> UDF:
        fn = self._functions.get(name.lower())
        if fn is None:
            raise UDFError(f"unknown function: {name!r}")
        return fn

    def aggregator(self, name: str) -> Aggregator:
        """Resolve a UDA by name, falling back to the SQL built-ins."""
        key = name.lower()
        if key in self._aggregators:
            return self._aggregators[key]
        builtin = BUILTIN_AGGREGATES.get(key)
        if builtin is not None:
            return builtin()
        raise UDFError(f"unknown aggregate: {name!r}")

    def join_handler_factory(self, name: str) -> Callable[[], JoinDeltaHandler]:
        """Makes a *fresh* handler instance per call (handlers hold
        per-worker state)."""
        prototype = self._join_handlers.get(name.lower())
        if prototype is None:
            raise UDFError(f"unknown join delta handler: {name!r}")
        # Deep-copying a registered prototype preserves constructor
        # arguments (e.g. PRAgg's tolerance) while isolating worker state.
        return lambda: copy.deepcopy(prototype)

    def while_handler_factory(self, name: str) -> Callable[[], WhileDeltaHandler]:
        prototype = self._while_handlers.get(name.lower())
        if prototype is None:
            raise UDFError(f"unknown while delta handler: {name!r}")
        return lambda: copy.deepcopy(prototype)

    def is_aggregate(self, name: str) -> bool:
        key = name.lower()
        return key in self._aggregators or key in BUILTIN_AGGREGATES

    def is_function(self, name: str) -> bool:
        return name.lower() in self._functions

    def is_join_handler(self, name: str) -> bool:
        return name.lower() in self._join_handlers
