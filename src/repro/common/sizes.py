"""Byte-size estimation for rows and values.

The cluster simulator accounts for network and disk traffic in bytes.  Rows
are Python tuples, so we estimate their wire size with a simple model that is
deterministic and cheap: 8 bytes per numeric, the UTF-8 length of strings,
1 byte per boolean, recursive sum for collections, plus a small per-tuple
framing overhead.  Absolute accuracy does not matter — every competing
system in the benchmarks is measured with the same ruler.
"""

from __future__ import annotations

from typing import Any, Iterable

TUPLE_OVERHEAD_BYTES = 4
_NUMERIC_BYTES = 8


def value_bytes(value: Any) -> int:
    """Estimated serialized size of one value."""
    cls = value.__class__
    if cls is int or cls is float:   # exact classes: bool is not int here
        return _NUMERIC_BYTES
    if cls is str:
        return len(value.encode("utf-8"))
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return _NUMERIC_BYTES
    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (tuple, list)):
        return TUPLE_OVERHEAD_BYTES + sum(value_bytes(v) for v in value)
    if isinstance(value, (set, frozenset, dict)):
        items: Iterable[Any] = value.items() if isinstance(value, dict) else value
        return TUPLE_OVERHEAD_BYTES + sum(value_bytes(v) for v in items)
    # Opaque user object: charge a flat envelope.
    return 16


def row_bytes(row) -> int:
    """Estimated serialized size of one row (tuple of values).

    Exact classes are tested before anything else: ``True == 1`` but a
    bool sizes 1 byte and an int 8, and flat scalar rows are the hot case.
    """
    size = TUPLE_OVERHEAD_BYTES
    for v in row:
        cls = v.__class__
        if cls is int or cls is float:
            size += _NUMERIC_BYTES
        elif cls is str:
            size += len(v.encode("utf-8"))
        elif v is None:
            size += 1
        else:
            size += value_bytes(v)
    return size
