"""A seeded TPC-H ``lineitem`` stand-in for the Figure 4 aggregation query.

The experiment only touches ``linenumber`` (selection) and ``tax``
(aggregation), but we generate the familiar column set so the table is
usable by other ad hoc queries too.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

LINEITEM_SCHEMA = [
    "orderkey:Integer",
    "linenumber:Integer",
    "quantity:Integer",
    "extendedprice:Double",
    "discount:Double",
    "tax:Double",
]


#: ``np.round(k / 100.0, 2)`` for k in 0..10: discount and tax values.
_PERCENT = [float(np.round(k / 100.0, 2)) for k in range(11)]


def lineitem(n: int = 10_000, seed: int = 42) -> List[Tuple]:
    """``n`` lineitem-shaped rows; TPC-H gives each order 1..7 lines and
    draws tax from {0.00 .. 0.08}."""
    rng = np.random.default_rng(seed)
    rows: List[Tuple] = []
    orderkey = 0
    produced = 0
    while produced < n:
        orderkey += 1
        lines = int(rng.integers(1, 8))
        for linenumber in range(1, lines + 1):
            if produced >= n:
                break
            rows.append((
                orderkey,
                linenumber,
                int(rng.integers(1, 51)),
                # np.round(x, 2)'s own arithmetic: scale, round half to
                # even, unscale.
                round(rng.uniform(900.0, 105_000.0) * 100.0) / 100.0,
                _PERCENT[rng.integers(0, 11)],
                _PERCENT[rng.integers(0, 9)],
            ))
            produced += 1
    return rows
