"""Statistics and calibration feeding the cost model (Section 5).

"We assume that each node has run an initial calibration that provides the
optimizer with information about its relative CPU and disk speeds, and all
pairwise network bandwidths."  Our calibration reads the cost model's
per-node factors; table statistics (cardinality, per-column distinct
counts, average row width) are computed from the loaded data itself —
sampled beyond a size cap, like an ANALYZE pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.common.sizes import row_bytes
from repro.storage.tables import Catalog, PartitionedTable

_SAMPLE_CAP = 20_000


@dataclass
class TableStats:
    rows: int
    avg_row_bytes: float
    distinct: Dict[str, int] = field(default_factory=dict)

    def distinct_of(self, column: str) -> int:
        """Distinct count for a column (defaults to row count — the
        key-ish assumption — when the column was never analyzed)."""
        return self.distinct.get(column, max(1, self.rows))


def analyze_table(table: PartitionedTable) -> TableStats:
    """Compute (sampled) statistics for one table."""
    rows = table.all_rows()
    total = len(rows)
    sample = rows[:_SAMPLE_CAP]
    if not sample:
        return TableStats(rows=0, avg_row_bytes=16.0)
    avg_bytes = sum(row_bytes(r) for r in sample) / len(sample)
    scale = total / len(sample)
    distinct = {}
    for i, fld in enumerate(table.schema):
        seen = len({r[i] for r in sample})
        if len(sample) < total and seen > 0.9 * len(sample):
            # Looks unique in the sample: extrapolate.
            distinct[fld.name] = int(seen * scale)
        else:
            distinct[fld.name] = seen
    return TableStats(rows=total, avg_row_bytes=avg_bytes, distinct=distinct)


class StatisticsCatalog:
    """Lazily analyzed statistics for every table in a catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._stats: Dict[str, TableStats] = {}

    def table(self, name: str) -> TableStats:
        if name not in self._stats:
            self._stats[name] = analyze_table(self.catalog.get(name))
        return self._stats[name]

