"""Partitioned, replicated local storage.

Section 4: "The input data resides on partitioned replicated local storage."
A :class:`PartitionedTable` hash-partitions its rows over the cluster's ring
by a key column, keeping each partition on its primary node and mirroring it
to ``replication - 1`` replica nodes.  Table scans read the local primary
partition; after a node failure, the replicas holding its ranges serve the
data (Section 4.1).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.common.deltas import Row
from repro.common.errors import ReproError, SchemaError
from repro.common.schema import Schema
from repro.common.sizes import row_bytes
from repro.storage.hashing import HashRing


class Partition:
    """Rows of one table held by one node, with byte accounting."""

    __slots__ = ("rows", "bytes")

    def __init__(self):
        self.rows: List[Row] = []
        self.bytes = 0

    def append(self, row: Row, nbytes: int) -> None:
        """Add ``row``, whose ``row_bytes`` the loader already computed."""
        self.rows.append(row)
        self.bytes += nbytes

    def __len__(self):
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


class PartitionedTable:
    """A named relation hash-partitioned by one column across nodes."""

    def __init__(self, name: str, schema: Schema, partition_key: Optional[str],
                 replication: int = 1):
        if partition_key is not None and not schema.has(partition_key):
            raise SchemaError(
                f"partition key {partition_key!r} not in schema of {name}"
            )
        if replication < 1:
            raise SchemaError(
                f"table {name} asks for replication={replication}: "
                "every partition needs at least its primary copy"
            )
        if partition_key is None and replication > 1:
            # Replicas sit on the nodes after the primary in the key's
            # preference list; a round-robin row has no key, hence none.
            raise SchemaError(
                f"table {name} asks for replication={replication} but has "
                "no partition key: replicas are placed by key"
            )
        self.name = name
        self.schema = schema
        self.partition_key = partition_key
        self.replication = replication
        self.key_index = (
            schema.index_of(partition_key) if partition_key is not None else None
        )
        # node id -> primary partition; node id -> replica partition
        self.primaries: Dict[int, Partition] = {}
        self.replicas: Dict[int, Partition] = {}
        self._loaded = False

    def load(self, rows: Iterable[Sequence[Any]], ring: HashRing) -> None:
        """Distribute ``rows`` across the ring (primary + replicas).

        Rows without a partition key round-robin across nodes.
        """
        if self._loaded:
            raise ReproError(f"table {self.name} already loaded")
        nodes = ring.nodes
        for node in nodes:
            self.primaries[node] = Partition()
            self.replicas[node] = Partition()
        key_index = self.key_index
        replication = self.replication
        primaries = self.primaries
        replicas = self.replicas
        # One snapshot per load: its key memo resolves each distinct key
        # once and is dropped with it.
        preference = ring.snapshot().preference
        rr = 0
        for raw in rows:
            row = tuple(raw)
            # Sized once; every copy of the row is charged the same bytes.
            nbytes = row_bytes(row)
            if key_index is None:
                primaries[nodes[rr % len(nodes)]].append(row, nbytes)
                rr += 1
                continue
            owners = preference(row[key_index])
            primaries[owners[0]].append(row, nbytes)
            for replica_node in owners[1:replication]:
                replicas[replica_node].append(row, nbytes)
        self._loaded = True

    def partition(self, node: int) -> Partition:
        """The primary partition stored on ``node`` (empty if none)."""
        return self.primaries.get(node) or Partition()

    def replica_partition(self, node: int) -> Partition:
        return self.replicas.get(node) or Partition()

    def all_rows(self) -> List[Row]:
        """Every row in the table (primary copies only), in node order."""
        rows: List[Row] = []
        for node in sorted(self.primaries):
            rows.extend(self.primaries[node].rows)
        return rows

    def __repr__(self):
        return (f"PartitionedTable({self.name}, key={self.partition_key}, "
                f"rows={sum(len(p) for p in self.primaries.values())}, "
                f"nodes={len(self.primaries)})")


class Catalog:
    """Name -> table registry shared by the planner and the executor."""

    def __init__(self):
        self._tables: Dict[str, PartitionedTable] = {}

    def register(self, table: PartitionedTable) -> PartitionedTable:
        if table.name in self._tables:
            raise ReproError(f"table {table.name!r} already registered")
        self._tables[table.name] = table
        return table

    def get(self, name: str) -> PartitionedTable:
        try:
            return self._tables[name]
        except KeyError:
            raise ReproError(f"unknown table: {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._tables

    def names(self) -> List[str]:
        return sorted(self._tables)

    def widths(self) -> Dict[str, int]:
        """Each table's column count, as the rewrite pass reads it."""
        return {name: len(t.schema.fields) for name, t in self._tables.items()}
