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
from repro.common.errors import RecoveryError, ReproError, SchemaError
from repro.common.schema import Schema
from repro.common.sizes import row_bytes
from repro.storage.hashing import HashRing, RingSnapshot


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
        self.name = name
        self.schema = schema
        self.partition_key = partition_key
        self.replication = max(1, replication)
        self._key_index = (
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
        key_index = self._key_index
        replication = self.replication
        primaries = self.primaries
        replicas = self.replicas
        owners_of = ring.replicas
        rr = 0
        for raw in rows:
            row = tuple(raw)
            if key_index is not None:
                owners = owners_of(row[key_index], replication)
            else:
                owners = [nodes[rr % len(nodes)]]
                rr += 1
            # Sized once; every copy of the row is charged the same bytes.
            nbytes = row_bytes(row)
            primaries[owners[0]].append(row, nbytes)
            for replica_node in owners[1:]:
                replicas[replica_node].append(row, nbytes)
        self._loaded = True

    def partition(self, node: int) -> Partition:
        """The primary partition stored on ``node`` (empty if none)."""
        return self.primaries.get(node) or Partition()

    def replica_partition(self, node: int) -> Partition:
        return self.replicas.get(node) or Partition()

    def rows_for_recovery(self, failed_node: int, snapshot: RingSnapshot) -> Dict[int, List[Row]]:
        """Re-route the failed node's primary rows to live takeover nodes.

        Returns a map of takeover node -> rows it must now serve.  Raises
        :class:`ReproError` if the table is unreplicated (data lost).
        """
        lost = self.primaries.get(failed_node)
        if lost is None or len(lost) == 0:
            return {}
        if self.replication < 2:
            raise RecoveryError(
                f"table {self.name} has no replicas; data on node "
                f"{failed_node} is unrecoverable"
            )
        out: Dict[int, List[Row]] = {}
        for row in lost:
            key = row[self._key_index] if self._key_index is not None else None
            takeover = snapshot.replicas(key, 1)[0]
            out.setdefault(takeover, []).append(row)
        return out

    def all_rows(self) -> List[Row]:
        """Every row in the table (primary copies only), in node order."""
        rows: List[Row] = []
        for node in sorted(self.primaries):
            rows.extend(self.primaries[node].rows)
        return rows

    def total_rows(self) -> int:
        return sum(len(p) for p in self.primaries.values())

    def total_bytes(self) -> int:
        return sum(p.bytes for p in self.primaries.values())

    def __repr__(self):
        return (f"PartitionedTable({self.name}, key={self.partition_key}, "
                f"rows={self.total_rows()}, nodes={len(self.primaries)})")


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

    def drop(self, name: str) -> None:
        self._tables.pop(name, None)

    def names(self) -> List[str]:
        return sorted(self._tables)
