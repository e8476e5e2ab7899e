"""DFS-style datasets: replicated, partitioned (key, value) record files.

MapReduce jobs read and write datasets resembling HDFS files: records are
``(key, value)`` pairs, partitioned across nodes, with job outputs written
back with ``dfs_replication``-fold redundancy.  Values may be arbitrary
Python objects (the simulator does not require serializability, but byte
accounting uses the same size model as the rest of the repo).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

from repro.common.sizes import value_bytes
from repro.storage.hashing import stable_hash

Record = Tuple[Any, Any]


def record_bytes(record: Record) -> int:
    key, value = record
    return 8 + value_bytes(key) + value_bytes(value)


class DFSDataset:
    """A partitioned dataset on the simulated distributed filesystem."""

    def __init__(self, name: str, partitions: Dict[int, List[Record]]):
        self.name = name
        self.partitions = partitions

    @classmethod
    def from_records(cls, name: str, records: Iterable[Record],
                     nodes: List[int], by_key: bool = True) -> "DFSDataset":
        """Distribute records across ``nodes`` (hash by key, or round-robin
        blocks when ``by_key=False`` — like HDFS block placement)."""
        partitions: Dict[int, List[Record]] = {n: [] for n in nodes}
        if by_key:
            for rec in records:
                node = nodes[stable_hash(rec[0]) % len(nodes)]
                partitions[node].append(rec)
        else:
            for i, rec in enumerate(records):
                partitions[nodes[i % len(nodes)]].append(rec)
        return cls(name, partitions)

    def partition(self, node: int) -> List[Record]:
        return self.partitions.get(node, [])

    def nodes(self) -> List[int]:
        return sorted(self.partitions)

    def records(self) -> List[Record]:
        out: List[Record] = []
        for node in sorted(self.partitions):
            out.extend(self.partitions[node])
        return out

    def as_dict(self) -> Dict[Any, Any]:
        """Collapse to {key: value}; keys must be unique."""
        return dict(self.records())

    def num_records(self) -> int:
        return sum(len(p) for p in self.partitions.values())

    def __repr__(self):
        return (f"DFSDataset({self.name}, records={self.num_records()}, "
                f"nodes={len(self.partitions)})")
