"""Deterministic hashing and the consistent-hash ring.

Section 4.1: "Data partitioning is based on keys rather than pages, and
partitions are chosen using a consistent hashing and data replication scheme
known to all nodes. ... every query in REX is distributed along with a
snapshot of the data partitions across the machines as seen by the query
requestor."

Python's builtin ``hash`` is salted per process for strings, so we use a
stable 64-bit hash (blake2b) that is identical across processes and runs —
partitioning must be reproducible for the benchmarks and for recovery
snapshots to make sense.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Dict, List, Sequence, Tuple

from repro.common.errors import ReproError

_RING_SPACE = 1 << 64
_blake2b = hashlib.blake2b


def stable_hash(value: Any) -> int:
    """A deterministic 64-bit hash of a key value.

    Supports the scalar carrier types plus tuples of them.  Integers and the
    equal-valued float hash identically (SQL key semantics: ``1 = 1.0``).
    """
    if isinstance(value, bool):
        data = b"b" + (b"1" if value else b"0")
    elif isinstance(value, float) and value.is_integer():
        data = b"i" + str(int(value)).encode()
    elif isinstance(value, (int, float)):
        data = (b"i" if isinstance(value, int) else b"f") + repr(value).encode()
    elif isinstance(value, str):
        data = b"s" + value.encode("utf-8")
    elif value is None:
        data = b"n"
    elif isinstance(value, tuple):
        digest = _blake2b(digest_size=8)
        digest.update(b"t")
        for item in value:
            digest.update(stable_hash(item).to_bytes(8, "little"))
        return int.from_bytes(digest.digest(), "little")
    else:
        data = b"o" + repr(value).encode()
    return int.from_bytes(_blake2b(data, digest_size=8).digest(), "little")


def normalize_key(key: Any) -> Any:
    """Collapse 1-tuples to their scalar so key-function output ``(v,)``
    partitions identically to a table loaded with partition key ``v``."""
    if isinstance(key, tuple) and len(key) == 1:
        return key[0]
    return key


class HashRing:
    """Consistent-hash ring with virtual nodes and replica placement.

    Every node is mapped to ``virtual_nodes`` points on a 64-bit ring; a key
    is owned by the first node clockwise of its hash.  Replicas are the next
    ``n - 1`` *distinct* nodes clockwise, so losing a node transfers each of
    its ranges to an existing replica (incremental recovery relies on this).
    """

    def __init__(self, nodes: Sequence[int], virtual_nodes: int = 64):
        if not nodes:
            raise ReproError("HashRing requires at least one node")
        self.virtual_nodes = virtual_nodes
        self._nodes: List[int] = []
        self._points: List[int] = []
        self._owners: List[int] = []
        for node in nodes:
            self._insert(node)

    def _insert(self, node: int) -> None:
        if node in self._nodes:
            raise ReproError(f"node {node} already on ring")
        self._nodes.append(node)
        for v in range(self.virtual_nodes):
            point = stable_hash(("vnode", node, v))
            idx = bisect.bisect(self._points, point)
            self._points.insert(idx, point)
            self._owners.insert(idx, node)

    @property
    def nodes(self) -> List[int]:
        return sorted(self._nodes)

    def add_node(self, node: int) -> None:
        """Add a node (used when a replacement machine joins after failure)."""
        self._insert(node)

    def remove_node(self, node: int) -> None:
        """Remove a failed node; its ranges fall to clockwise successors."""
        if node not in self._nodes:
            raise ReproError(f"node {node} not on ring")
        self._nodes.remove(node)
        keep = [(p, o) for p, o in zip(self._points, self._owners) if o != node]
        self._points = [p for p, _ in keep]
        self._owners = [o for _, o in keep]

    def primary(self, key: Any) -> int:
        """The node owning ``key``."""
        return self.replicas(key, 1)[0]

    def replicas(self, key: Any, n: int) -> List[int]:
        """The first ``n`` distinct nodes clockwise of ``key``'s hash.

        The first entry is the primary.  ``n`` is clipped to the cluster
        size, so a replication factor larger than the cluster still works.
        """
        n = min(n, len(self._nodes))
        point = stable_hash(key) % _RING_SPACE
        start = bisect.bisect(self._points, point)
        result: List[int] = []
        seen = set()
        for i in range(len(self._points)):
            owner = self._owners[(start + i) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                result.append(owner)
                if len(result) == n:
                    break
        return result

    def snapshot(self) -> "RingSnapshot":
        """Freeze the current partitioning for the lifetime of one query.

        "All data will be routed according to this set of partitions,
        guaranteeing that even as the network changes, data will be
        delivered to the same place." (Section 4.1)
        """
        return RingSnapshot(tuple(self._points), tuple(self._owners),
                            tuple(sorted(self._nodes)))


class RingSnapshot:
    """An immutable view of ring state taken at query-request time."""

    __slots__ = ("_points", "_owners", "nodes", "_live", "_primary_cache",
                 "_original_cache")

    def __init__(self, points: Tuple[int, ...], owners: Tuple[int, ...],
                 nodes: Tuple[int, ...]):
        self._points = points
        self._owners = owners
        self.nodes = nodes
        # Nodes marked dead during recovery; routing skips them but the
        # snapshot remembers original ownership for checkpoint hand-off.
        self._live: Dict[int, bool] = {n: True for n in nodes}
        # key -> primary node, for scalar keys routed over and over by
        # rehash senders.  Invalidated when the live set changes.
        self._primary_cache: Dict[Any, int] = {}
        # (key, n) -> original replica list; ownership ignores failures,
        # so this cache never needs invalidation.
        self._original_cache: Dict[Any, List[int]] = {}

    def mark_failed(self, node: int) -> None:
        self._live[node] = False
        self._primary_cache.clear()

    def live_nodes(self) -> List[int]:
        return [n for n in self.nodes if self._live[n]]

    def primary(self, key: Any) -> int:
        # Cache only plain int/float/str keys: bools and tuples nesting
        # them are ==/hash-equal to ints yet hash differently on the ring
        # (stable_hash tags types), so they would collide in the memo.
        # An int and its equal float share a ring point, so that collision
        # is harmless.
        cls = key.__class__
        if cls is int or cls is str or cls is float:
            cache = self._primary_cache
            node = cache.get(key)
            if node is None:
                node = self.replicas(key, 1)[0]
                cache[key] = node
            return node
        return self.replicas(key, 1)[0]

    def replicas(self, key: Any, n: int) -> List[int]:
        """Distinct live nodes clockwise of ``key`` (post-failure routing)."""
        points = self._points
        owners = self._owners
        live = self._live
        n = min(n, sum(1 for node in self.nodes if live[node]))
        if n == 0:
            raise ReproError("no live nodes remain in partition snapshot")
        point = stable_hash(key) % _RING_SPACE
        npoints = len(points)
        start = bisect.bisect(points, point)
        result: List[int] = []
        seen = set()
        for i in range(npoints):
            owner = owners[(start + i) % npoints]
            if owner in seen or not live[owner]:
                continue
            seen.add(owner)
            result.append(owner)
            if len(result) == n:
                break
        return result

    def original_replicas(self, key: Any, n: int) -> List[int]:
        """Replica set ignoring failures — who *held* the checkpoints."""
        cls = key.__class__
        cacheable = cls is int or cls is str or cls is float
        if cacheable:
            cached = self._original_cache.get((key, n))
            if cached is not None:
                return cached
        result = self._original_replicas(key, n)
        if cacheable:
            self._original_cache[(key, n)] = result
        return result

    def _original_replicas(self, key: Any, n: int) -> List[int]:
        n = min(n, len(self.nodes))
        point = stable_hash(key) % _RING_SPACE
        start = bisect.bisect(self._points, point)
        result: List[int] = []
        seen = set()
        for i in range(len(self._points)):
            owner = self._owners[(start + i) % len(self._points)]
            if owner not in seen:
                seen.add(owner)
                result.append(owner)
                if len(result) == n:
                    break
        return result
