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
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ReproError

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


class HashRing:
    """Immutable consistent-hash ring with virtual nodes.

    Every node is mapped to ``virtual_nodes`` points on a 64-bit ring.  A
    key's *preference list* is every node in the order first met walking
    clockwise from the key's hash: the primary is its first entry and the
    replicas the next ``n - 1``, so losing a node transfers each of its
    ranges to an existing replica (incremental recovery relies on this).
    Placement is asked through a :meth:`snapshot`.
    """

    def __init__(self, nodes: Sequence[int], virtual_nodes: int = 64):
        nodes = tuple(nodes)
        if not nodes:
            raise ReproError("HashRing requires at least one node")
        if len(set(nodes)) != len(nodes):
            raise ReproError(f"duplicate node on ring: {nodes}")
        self.virtual_nodes = virtual_nodes
        self.nodes: Tuple[int, ...] = tuple(sorted(nodes))
        # Stable sort on the point alone: equal points keep (node, v) order.
        pairs = sorted(((stable_hash(("vnode", node, v)), node)
                        for node in nodes for v in range(virtual_nodes)),
                       key=lambda pair: pair[0])
        self._points = [point for point, _ in pairs]
        self._owners = [owner for _, owner in pairs]
        # slot -> preference list of every key hashing into it, filled on
        # first use.  Liveness is applied by the reader, so an entry is
        # never invalidated.
        self._slots: List[Optional[Tuple[int, ...]]] = [None] * len(pairs)

    def _clockwise(self, point: int) -> Tuple[int, ...]:
        """Every node, in the order first met clockwise of ``point``."""
        owners = self._owners
        slot = bisect.bisect(self._points, point) % len(owners)
        order = self._slots[slot]
        if order is None:
            distinct: List[int] = []
            for owner in owners[slot:] + owners[:slot]:
                if owner not in distinct:
                    distinct.append(owner)
                    if len(distinct) == len(self.nodes):
                        break
            order = self._slots[slot] = tuple(distinct)
        return order

    def snapshot(self) -> "RingSnapshot":
        """Freeze the current partitioning for the lifetime of one query.

        "All data will be routed according to this set of partitions,
        guaranteeing that even as the network changes, data will be
        delivered to the same place." (Section 4.1)
        """
        return RingSnapshot(self)


class RingSnapshot:
    """The partitioning as seen at query-request time, plus the nodes that
    failed since.  Every placement question is a view of
    :meth:`preference`."""

    __slots__ = ("nodes", "_clockwise", "_failed", "_memo")

    def __init__(self, ring: HashRing):
        self.nodes = ring.nodes
        self._clockwise = ring._clockwise
        # Nodes marked dead during recovery; the views skip them but the
        # preference list remembers original ownership for checkpoint
        # hand-off.
        self._failed: Set[int] = set()
        # scalar key -> its slot's preference list, for keys routed over
        # and over by loaders and rehash senders.  Lives as long as the
        # snapshot (one query or one table load), not the ring: a
        # long-lived cluster would otherwise keep every key it ever routed.
        self._memo: Dict[Any, Tuple[int, ...]] = {}

    def mark_failed(self, node: int) -> None:
        self._failed.add(node)

    def live_nodes(self) -> List[int]:
        return [n for n in self.nodes if n not in self._failed]

    def preference(self, key: Any) -> Tuple[int, ...]:
        """All nodes in clockwise order from ``key``'s hash, dead or alive.

        A 1-tuple places like its scalar, so key-function output ``(v,)``
        partitions identically to a table loaded with partition key ``v``.
        """
        if isinstance(key, tuple) and len(key) == 1:
            key = key[0]
        # Memoize only plain int/float/str keys: bools and tuples nesting
        # them are ==/hash-equal to ints yet hash differently on the ring
        # (stable_hash tags types), so they would collide in the memo.
        # An int and its equal float share a ring point, so that collision
        # is harmless.
        cls = key.__class__
        if cls is int or cls is str or cls is float:
            order = self._memo.get(key)
            if order is None:
                order = self._memo[key] = self._clockwise(stable_hash(key))
            return order
        return self._clockwise(stable_hash(key))

    def primary(self, key: Any) -> int:
        """The live node serving ``key``."""
        failed = self._failed
        for node in self.preference(key):
            if node not in failed:
                return node
        raise ReproError("no live nodes remain in partition snapshot")

    def primaries(self, keys: Iterable[Any]) -> List[int]:
        """``[self.primary(k) for k in keys]`` in one pass: the rehash
        sender's per-batch view.  It reads :meth:`preference` (and so its
        memo and type rule) and applies the failed set at read time."""
        preference = self.preference
        failed = self._failed
        if not failed:
            return [preference(key)[0] for key in keys]
        out = []
        for key in keys:
            for node in preference(key):
                if node not in failed:
                    out.append(node)
                    break
            else:
                raise ReproError("no live nodes remain in partition snapshot")
        return out
