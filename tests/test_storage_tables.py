"""Unit tests for partitioned tables and the catalog."""

import pytest

from repro.cluster import Cluster
from repro.common import Schema
from repro.common.errors import ReproError, SchemaError
from repro.datasets import dbpedia_like
from repro.storage import Catalog, HashRing, PartitionedTable

from tests.test_storage_hashing import reference_walk


def make_table(replication=1, key="id"):
    schema = Schema.of("id:Integer", "v:Double")
    return PartitionedTable("t", schema, key, replication=replication)


class TestPartitionedTable:
    def test_partition_key_must_exist(self):
        with pytest.raises(SchemaError):
            PartitionedTable("t", Schema.of("a:Integer"), "nope")

    def test_load_partitions_all_rows(self):
        ring = HashRing(range(4))
        table = make_table()
        rows = [(i, float(i)) for i in range(100)]
        table.load(rows, ring)
        assert len(table.all_rows()) == 100
        assert sorted(table.all_rows()) == sorted(tuple(r) for r in rows)

    def test_rows_land_on_ring_primary(self):
        ring = HashRing(range(4))
        table = make_table()
        table.load([(i, 0.0) for i in range(50)], ring)
        snap = ring.snapshot()
        for node in ring.nodes:
            for row in table.partition(node):
                assert snap.primary(row[0]) == node

    def test_double_load_rejected(self):
        ring = HashRing(range(2))
        table = make_table()
        table.load([(1, 1.0)], ring)
        with pytest.raises(ReproError):
            table.load([(2, 2.0)], ring)

    def test_replicas_mirror_rows(self):
        ring = HashRing(range(4))
        table = make_table(replication=3)
        table.load([(i, 0.0) for i in range(60)], ring)
        for node in ring.nodes:
            for row in table.partition(node):
                holders = [n for n in ring.nodes
                           if row in list(table.replica_partition(n))]
                assert len(holders) == 2  # primary + 2 replicas

    def test_round_robin_without_key(self):
        ring = HashRing(range(3))
        table = PartitionedTable("u", Schema.of("x:Integer"), None)
        table.load([(i,) for i in range(9)], ring)
        sizes = sorted(len(table.partition(n)) for n in ring.nodes)
        assert sizes == [3, 3, 3]

    def test_load_places_like_the_oracle_in_row_order(self):
        """Row order inside a partition feeds emission order and therefore
        simulated time, so the pin is on lists, not sets."""
        nodes = range(8)
        edges = dbpedia_like(300, 6, seed=11)
        table = PartitionedTable(
            "graph", Schema.of("srcId:Integer", "destId:Integer"), "srcId",
            replication=3)
        table.load(edges, HashRing(nodes))
        primaries = {n: [] for n in nodes}
        replicas = {n: [] for n in nodes}
        for row in edges:
            first, *rest = reference_walk(nodes, row[0])[:3]
            primaries[first].append(row)
            for node in rest:
                replicas[node].append(row)
        assert len({row[0] for row in edges}) < len(edges)  # keys repeat
        for n in nodes:
            assert table.partition(n).rows == primaries[n]
            assert table.replica_partition(n).rows == replicas[n]

    def test_replication_needs_a_partition_key(self):
        """Replicas are placed by key; a round-robin row has none.  The
        combination used to load, report replication=2 and hold no
        replica rows, so a failed node's rows silently vanished."""
        with pytest.raises(SchemaError, match="no partition key"):
            PartitionedTable("u", Schema.of("a:Integer", "b:Integer"), None,
                             replication=2)
        cluster = Cluster(4)
        with pytest.raises(SchemaError):
            cluster.create_table("u", ["a:Integer", "b:Integer"],
                                 [(i, i % 5) for i in range(20)],
                                 replication=2)
        assert not cluster.catalog.has("u")

    @pytest.mark.parametrize("replication", [0, -1])
    def test_replication_below_one_is_refused(self, replication):
        """Every partition needs its primary copy; a factor below one used
        to be clamped to 1 and run silently unreplicated."""
        with pytest.raises(SchemaError, match="replication"):
            make_table(replication=replication)


class TestCatalog:
    def test_register_get(self):
        cat = Catalog()
        t = make_table()
        cat.register(t)
        assert cat.get("t") is t
        assert cat.has("t")
        assert cat.names() == ["t"]

    def test_duplicate_register_rejected(self):
        cat = Catalog()
        cat.register(make_table())
        with pytest.raises(ReproError):
            cat.register(make_table())

    def test_unknown_get_raises(self):
        with pytest.raises(ReproError):
            Catalog().get("missing")
