"""Tests for partitioning-aware lowering and logical exchange placement."""

import pytest

from repro.cluster import Cluster
from repro.operators.expressions import BinaryOp, ColumnRef, Literal
from repro.optimizer import add_exchanges, lower
from repro.optimizer.logical import (
    LFilter,
    LGroupBy,
    LJoin,
    LProject,
    LRehash,
    LScan,
)
from repro.optimizer.logical import LAggCall
from repro.common.errors import PlanError
from repro.common.schema import Field, SQLType
from repro.optimizer.physical import _key_of
from repro.runtime.plan import PGroupBy, PJoin, PRehash, PScan
from repro.udf import Sum


def make_catalog():
    cluster = Cluster(3)
    cluster.create_table("r", ["k:Integer", "v:Integer"],
                         [(i, i) for i in range(30)], "k")
    cluster.create_table("u", ["k:Integer", "w:Integer"],
                         [(i % 5, i) for i in range(30)], None)
    return cluster


def scan(cluster, name):
    table = cluster.catalog.get(name)
    return LScan(name, table.schema, table.key_index)


def node_types(pnode):
    out = []

    def walk(n):
        out.append(type(n).__name__)
        for c in n.children:
            walk(c)

    walk(pnode)
    return out


class TestExchangePlacement:
    def test_colocated_join_needs_no_rehash(self):
        cluster = make_catalog()
        join = LJoin(scan(cluster, "r"), scan(cluster, "r"), (0, 0))
        placed = add_exchanges(join)
        assert not any(isinstance(n, LRehash) for n in placed.walk())

    def test_unpartitioned_side_gets_rehash(self):
        cluster = make_catalog()
        join = LJoin(scan(cluster, "r"), scan(cluster, "u"), (0, 0))
        placed = add_exchanges(join)
        rehashes = [n for n in placed.walk() if isinstance(n, LRehash)]
        assert len(rehashes) == 1
        # It wraps the round-robin side.
        assert isinstance(rehashes[0].children[0], LScan)
        assert rehashes[0].children[0].table == "u"

    def test_groupby_on_partition_key_local(self):
        cluster = make_catalog()
        gb = LGroupBy(scan(cluster, "r"), [0],
                      [LAggCall("sum", Sum, [ColumnRef("v")],
                                [Field("s", SQLType.ANY)])])
        placed = add_exchanges(gb)
        assert not any(isinstance(n, LRehash) for n in placed.walk())

    def test_groupby_on_other_column_rehashes(self):
        cluster = make_catalog()
        gb = LGroupBy(scan(cluster, "r"), [1],
                      [LAggCall("sum", Sum, [ColumnRef("k")],
                                [Field("s", SQLType.ANY)])])
        placed = add_exchanges(gb)
        assert any(isinstance(n, LRehash) for n in placed.walk())

    def test_projection_preserves_partitioning_when_key_passes(self):
        cluster = make_catalog()
        project = LProject(scan(cluster, "r"),
                           [(ColumnRef("k"), Field("k", SQLType.INTEGER)),
                            (BinaryOp("+", ColumnRef("v"), Literal(1)),
                             Field("v1", SQLType.INTEGER))])
        gb = LGroupBy(project, [0],
                      [LAggCall("sum", Sum, [ColumnRef("v1")],
                                [Field("s", SQLType.ANY)])])
        placed = add_exchanges(gb)
        assert not any(isinstance(n, LRehash) for n in placed.walk())

    def test_projection_dropping_key_loses_partitioning(self):
        cluster = make_catalog()
        project = LProject(scan(cluster, "r"),
                           [(ColumnRef("v"), Field("v", SQLType.INTEGER))])
        gb = LGroupBy(project, [0],
                      [LAggCall("sum", Sum, [ColumnRef("v")],
                                [Field("s", SQLType.ANY)])])
        placed = add_exchanges(gb)
        assert any(isinstance(n, LRehash) for n in placed.walk())


class TestLowering:
    def test_lowered_shapes(self):
        cluster = make_catalog()
        join = LJoin(scan(cluster, "r"), scan(cluster, "u"), (0, 0))
        plan = lower(add_exchanges(join))
        kinds = node_types(plan.root)
        assert "PJoin" in kinds and "PRehash" in kinds and "PScan" in kinds

    def test_filter_udf_calls_counted(self):
        from repro.operators.expressions import FuncCall
        from repro.udf import udf

        @udf()
        def p(v):
            return v > 1

        cluster = make_catalog()
        filt = LFilter(scan(cluster, "r"), FuncCall(p, [ColumnRef("v")]))
        plan = lower(filt)
        pfilter = plan.root.children[0]
        assert pfilter.udf_calls == 1

    def test_lowering_is_safety_net(self):
        """Lowering without prior add_exchanges still inserts exchanges."""
        cluster = make_catalog()
        gb = LGroupBy(scan(cluster, "u"), [0],
                      [LAggCall("sum", Sum, [ColumnRef("w")],
                                [Field("s", SQLType.ANY)])])
        plan = lower(gb)  # no add_exchanges
        assert "PRehash" in node_types(plan.root)

    def test_key_of_single(self):
        assert _key_of((0,))((7, 0.0, "x")) == (7,)

    def test_key_of_composite(self):
        assert _key_of((2, 0))((7, 0.0, "x")) == ("x", 7)


class TestKeyPositions:
    """Logical keys are column positions, checked where a node is built."""

    @pytest.mark.parametrize("build", [
        lambda r: LRehash(r, 2),
        lambda r: LGroupBy(r, [0, -1], []),
        lambda r: LJoin(r, r, (0, 2)),
        lambda r: LScan("r", r.schema, 2),
    ], ids=["rehash", "group-by", "join", "scan"])
    def test_out_of_range_position_refused(self, build):
        with pytest.raises(PlanError):
            build(scan(make_catalog(), "r"))
