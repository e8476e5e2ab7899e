"""One partitioning model: exchange placement, lowering and the REX005/
REX006 checks all read ``repro.optimizer.exchanges``.

The table test runs every non-empty GROUP BY key set over {a, b, c} on a
table keyed on each column (and unkeyed) through the public front door:
no query is refused, every answer matches a Python reference, the
analyzer finds nothing to say about partitioning, and the lowered plan
moves rows at most once — never when the table's key is a group key.
"""

from itertools import combinations

import pytest

from repro.analysis import analyze_logical
from repro.cluster import Cluster
from repro.common.schema import Field, SQLType
from repro.operators.expressions import ColumnRef
from repro.optimizer import add_exchanges, lower, push_pre_aggregation
from repro.optimizer.exchanges import BROADCAST, propagate, satisfies
from repro.optimizer.logical import LAggCall, LGroupBy, LRehash, LScan
from repro.rql import RQLSession
from repro.runtime.plan import PRehash
from repro.udf import Sum

ROWS = [(i % 5, i % 3, i % 4, i) for i in range(60)]
COLUMNS = ("a", "b", "c")
KEY_SETS = [keys for n in (1, 2, 3) for keys in combinations(COLUMNS, n)]
PARTITIONING_CODES = {"REX005", "REX006"}


def _cluster(partition_key):
    cluster = Cluster(3)
    cluster.create_table("t", ["a:Integer", "b:Integer", "c:Integer",
                               "x:Integer"], ROWS, partition_key)
    return cluster


def _reference(keys):
    groups = {}
    for row in ROWS:
        group = tuple(row[COLUMNS.index(k)] for k in keys)
        total, count = groups.get(group, (0, 0))
        groups[group] = (total + row[3], count + 1)
    return sorted(group + agg for group, agg in groups.items())


def _exchanges(plan):
    return sum(isinstance(n, PRehash) for n in plan.root.walk())


@pytest.mark.parametrize("optimize", [True, False],
                         ids=["optimized", "raw"])
@pytest.mark.parametrize("keys", KEY_SETS, ids=",".join)
@pytest.mark.parametrize("partition_key", ["a", "b", "c", None],
                         ids=lambda k: f"keyed-{k}")
def test_every_group_by_key_set_runs_with_at_most_one_exchange(
        partition_key, keys, optimize):
    session = RQLSession(_cluster(partition_key), optimize=optimize)
    cols = ", ".join(keys)
    query = f"SELECT {cols}, sum(x), count(*) FROM t GROUP BY {cols}"
    result = session.execute(query)  # the default check refuses errors
    assert sorted(result.rows) == _reference(keys)
    codes = set(session.analyze(query).codes())
    assert not codes & PARTITIONING_CODES, session.analyze(query).format()
    exchanges = _exchanges(lower(session.logical_plan(query)))
    assert exchanges <= 1
    if partition_key in keys:
        assert exchanges == 0


def _graph():
    cluster = Cluster(3)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         [(i % 12, (i * 7) % 5) for i in range(120)],
                         "srcId")
    return cluster


def _scan(cluster, name):
    table = cluster.catalog.get(name)
    return LScan(name, table.schema, table.key_index)


def _destid_sum(cluster):
    return LGroupBy(_scan(cluster, "graph"), [1],
                    [LAggCall("sum", Sum, [ColumnRef("srcId")],
                              [Field("s", SQLType.ANY)], composable=True)])


class TestPreAggregation:
    def test_partials_on_another_key_keep_their_rehash(self):
        """A PreAgg's output holds group keys, not its input's columns: a
        srcId-keyed input says nothing about where destId groups live."""
        placed = add_exchanges(push_pre_aggregation(_destid_sum(_graph())))
        rehashes = [n for n in placed.walk() if isinstance(n, LRehash)]
        assert [r.label() for r in rehashes] == ["Rehash(destId)"]
        assert rehashes[0].children[0].pre_aggregated
        report = analyze_logical(placed)
        assert not set(report.codes()) & PARTITIONING_CODES, report.format()

    def test_session_query_reports_no_partitioning_finding(self):
        session = RQLSession(_graph())
        query = "SELECT destId, sum(srcId) FROM graph GROUP BY destId"
        report = session.analyze(query)
        assert not set(report.codes()) & PARTITIONING_CODES, report.format()
        labels = [n.label() for n in session.logical_plan(query).walk()]
        assert "Rehash(destId)" in labels

    def test_partitioning_on_a_group_key_survives_remapped(self):
        cluster = _graph()
        partial = LGroupBy(_scan(cluster, "graph"), [1, 0],
                           [LAggCall("sum", Sum, [ColumnRef("srcId")],
                                     [Field("s", SQLType.ANY)],
                                     composable=True)],
                           pre_aggregated=True)
        _, part = propagate(partial, _unreachable)
        assert part == (1,)  # srcId is the partial's second column


def _unreachable(*args):
    raise AssertionError("a scan and a combiner require nothing")


@pytest.mark.parametrize("part, wanted, expected", [
    ((0,), (0,), True),
    ((0,), (0, 1), True),       # equal (a, b) values share their a
    ((1,), (0, 1), True),
    ((0, 1), (0,), False),      # rows hashed on (a, b) split an a group
    ((2,), (0, 1), False),
    (None, (0,), False),
    (BROADCAST, (0,), False),   # every worker would hold every group
    ((), (0,), False),
    ((), (), True),
    ((0,), (), False),
    (BROADCAST, BROADCAST, True),
    ((0,), BROADCAST, False),
], ids=lambda v: "bcast" if v == BROADCAST else repr(v))
def test_satisfies(part, wanted, expected):
    assert satisfies(part, wanted) is expected


@pytest.mark.parametrize("keys", KEY_SETS, ids=",".join)
def test_lowering_emits_one_prehash_per_placed_rehash(keys):
    session = RQLSession(_cluster("a"), optimize=False)
    cols = ", ".join(keys)
    raw = session.logical_plan(
        f"SELECT {cols}, sum(x) FROM t GROUP BY {cols}")
    placed = add_exchanges(raw)
    assert add_exchanges(placed) is placed
    rehashes = sum(isinstance(n, LRehash) for n in placed.walk())
    assert _exchanges(lower(raw)) == rehashes
