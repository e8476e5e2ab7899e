"""Column names resolve once, in the compiler, by one rule: an exact
qualified match, else a unique unqualified one, else a TypeCheckError
naming every candidate.  Rows are checked against stdlib sqlite3 on the
same data, which resolves names the same way."""

import itertools
import sqlite3

import pytest

from repro.cluster import Cluster
from repro.common.errors import TypeCheckError
from repro.rql import RQLSession

G = [(1, 2), (2, 3), (3, 1), (1, 3), (4, 2), (2, 1)]
H = [(2, 5), (3, 6), (1, 7), (3, 8), (5, 1)]


def _session(key):
    """``g`` and ``h`` share both column names; ``key`` is both tables'
    partition key (None: round-robin)."""
    cluster = Cluster(3)
    for name, rows in (("g", G), ("h", H)):
        cluster.create_table(name, ["srcId:Integer", "destId:Integer"],
                             rows, key)
    return RQLSession(cluster)


@pytest.fixture(scope="module")
def sqlite():
    db = sqlite3.connect(":memory:")
    for name, rows in (("g", G), ("h", H)):
        db.execute(f"CREATE TABLE {name} (srcId INTEGER, destId INTEGER)")
        db.executemany(f"INSERT INTO {name} VALUES (?, ?)", rows)
    yield db
    db.close()


def _sqlite_rows(db, query):
    """sqlite's rows, or None where it refuses the query as ambiguous."""
    try:
        return [tuple(r) for r in db.execute(query).fetchall()]
    except sqlite3.OperationalError as e:
        assert "ambiguous column name" in str(e), e
        return None


class TestQualifiedNames:
    def test_qualified_group_by_over_a_join(self, sqlite):
        query = ("SELECT g.srcId, count(*) FROM g, h "
                 "WHERE g.destId = h.srcId GROUP BY g.srcId")
        for key in ("srcId", None):
            rows = _session(key).execute(query).rows
            assert sorted(rows) == sorted(_sqlite_rows(sqlite, query))

    def test_qualified_order_by_over_an_unqualified_select(self, sqlite):
        query = ("SELECT srcId, count(*) FROM g GROUP BY srcId "
                 "ORDER BY g.srcId DESC")
        rows = _session("srcId").execute(query).rows
        assert rows == _sqlite_rows(sqlite, query)

    def test_shared_name_is_ambiguous(self):
        with pytest.raises(TypeCheckError, match="ambiguous") as err:
            _session("srcId").prepare(
                "SELECT srcId FROM g, h WHERE g.destId = h.srcId")
        assert "g.srcId" in str(err.value) and "h.srcId" in str(err.value)

    def test_unknown_order_column_raises_at_prepare(self):
        with pytest.raises(TypeCheckError, match="nope"):
            _session("srcId").prepare("SELECT srcId FROM g ORDER BY nope")

    def test_count_is_typed(self):
        node = _session(None).prepare(
            "SELECT srcId, count(*) FROM g GROUP BY srcId").node
        assert repr(node.schema[1]) == "_col1:Integer"


def _matrix():
    """Each reference of a two-table aggregate query written qualified
    (``g.``/``h.``) or bare: SELECT, WHERE, GROUP BY, ORDER BY and both
    join columns."""
    clauses = ("select", "where", "group", "order", "left", "right")
    for qualified in itertools.product((True, False), repeat=6):
        sel, where, group, order, left, right = (
            (f"{table}.{column}" if q else column)
            for q, (table, column) in zip(qualified, [
                ("g", "srcId"), ("h", "destId"), ("g", "srcId"),
                ("g", "srcId"), ("g", "destId"), ("h", "srcId")]))
        query = (f"SELECT {sel}, count(*) FROM g, h "
                 f"WHERE {left} = {right} AND {where} > 1 "
                 f"GROUP BY {group} ORDER BY {order}")
        yield pytest.param(query, id=",".join(
            f"{c}={'q' if q else 'bare'}" for c, q in zip(clauses, qualified)))


@pytest.fixture(scope="module")
def sessions():
    return {key: _session(key) for key in ("srcId", None)}


@pytest.mark.parametrize("key", ["srcId", None], ids=["keyed", "round-robin"])
@pytest.mark.parametrize("query", list(_matrix()))
def test_name_matrix_agrees_with_sqlite(sqlite, sessions, key, query):
    expected = _sqlite_rows(sqlite, query)
    session = sessions[key]
    if expected is None:
        with pytest.raises(TypeCheckError, match="ambiguous"):
            session.prepare(query)
    else:
        assert session.execute(query).rows == expected
