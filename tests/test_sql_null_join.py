"""An SQL join never matches a NULL key, not even to another NULL.

Lowering gives each side of an RQL equi-join its own stand-in for a
NULL key, so a NULL-keyed row is kept in the join's state but finds no
partner.  Rows are checked against stdlib sqlite3 on the same data;
hand-wired plans keep Python equality (``None == None``).
"""

import random
import sqlite3

import pytest

from repro.cluster import Cluster
from repro.rql import RQLSession
from repro.runtime import (ExecOptions, PJoin, PRehash, PScan,
                           PhysicalPlan, QueryExecutor)


def _nullable(rng, value, share=0.3):
    return None if rng.random() < share else value


def _tables():
    rng = random.Random(1)
    t = [(i, _nullable(rng, rng.randrange(6)), _nullable(rng, i * 0.5))
         for i in range(60)]
    v = [(_nullable(rng, rng.randrange(6)), k) for k in range(12)]
    return t, v


T_SCHEMA = ["id:Integer", "a:Integer", "x:Double"]
V_SCHEMA = ["k:Integer", "z:Integer"]


def _cluster():
    t, v = _tables()
    cluster = Cluster(4)
    cluster.create_table("t", T_SCHEMA, t, "id")
    cluster.create_table("v", V_SCHEMA, v, None)
    return cluster


@pytest.fixture(scope="module")
def sqlite():
    t, v = _tables()
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE t (id INTEGER, a INTEGER, x REAL)")
    db.execute("CREATE TABLE v (k INTEGER, z INTEGER)")
    db.executemany("INSERT INTO t VALUES (?, ?, ?)", t)
    db.executemany("INSERT INTO v VALUES (?, ?)", v)
    yield db
    db.close()


QUERIES = [
    "SELECT count(*) FROM t, v WHERE t.a = v.k",
    "SELECT v.z, count(*), sum(t.id) FROM t, v WHERE t.a = v.k "
    "GROUP BY v.z",
    "SELECT t.a, count(*) FROM t, v WHERE t.a = v.k GROUP BY t.a",
]


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("sanitize", ["off", "full"])
def test_join_matches_sqlite_over_null_keys(sqlite, query, sanitize):
    t, v = _tables()
    assert any(r[1] is None for r in t) and any(r[0] is None for r in v)
    rows = RQLSession(_cluster()).execute(
        query, ExecOptions(sanitize=sanitize)).rows
    expected = [tuple(r) for r in sqlite.execute(query).fetchall()]
    assert sorted(rows, key=repr) == sorted(expected, key=repr)


def test_hand_wired_join_keeps_python_equality():
    t, v = _tables()

    def t_key(row):
        return (row[1],)

    def v_key(row):
        return (row[0],)

    plan = PhysicalPlan(PJoin(
        left_key=t_key, right_key=v_key,
        children=(PRehash.by(PScan("t"), t_key),
                  PRehash.by(PScan("v"), v_key))))
    rows = QueryExecutor(_cluster()).execute(plan).rows
    assert len(rows) == sum(1 for a in t for b in v if a[1] == b[0])
    assert any(r[1] is None for r in rows)
