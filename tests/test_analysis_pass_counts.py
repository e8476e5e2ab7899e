"""Each query entry point compiles, lowers and analyses a plan once.

The calls are counted by code object (``sys.setprofile``), so the count
holds however a module binds the function.  The executor's rewrite pass
still infers its own polarity and lineage on the plan it builds from,
which is why ``execute`` and ``run --analyze`` read 2 for those two.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

from repro.analysis import absint, lineage
from repro.cli import main
from repro.cluster import Cluster
from repro.datasets import lineitem
from repro.optimizer.physical import lower
from repro.rql import RQLSession
from repro.rql.compiler import Compiler

PASSES = {Compiler.compile.__code__: "compile", lower.__code__: "lower",
          absint.infer.__code__: "infer",
          lineage.infer_lineage.__code__: "lineage"}

#: The first ``tpch_agg_rql`` query of the benchmark.
TPCH_WHERE = "SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1"
GRAPH_QUERY = "SELECT srcId, count(*) FROM graph GROUP BY srcId"


@contextlib.contextmanager
def counting():
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in PASSES:
            counts[PASSES[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        yield counts
    finally:
        sys.setprofile(previous)


def _lineitem_session():
    cluster = Cluster(3)
    cluster.create_table(
        "lineitem",
        ["orderkey:Integer", "linenumber:Integer", "quantity:Integer",
         "extendedprice:Double", "discount:Double", "tax:Double"],
        lineitem(60), None)
    return RQLSession(cluster)


@pytest.fixture
def edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("srcId:Integer,destId:Integer\n1,2\n2,3\n1,3\n")
    return str(path)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


ONCE = {"compile": 1, "lower": 1, "infer": 1, "lineage": 1}
#: The executor's rewrite pass adds one inference of each kind.
EXECUTED = {"compile": 1, "lower": 1, "infer": 2, "lineage": 2}


def test_session_analyze():
    session = _lineitem_session()
    with counting() as counts:
        session.analyze(TPCH_WHERE)
    assert dict(counts) == ONCE


def test_session_explain_with_diagnostics():
    session = _lineitem_session()
    with counting() as counts:
        session.explain(TPCH_WHERE, with_diagnostics=True)
    assert dict(counts) == ONCE


def test_session_execute():
    session = _lineitem_session()
    with counting() as counts:
        session.execute(TPCH_WHERE)
    assert dict(counts) == EXECUTED


def test_cli_analyze_json(edges_csv):
    with counting() as counts:
        rc = _quiet(main, ["analyze", "--format", "json", "--table",
                           f"graph={edges_csv}", GRAPH_QUERY])
    assert rc == 0
    assert dict(counts) == ONCE


def test_cli_run_analyze(edges_csv):
    with counting() as counts:
        rc = _quiet(main, ["--analyze", "--table", f"graph={edges_csv}",
                           GRAPH_QUERY])
    assert rc == 0
    assert dict(counts) == EXECUTED
