"""Each query entry point compiles, lowers and analyses a plan once.

The calls are counted by code object (``sys.setprofile``), so the count
holds however a module binds the function.  A plan is prepared once —
by ``RQLSession.prepare`` for RQL, or on entry to
``QueryExecutor.execute`` for a bare physical plan — and the executor
builds from that preparation, so running a query (sanitized, restarted
after a failure, or under EXPLAIN ANALYZE) infers nothing again.
"""

import contextlib
import io
import sys
from collections import Counter

import pytest

from repro.algorithms.sssp import sssp_plan
from repro.analysis import absint, lineage
from repro.cli import main
from repro.cluster import Cluster
from repro.datasets import lineitem
from repro.optimizer.physical import lower
from repro.rql import RQLSession
from repro.rql.compiler import Compiler
from repro.runtime import ExecOptions, FailureSpec, QueryExecutor
from workloads import sssp_cluster

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
#: A hand-wired plan is neither compiled nor lowered.
PHYSICAL_ONCE = {"infer": 1, "lineage": 1}


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
    assert dict(counts) == ONCE


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
    assert dict(counts) == ONCE


@pytest.mark.parametrize("sanitize", ["off", "full"])
def test_executor_prepares_a_bare_plan_once(sanitize):
    """``sssp_plan`` has a rewrite candidate, so its preparation infers
    both facts; the sanitizer's proofs read the same inference."""
    cluster = sssp_cluster(vertices=60)
    with counting() as counts:
        QueryExecutor(cluster, ExecOptions(sanitize=sanitize)).execute(
            sssp_plan())
    assert dict(counts) == PHYSICAL_ONCE


def test_restart_recovery_reuses_the_prepared_plan():
    cluster = sssp_cluster(vertices=60)
    options = ExecOptions(recovery="restart",
                          failure=FailureSpec(after_stratum=2))
    with counting() as counts:
        result = QueryExecutor(cluster, options).execute(sssp_plan())
    assert result.metrics.recovery_seconds > 0
    assert dict(counts) == PHYSICAL_ONCE


def test_cli_telemetry_analyze():
    with counting() as counts:
        rc = _quiet(main, ["telemetry", "--workload", "sssp", "--analyze"])
    assert rc == 0
    assert dict(counts) == PHYSICAL_ONCE
