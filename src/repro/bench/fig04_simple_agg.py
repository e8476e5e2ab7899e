"""Figure 4: UDF overhead on a simple OLAP query.

``SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1`` executed
four ways: REX with built-in operators, REX with the same logic as 2 UDAs +
1 UDF predicate, REX wrap (the Hadoop classes through wrapper UDFs/UDAs),
and native Hadoop.
"""

from __future__ import annotations

from repro.bench.common import (
    LINEITEM_ROWS,
    Claim,
    FigureResult,
    Series,
    claims,
    fresh_cluster,
    scaled_cost_model,
    speedup,
)

PAPER_LINEITEM_ROWS = 60_000_000
from repro.datasets import lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.hadoop import hadoop_simple_agg, rex_wrap_simple_agg
from repro.rql import RQLSession
from repro.udf import Count, Sum, udf


class UserSum(Sum):
    """SUM reimplemented as a user-defined aggregator: same logic, but
    charged the UDC invocation cost per delta like any user code."""

    name = "usersum"

    @staticmethod
    def per_delta_cost(cost) -> float:
        return cost.udf_cost_per_tuple(batched=True)


class UserCount(Count):
    name = "usercount"

    @staticmethod
    def per_delta_cost(cost) -> float:
        return cost.udf_cost_per_tuple(batched=True)


@udf(in_types=["Integer"], out_types=["Boolean"], selectivity=6.0 / 7.0)
def line_gt1(linenumber):
    """The selection predicate as a user-defined function."""
    return linenumber > 1


def _lineitem_cluster(rows, nodes, cost_model):
    cluster = fresh_cluster(nodes, cost_model)
    cluster.create_table("lineitem", LINEITEM_SCHEMA, rows, None)
    return cluster


@claims(
    Claim("rex_vs_hadoop_speedup", "built-in and UDF REX are more than 3x "
          "faster than Hadoop", ">", 3.0),
    Claim("REX UDF", "UDF REX costs a premium over built-in REX and still "
          "beats Hadoop", "<", ("REX built-in", "Hadoop")),
    Claim("udf_overhead_pct", "UDFs cost at most ~10 % over the built-in "
          "operators", "<", 50.0,
          gap="each qualifying row pays three batched UDC invocations (the "
              "predicate and two UDAs); the cost model is not calibrated "
              "to the paper's ~10 %"),
    Claim("REX wrap", "REX wrap is slightly faster than Hadoop (~1.1x) and "
          "slower than native REX", "<", ("REX UDF", "Hadoop")),
)
def run(n_rows: int = LINEITEM_ROWS, nodes: int = 8) -> FigureResult:
    cost_model = scaled_cost_model(PAPER_LINEITEM_ROWS / n_rows)
    rows = lineitem(n_rows)
    expected_count = sum(1 for r in rows if r[1] > 1)
    expected_sum = sum(r[5] for r in rows if r[1] > 1)

    def check(total, count):
        assert count == expected_count, "wrong aggregation result"
        assert abs(total - expected_sum) < 1e-6 * max(1.0, abs(expected_sum))

    # REX built-in.
    session = RQLSession(_lineitem_cluster(rows, nodes, cost_model))
    r = session.execute(
        "SELECT sum(tax), count(*) FROM lineitem WHERE linenumber > 1")
    check(*r.rows[0])
    builtin_secs = r.metrics.total_seconds()

    # REX with user-defined aggregates and predicate.
    session = RQLSession(_lineitem_cluster(rows, nodes, cost_model))
    session.register(UserSum)
    session.register(UserCount)
    session.register(line_gt1)
    r = session.execute(
        "SELECT usersum(tax), usercount(*) FROM lineitem "
        "WHERE line_gt1(linenumber)")
    check(*r.rows[0])
    udf_secs = r.metrics.total_seconds()

    # REX wrap: the Hadoop classes inside REX.
    (total, count), wrap_m = rex_wrap_simple_agg(
        _lineitem_cluster(rows, nodes, cost_model))
    check(total, count)
    wrap_secs = wrap_m.total_seconds()

    # Native Hadoop.
    (total, count), hadoop_m = hadoop_simple_agg(
        fresh_cluster(nodes, cost_model), rows)
    check(total, count)
    hadoop_secs = hadoop_m.total_seconds()

    result = FigureResult(
        figure="Figure 4",
        title="Standard aggregation (TPC-H), runtime by configuration",
        series=[
            Series("REX built-in", [builtin_secs]),
            Series("REX UDF", [udf_secs]),
            Series("REX wrap", [wrap_secs]),
            Series("Hadoop", [hadoop_secs]),
        ],
        headline={
            "rex_vs_hadoop_speedup": speedup(hadoop_secs, builtin_secs),
            "udf_overhead_pct": 100.0 * (udf_secs / builtin_secs - 1.0),
            "wrap_vs_hadoop_speedup": speedup(hadoop_secs, wrap_secs),
        },
        notes=[f"{n_rows} lineitem rows on {nodes} nodes; paper: 60M rows "
               "(10GB) on 28 nodes"],
    )
    return result
