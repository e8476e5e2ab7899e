"""Quickstart: create a cluster, load tables, run ad hoc RQL queries.

Demonstrates the DBMS face of REX (Section 1: "small, quickly executed ad
hoc queries"): standard SQL with joins and aggregation over a partitioned
cluster, plus a registered user-defined function.

Run:  python examples/quickstart.py
"""

from repro import Cluster, RQLSession, udf


def main() -> None:
    # A 4-worker simulated shared-nothing cluster.
    cluster = Cluster(4)

    # Orders, hash-partitioned by customer; customers likewise.
    cluster.create_table(
        "orders",
        ["orderId:Integer", "custId:Integer", "amount:Double"],
        [(i, i % 10, round(10.0 + (i * 7) % 90, 2)) for i in range(200)],
        partition_key="custId",
    )
    cluster.create_table(
        "customers",
        ["custId:Integer", "name:Varchar", "tier:Integer"],
        [(c, f"customer-{c}", c % 3) for c in range(10)],
        partition_key="custId",
    )

    session = RQLSession(cluster)

    print("== global aggregate ==")
    result = session.execute(
        "SELECT sum(amount), count(*) FROM orders WHERE amount > 50.0")
    total, count = result.rows[0]
    print(f"  {count} orders over 50.0, totalling {total:.2f}")
    print(f"  simulated runtime: {result.metrics.total_seconds():.4f}s, "
          f"{result.metrics.total_bytes()} bytes shuffled")

    print("\n== join + group-by ==")
    result = session.execute(
        "SELECT name, sum(amount) FROM orders, customers "
        "WHERE orders.custId = customers.custId "
        "GROUP BY name")
    for name, spend in sorted(result.rows):
        print(f"  {name:<14} {spend:9.2f}")

    print("\n== user-defined function ==")

    @udf(in_types=["Double"], out_types=["Double"])
    def with_tax(amount):
        return round(amount * 1.08, 2)

    session.register(with_tax)
    result = session.execute(
        "SELECT orderId, with_tax(amount) FROM orders WHERE orderId < 5")
    for row in sorted(result.rows):
        print(f"  order {row[0]}: {row[1]}")

    print("\n== table-valued UDF (a dependent join) ==")

    @udf(in_types=["Varchar"], out_types=["part:Varchar"],
         table_valued=True)
    def name_parts(name):
        return [(part,) for part in name.split("-")]

    session.register(name_parts)
    result = session.execute(
        "SELECT custId, name_parts(name).{part} FROM customers "
        "WHERE custId < 2")
    for cust, part in sorted(result.rows):
        print(f"  customer {cust}: {part}")
    assert sorted(result.rows) == [(0, "0"), (0, "customer"),
                                   (1, "1"), (1, "customer")]

    print("\n== the optimizer's chosen plan ==")
    print(session.explain(
        "SELECT name, sum(amount) FROM orders, customers "
        "WHERE orders.custId = customers.custId GROUP BY name",
        with_estimates=True))


if __name__ == "__main__":
    main()
