"""Unit + property tests for the cost model, workers and cluster."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel, ResourceUsage
from repro.common.errors import ExecutionError, ReproError

nonneg = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


class TestCostModel:
    def test_defaults_positive(self):
        cm = CostModel()
        assert cm.cpu_tuple_cost > 0
        assert cm.net_bandwidth > cm.disk_bandwidth > 0
        assert cm.hadoop_job_startup > cm.rex_query_startup

    def test_udf_batching_amortizes(self):
        cm = CostModel()
        assert cm.udf_cost_per_tuple(batched=True) < \
            cm.udf_cost_per_tuple(batched=False)

    def test_unbatched_when_batch_is_one(self):
        cm = CostModel(udf_batch_size=1)
        assert cm.udf_cost_per_tuple(batched=True) == \
            cm.udf_cost_per_tuple(batched=False)

    def test_sort_time_superlinear(self):
        cm = CostModel()
        assert cm.sort_time(0) == 0.0
        assert cm.sort_time(1) == 0.0
        assert cm.sort_time(20_000) > 2 * cm.sort_time(10_000)

    def test_scaled_replaces_fields(self):
        cm = CostModel().scaled(hadoop_job_startup=1.0)
        assert cm.hadoop_job_startup == 1.0
        assert cm.cpu_tuple_cost == CostModel().cpu_tuple_cost

    def test_cpu_factor_defaults_to_one(self):
        cm = CostModel(cpu_speed={3: 2.0})
        assert cm.cpu_factor(3) == 2.0
        assert cm.cpu_factor(0) == 1.0


class TestResourceUsage:
    @given(nonneg, nonneg, nonneg, nonneg,
           st.floats(min_value=0.0, max_value=1.0))
    def test_combined_time_bounded_by_peak_and_total(self, c, d, ni, no,
                                                     overlap):
        usage = ResourceUsage(cpu=c, disk=d, net_in=ni, net_out=no)
        t = usage.combined_time(overlap)
        assert usage.peak() - 1e-12 <= t <= usage.total() + 1e-12

    def test_full_overlap_is_max(self):
        usage = ResourceUsage(cpu=3.0, disk=1.0)
        assert usage.combined_time(1.0) == 3.0

    def test_no_overlap_is_sum(self):
        usage = ResourceUsage(cpu=3.0, disk=1.0)
        assert usage.combined_time(0.0) == 4.0

    def test_add_accumulates(self):
        a = ResourceUsage(cpu=1.0)
        a.add(ResourceUsage(cpu=2.0, disk=1.0))
        assert a.cpu == 3.0 and a.disk == 1.0


class TestWorkerCharging:
    def test_cpu_scaled_by_speed(self):
        cluster = Cluster(2, cost_model=CostModel(cpu_speed={1: 2.0}))
        cluster.worker(0).charge_cpu(1.0)
        cluster.worker(1).charge_cpu(1.0)
        assert cluster.worker(0).stratum_usage.cpu == 1.0
        assert cluster.worker(1).stratum_usage.cpu == 0.5  # 2x faster

    def test_disk_and_net_charging(self):
        cluster = Cluster(1)
        w = cluster.worker(0)
        w.charge_disk_bytes(80_000_000)
        assert w.stratum_usage.disk == pytest.approx(1.0)
        w.charge_net_out(110_000_000, messages=0)
        assert w.stratum_usage.net_out == pytest.approx(1.0)

    def test_end_stratum_rolls_totals(self):
        cluster = Cluster(1)
        w = cluster.worker(0)
        w.charge_cpu(0.5)
        usage = w.end_stratum()
        assert usage.cpu == 0.5
        assert w.stratum_usage.cpu == 0.0
        assert w.total_usage.cpu == 0.5

    def test_state_bytes_spill_to_disk(self):
        cm = CostModel(worker_memory_bytes=100)
        cluster = Cluster(1, cost_model=cm)
        w = cluster.worker(0)
        w.add_state_bytes(50)
        assert w.stratum_usage.disk == 0.0   # under budget
        w.add_state_bytes(200)
        assert w.stratum_usage.disk > 0.0    # spilled


class TestCluster:
    def test_requires_one_node(self):
        with pytest.raises(ReproError):
            Cluster(0)

    def test_create_table_registers(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["a:Integer"], [(1,), (2,)], "a")
        assert len(cluster.catalog.get("t").all_rows()) == 2

    def test_fail_node(self):
        cluster = Cluster(3)
        cluster.fail_node(1)
        assert not cluster.workers[1].alive
        assert [w.id for w in cluster.alive_workers()] == [0, 2]
        with pytest.raises(ExecutionError):
            cluster.fail_node(1)

    def test_stratum_wall_time_is_slowest_live_worker(self):
        cluster = Cluster(3)
        cluster.worker(0).charge_cpu(1.0)
        cluster.worker(1).charge_cpu(5.0)
        cluster.fail_node(2)
        assert cluster.end_stratum_wall_time() == pytest.approx(5.0)

    def test_network_charges_both_endpoints(self):
        cluster = Cluster(2)
        from repro.common import insert
        from repro.net import Message

        cluster.network.register(1, "x", lambda m: None)
        cluster.network.send(Message(src=0, dst=1, exchange="x",
                                     deltas=[insert((1, 2.0))]))
        assert cluster.worker(0).stratum_usage.net_out > 0
        assert cluster.worker(1).stratum_usage.net_in > 0
