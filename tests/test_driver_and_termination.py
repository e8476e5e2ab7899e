"""Generic wrapped-job driver templates."""

import pytest

from repro.cluster import Cluster
from repro.common.errors import PlanError
from repro.datasets import lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.hadoop import run_wrapped_jobs, simple_agg_job, wrap_job_chain
from repro.hadoop.jobs import MapReduceJob, Mapper, Reducer
from repro.runtime import PScan


class TestWrapJobTemplate:
    def test_single_job_equals_direct_computation(self):
        rows = lineitem(500)
        cluster = Cluster(3)
        cluster.create_table("lineitem", LINEITEM_SCHEMA, rows, None)
        out, metrics = run_wrapped_jobs(
            cluster, [simple_agg_job()], "lineitem",
            kv_extractor=lambda r: (r[0], (r[1], r[5])))
        assert len(out) == 1
        _, (total, count) = out[0]
        kept = [r for r in rows if r[1] > 1]
        assert count == len(kept)
        assert total == pytest.approx(sum(r[5] for r in kept))

    def test_chained_jobs(self):
        """Job 1 counts per key; job 2 histograms the counts."""

        class CountMapper(Mapper):
            def map(self, key, value):
                yield (key % 5, 1)

        class SumReducer(Reducer):
            def reduce(self, key, values):
                yield (key, sum(values))

        class InvertMapper(Mapper):
            def map(self, key, value):
                yield (value, 1)

        job1 = MapReduceJob("count", [CountMapper()], SumReducer(),
                            combiner=SumReducer())
        job2 = MapReduceJob("hist", [InvertMapper()], SumReducer())
        cluster = Cluster(3)
        cluster.create_table("t", ["k:Integer", "v:Integer"],
                             [(i, i) for i in range(50)], "k")
        out, _ = run_wrapped_jobs(cluster, [job1, job2], "t")
        # 50 keys over 5 buckets -> every bucket counts 10; histogram {10: 5}
        assert sorted(out) == [(10, 5)]

    def test_multi_input_job_rejected(self):
        from repro.hadoop.jobs import TagMapper, PRJoinReducer

        job = MapReduceJob("join", [TagMapper("A"), TagMapper("R")],
                           PRJoinReducer())
        with pytest.raises(PlanError):
            wrap_job_chain([job], PScan("t"))

    def test_empty_chain_rejected(self):
        with pytest.raises(PlanError):
            wrap_job_chain([], PScan("t"))

