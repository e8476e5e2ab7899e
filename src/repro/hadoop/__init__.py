"""Hadoop/HaLoop substrate and the REX "wrap" integration (Section 4.4)."""

from repro.hadoop.algorithms import (
    adjacency_dataset,
    hadoop_kmeans,
    hadoop_pagerank,
    hadoop_simple_agg,
    hadoop_sssp,
)
from repro.hadoop.driver import run_wrapped_jobs, wrap_job, wrap_job_chain
from repro.hadoop.engine import HadoopEngine
from repro.hadoop.jobs import (
    MapReduceJob,
    Mapper,
    Reducer,
    kmeans_job,
    pagerank_jobs,
    simple_agg_job,
    sssp_jobs,
)
from repro.hadoop.records import DFSDataset
from repro.hadoop.rex_wrap import (
    rex_wrap_pagerank,
    rex_wrap_simple_agg,
    rex_wrap_sssp,
    wrap_pagerank_plan,
    wrap_sssp_plan,
)
from repro.hadoop.wrap import MapWrap, MapWrapJoinHandler, ReduceWrapAgg

__all__ = [
    "HadoopEngine",
    "wrap_job",
    "wrap_job_chain",
    "run_wrapped_jobs",
    "DFSDataset",
    "MapReduceJob",
    "Mapper",
    "Reducer",
    "simple_agg_job",
    "pagerank_jobs",
    "sssp_jobs",
    "kmeans_job",
    "adjacency_dataset",
    "hadoop_simple_agg",
    "hadoop_pagerank",
    "hadoop_sssp",
    "hadoop_kmeans",
    "MapWrap",
    "ReduceWrapAgg",
    "MapWrapJoinHandler",
    "rex_wrap_simple_agg",
    "rex_wrap_pagerank",
    "rex_wrap_sssp",
    "wrap_sssp_plan",
    "wrap_pagerank_plan",
]
