"""The Hadoop-style MapReduce execution engine, with HaLoop emulation.

Jobs execute *really* (mappers and reducers run over real records, so
results are verifiable) on the same simulated cluster and cost model as
REX, charging the costs that define Hadoop's profile:

* per-job startup and task-wave scheduling overhead;
* disk reads of every input, spill + **sort-merge** of map output
  (``n log n`` compare cost — the shuffle sort REX avoids via hash
  grouping, Section 6.3);
* network shuffle of map output to reducers;
* DFS write of job output with ``dfs_replication``-fold redundancy (the
  per-job checkpoint REX's pipelined execution avoids).

HaLoop is emulated exactly the way the paper does (Section 6,
"Platforms"): the techniques of Bu et al. are counted as **zero time** —
callers mark loop-invariant inputs as free after the first iteration
(reducer-input cache + recursive stages over immutable data), and
convergence tests / input-output formatting / result collection are never
charged for either system.  The numbers are therefore lower bounds, as the
paper's are.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster
from repro.cluster.metrics import QueryMetrics
from repro.common.errors import ExecutionError
from repro.hadoop.jobs import MapReduceJob, Pair
from repro.hadoop.records import DFSDataset, record_bytes
from repro.storage.hashing import stable_hash


class HadoopEngine:
    """Runs MapReduce jobs on a :class:`~repro.cluster.Cluster`."""

    def __init__(self, cluster: Cluster, haloop: bool = False):
        self.cluster = cluster
        self.haloop = haloop
        self.cost = cluster.cost
        self.total_shuffle_bytes = 0
        self.jobs_run = 0

    def _nodes(self) -> List[int]:
        return [w.id for w in self.cluster.alive_workers()]

    def run_job(self, job: MapReduceJob, inputs: Sequence[DFSDataset],
                free_inputs: Optional[Set[int]] = None,
                output_name: Optional[str] = None,
                broadcast_bytes: int = 0,
                ) -> Tuple[DFSDataset, float, int]:
        """Execute one job; returns (output, wall_seconds, shuffle_bytes).

        ``free_inputs`` are input positions whose map/sort/shuffle costs are
        *not* charged (the HaLoop lower-bound emulation).
        ``broadcast_bytes`` charges a distributed-cache push to every node
        (e.g. K-means centroids).
        """
        if len(inputs) != len(job.mappers):
            raise ExecutionError(
                f"job {job.name} has {len(job.mappers)} mappers but "
                f"{len(inputs)} inputs"
            )
        free = free_inputs or set()
        nodes = self._nodes()
        # Discard any usage left over from earlier phases.
        for worker in self.cluster.alive_workers():
            worker.end_stratum()

        if broadcast_bytes:
            for node in nodes:
                self.cluster.worker(node).charge_net_in(broadcast_bytes)

        # ---- map + combine (per node) ------------------------------------
        shuffle_buffers: Dict[int, List[Tuple[Pair, bool]]] = {
            n: [] for n in nodes}
        for node in nodes:
            worker = self.cluster.worker(node)
            map_out: List[Tuple[Pair, bool]] = []  # (record, charged)
            charged_out = 0
            for idx, (mapper, dataset) in enumerate(zip(job.mappers, inputs)):
                records = dataset.partition(node)
                charged = idx not in free
                if charged and records:
                    worker.charge_disk_seek()
                    worker.charge_disk_bytes(
                        sum(record_bytes(r) for r in records))
                for key, value in records:
                    if charged:
                        worker.charge_cpu(self.cost.udf_call_cost
                                          + self.cost.cpu_tuple_cost
                                          + self.cost.hadoop_record_cost)
                    for out in mapper.map(key, value):
                        map_out.append((out, charged))
                        if charged:
                            charged_out += 1
            if job.combiner is not None:
                map_out, charged_out = self._combine(worker, job.combiner,
                                                     map_out)
            # Sort-merge and spill of (charged) map output.
            worker.charge_cpu(self.cost.sort_time(charged_out))
            worker.charge_disk_bytes(
                sum(record_bytes(r) for r, charged in map_out if charged))
            # Partition to reducers.
            for record, charged in map_out:
                dst = nodes[stable_hash(record[0]) % len(nodes)]
                shuffle_buffers[dst].append((record, charged))
                if charged and dst != node:
                    nbytes = record_bytes(record)
                    worker.charge_net_out(nbytes, messages=0)
                    self.cluster.worker(dst).charge_net_in(nbytes)
                    self.total_shuffle_bytes += nbytes

        job_shuffle = sum(
            record_bytes(r) for n in nodes
            for r, charged in shuffle_buffers[n] if charged)

        # ---- reduce (per node) -------------------------------------------
        out_partitions: Dict[int, List[Pair]] = {n: [] for n in nodes}
        for node in nodes:
            worker = self.cluster.worker(node)
            received = shuffle_buffers[node]
            charged_in = sum(1 for _, charged in received if charged)
            worker.charge_cpu(self.cost.sort_time(charged_in))
            groups: Dict[object, List[object]] = {}
            order: List[object] = []
            for (key, value), _ in received:
                if key not in groups:
                    groups[key] = []
                    order.append(key)
                groups[key].append(value)
            for key in order:
                worker.charge_cpu(self.cost.udf_call_cost)
                worker.charge_cpu((self.cost.cpu_tuple_cost
                                   + self.cost.hadoop_record_cost)
                                  * len(groups[key]))
                for out in job.reducer.reduce(key, groups[key]):
                    out_partitions[node].append(out)
            # DFS write with replication.
            out_bytes = sum(record_bytes(r) for r in out_partitions[node])
            worker.charge_disk_bytes(out_bytes)
            for _ in range(self.cost.dfs_replication - 1):
                worker.charge_net_out(out_bytes, messages=0)
                worker.charge_disk_bytes(out_bytes)

        wall = (self.cluster.end_stratum_wall_time()
                + self.cost.hadoop_job_startup
                + 2 * self.cost.hadoop_task_overhead)
        self.jobs_run += 1
        name = output_name or f"{job.name}-out"
        return DFSDataset(name, out_partitions), wall, job_shuffle

    def _combine(self, worker, combiner,
                 map_out: List[Tuple[Pair, bool]]
                 ) -> Tuple[List[Tuple[Pair, bool]], int]:
        """Run the combiner over one node's map output."""
        groups: Dict[object, List[object]] = {}
        order: List[object] = []
        any_charged: Dict[object, bool] = {}
        charged_records = 0
        for (key, value), charged in map_out:
            if charged:
                worker.charge_cpu(self.cost.hash_op_cost
                                  + self.cost.cpu_tuple_cost)
            if key not in groups:
                groups[key] = []
                order.append(key)
                any_charged[key] = False
            groups[key].append(value)
            any_charged[key] = any_charged[key] or charged
        combined: List[Tuple[Pair, bool]] = []
        for key in order:
            for out in combiner.reduce(key, groups[key]):
                combined.append((out, any_charged[key]))
                if any_charged[key]:
                    charged_records += 1
        return combined, charged_records
