"""The collector scope around ``QueryExecutor.execute``.

Three things are pinned here: the collector is off inside a query and put
back as it was found on every exit; the invariant that licenses switching
it off (a query leaves a small, input-size-independent number of cyclic
objects, so reference counting frees everything the strata loop
allocates); and a finished query lets go of the cluster (its exchange
handlers are dropped, so its operators can be freed).
"""

import dataclasses
import gc
import weakref

import pytest

from repro.algorithms import sssp_plan
from repro.algorithms.sssp import MonotoneMinDist
from repro.cluster import Cluster
from repro.datasets import lineitem
from repro.datasets.tpch import LINEITEM_SCHEMA
from repro.obs import ObsContext
from repro.optimizer.physical import lower
from repro.rql import RQLSession
from repro.runtime import (ExecOptions, FailureSpec, PhysicalPlan,
                           QueryExecutor)

from workloads import WORKLOADS, run, sssp_cluster


@pytest.fixture
def collector():
    """Hands the test the collector enabled; restores the host's state."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def probed_sssp_plan(seen, raise_at=None):
    """SSSP whose fixpoint delta handler records ``gc.isenabled()`` on every
    call and, optionally, raises on the first offer at distance
    ``raise_at`` — offers at distance d reach the fixpoint in stratum d."""
    class Probe(MonotoneMinDist):
        def update(self, while_relation, delta):
            seen.add(gc.isenabled())
            if delta.row[2] == raise_at:
                raise ValueError("handler exploded")
            return super().update(while_relation, delta)

    return PhysicalPlan(dataclasses.replace(
        sssp_plan().fixpoint, while_handler_factory=Probe))


@pytest.mark.usefixtures("collector")
class TestCollectorRestored:
    def test_suspended_inside_and_enabled_after_success(self):
        seen = set()
        result = QueryExecutor(sssp_cluster(), ExecOptions()).execute(
            probed_sssp_plan(seen))
        assert seen == {False}
        assert gc.isenabled()
        start = result.flight.notes[0]
        assert start["kind"] == "query_start"
        assert start["gc_enabled"] is False
        assert len(start["gc_count"]) == 3

    def test_enabled_after_handler_raises_in_stratum_2(self):
        seen = set()
        with pytest.raises(ValueError) as excinfo:
            QueryExecutor(sssp_cluster(), ExecOptions()).execute(
                probed_sssp_plan(seen, raise_at=2.0))
        assert seen == {False}
        assert gc.isenabled()
        # The bundle was written first, while the collector was still off.
        bundle = excinfo.value.rex_flight_bundle
        assert [n["stratum"] for n in bundle["notes"]
                if n["kind"] == "stratum"] == [0, 1]
        assert bundle["env"]["gc_enabled"] is False
        assert len(bundle["env"]["gc_count"]) == 3

    @pytest.mark.parametrize("recovery", ["restart", "incremental"])
    def test_enabled_after_failure_recovery(self, recovery):
        seen = set()
        options = ExecOptions(failure=FailureSpec(after_stratum=2),
                              recovery=recovery)
        result = QueryExecutor(sssp_cluster(), options).execute(
            probed_sssp_plan(seen))
        assert result.metrics.recovery_seconds > 0
        assert seen == {False}
        assert gc.isenabled()

    @pytest.mark.parametrize("recovery", ["restart", "incremental"])
    def test_host_disabled_stays_disabled(self, recovery):
        gc.disable()
        options = ExecOptions(failure=FailureSpec(after_stratum=2),
                              recovery=recovery)
        QueryExecutor(sssp_cluster(), options).execute(sssp_plan())
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            QueryExecutor(sssp_cluster(), ExecOptions()).execute(
                probed_sssp_plan(set(), raise_at=2.0))
        assert not gc.isenabled()


# ---------------------------------------------------------------------------
# The invariant that licenses the suspension
# ---------------------------------------------------------------------------
MODES = {
    "default": lambda: {},
    "obs": lambda: {"obs": ObsContext()},
    "sanitize_full": lambda: {"sanitize": "full"},
}
#: A query's operator trees, handler closures and flight/obs records are
#: cyclic and die with it; what matters is that the count does not grow
#: with the input.
MAX_UNREACHABLE_PER_QUERY = 64


def _unreachable_after_query(build, size, mode):
    workload = build(size)
    gc.collect()
    result = run(workload, **MODES[mode]())
    unreachable = gc.collect()  # result and cluster are still referenced
    assert result.rows
    return unreachable


@pytest.mark.usefixtures("collector")
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_query_garbage_is_acyclic(workload, mode):
    """With automatic collection off, a forced collection right after
    ``execute`` finds the same small number of unreachable objects at both
    input sizes.  A per-tuple or per-stratum reference cycle anywhere on
    the query path breaks the equality — here, instead of as a leak for
    the query's span."""
    build, sizes = WORKLOADS[workload]
    gc.disable()
    small, large = (_unreachable_after_query(build, size, mode)
                    for size in sizes)
    assert small == large
    assert small <= MAX_UNREACHABLE_PER_QUERY


# ---------------------------------------------------------------------------
# A finished query lets go of the cluster
# ---------------------------------------------------------------------------
QUERY = ("SELECT orderkey, sum(extendedprice), count(*) FROM lineitem "
         "WHERE discount >= 0.05 GROUP BY orderkey")


class TestHandlersReleased:
    def test_three_queries_on_one_cluster(self):
        cluster = Cluster(4)
        cluster.create_table("lineitem", LINEITEM_SCHEMA, lineitem(600),
                             None)
        session = RQLSession(cluster)
        first_operator = None
        for _ in range(3):
            executor = QueryExecutor(cluster, ExecOptions())
            result = executor.execute(lower(session.logical_plan(QUERY)))
            assert cluster.network._handlers == {}
            # The executor's view of the finished query stays usable.
            assert result.rows and result.flight is not None
            operators = executor.worker_plans[0].operators
            assert operators
            if first_operator is None:
                first_operator = weakref.ref(operators[0])
        del executor, result, operators
        gc.collect()
        assert first_operator() is None

    def test_handlers_dropped_after_exception_and_cluster_reusable(self):
        cluster = sssp_cluster()
        with pytest.raises(ValueError):
            QueryExecutor(cluster, ExecOptions()).execute(
                probed_sssp_plan(set(), raise_at=2.0))
        assert cluster.network._handlers == {}
        # Mail the aborted query left queued went with its handlers.
        assert not cluster.network._queue
        result = QueryExecutor(cluster, ExecOptions()).execute(sssp_plan())
        assert result.rows

    def test_abandoned_restart_attempt_dropped_too(self):
        cluster = sssp_cluster()
        options = ExecOptions(failure=FailureSpec(after_stratum=2),
                              recovery="restart")
        QueryExecutor(cluster, options).execute(sssp_plan())
        assert cluster.network._handlers == {}
