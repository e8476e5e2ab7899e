"""Runtime property suite for the delta-polarity abstract interpretation
(REX3xx) and what the sanitizer does with its proofs.

Three properties, asserted on every benchmark workload (smoke sizes):

1. **Fingerprint identity**: the simulated metrics fingerprint is
   bit-identical with ``ExecOptions(absint=...)`` on or off, at every
   sanitize level — the flag changes how much the sanitizer re-checks,
   never the simulated execution.
2. **Observation consistency**: under the full sanitizer every
   runtime-observed delta kind stays inside the static polarity verdict
   (no REX307, and a direct per-port subset check against the armed
   proofs).
3. **Violation detection**: a delta kind that contradicts a proof trips
   a hard REX307 error under the sanitizer, and is computed correctly
   without one — the operators never trust a proof.
"""

import itertools
from types import SimpleNamespace
from unittest import mock

import pytest

from helpers import Capture
from repro.algorithms.sssp import make_start_table
from repro.bench.common import fresh_cluster
from repro.bench.wallclock import (
    _graph_cluster,
    _metrics_fingerprint,
    _time_run,
    _workloads,
)
from repro.cluster import CostModel, Worker
from repro.common.deltas import Delta, DeltaOp, delete, insert
from repro.common.punctuation import Punctuation
from repro.datasets import geo_points, sample_centroids
from repro.operators import ExecContext, GroupBy
from repro.udf import AggregateSpec, Min

SMOKE = dict(_workloads(smoke=True, nodes=4, seed=7))


# ---------------------------------------------------------------------------
# Property 1: absint on/off never changes the simulated execution
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(SMOKE))
def test_fingerprint_identical_with_and_without_absint(name):
    fps = {}
    for sanitize, absint in itertools.product(("off", "full"),
                                              (True, False)):
        _, _, metrics = _time_run(SMOKE[name], batch=True,
                                  sanitize=sanitize, flight=False,
                                  absint=absint)
        fps[(sanitize, absint)] = _metrics_fingerprint(metrics)
    base = fps[("off", True)]
    for key, fp in fps.items():
        assert fp == base, (
            f"{name}: fingerprint diverged at sanitize={key[0]!r}, "
            f"absint={key[1]}")


@pytest.mark.parametrize("sanitize, expected_calls", [("off", 0),
                                                      ("full", 1)])
def test_executor_infers_only_for_the_sanitizer(sanitize, expected_calls):
    """Nothing but the sanitizer reads the proofs, so an unsanitized
    ``_instantiate`` must not pay for the inference.  ``rewrite=False``
    isolates the executor's own call: rewrite licensing runs the
    inference too, on plans with rewrite candidates."""
    from repro.analysis import absint

    with mock.patch.object(absint, "infer", wraps=absint.infer) as spy:
        _time_run(SMOKE["sssp"], batch=True, sanitize=sanitize,
                  flight=False, absint=True, rewrite=False)
    assert spy.call_count == expected_calls


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_fingerprint_identical_unfused(name):
    """The unfused operator shape under the same toggle."""
    fps = [
        _metrics_fingerprint(_time_run(SMOKE[name], batch=True, fuse=False,
                                       flight=False, absint=absint)[2])
        for absint in (True, False)
    ]
    assert fps[0] == fps[1], f"{name}: unfused fingerprint diverged"


# ---------------------------------------------------------------------------
# Property 2: observed polarities never contradict static verdicts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sanitized_runs():
    """One full-sanitizer, proofs-armed execution per workload, keyed by
    name; yields (sanitizer, result) pairs."""
    from repro.algorithms.kmeans import kmeans_plan
    from repro.algorithms.pagerank import pagerank_plan
    from repro.algorithms.sssp import sssp_plan
    from repro.runtime.executor import ExecOptions, QueryExecutor

    runs = {}

    def options():
        return ExecOptions(batch=True, sanitize="full", flight=False,
                           absint=True)

    cluster = _graph_cluster(200, 4.0, 4, 7)
    opts = options()
    opts.max_strata = 60
    opts.feedback_mode = "delta"
    runs["pagerank"] = QueryExecutor(cluster, opts).execute(
        pagerank_plan(mode="delta", tol=0.01))

    cluster = _graph_cluster(200, 4.0, 4, 7)
    make_start_table(cluster, 0)
    opts = options()
    opts.max_strata = 200
    runs["sssp"] = QueryExecutor(cluster, opts).execute(sssp_plan())

    points = geo_points(300, n_clusters=4, seed=7)
    centroids = sample_centroids(points, 4, seed=8)
    cluster = fresh_cluster(4)
    cluster.create_table("points",
                         ["pid:Integer", "x:Double", "y:Double"],
                         points, None)
    cluster.create_table("centroids0",
                         ["cid:Integer", "x:Double", "y:Double"],
                         centroids, "cid")
    opts = options()
    opts.max_strata = 120
    runs["kmeans"] = QueryExecutor(cluster, opts).execute(kmeans_plan())
    return runs


@pytest.mark.parametrize("name", ["pagerank", "sssp", "kmeans"])
def test_runtime_polarities_respect_static_proofs(name, sanitized_runs):
    result = sanitized_runs[name]
    sanitizer = result.sanitizer
    assert sanitizer is not None
    report = sanitizer.report
    assert "REX307" not in set(report.codes()), report.format()
    assert not report.has_errors(), report.format()
    observed = sanitizer.observed_polarities()
    assert observed, f"{name}: sanitizer recorded no polarities"


@pytest.mark.parametrize("name", ["pagerank", "sssp", "kmeans"])
def test_observed_kinds_subset_of_armed_proofs(name, sanitized_runs):
    """Re-derive the REX307 check from raw shadow state: every kind a
    port actually saw must sit inside that port's armed proof."""
    sanitizer = sanitized_runs[name].sanitizer
    insert_only = frozenset((DeltaOp.INSERT,))
    checked = 0
    for op_id, shadow in sanitizer._shadows.items():
        op = sanitizer._ops[op_id]
        allowed = getattr(op, "proof_polarity", None)
        insert_ports = getattr(op, "proof_insert_only_ports", None) or ()
        for port, kinds in shadow.observed.items():
            limit = insert_only if port in insert_ports else allowed
            if limit is None:
                continue
            checked += 1
            extra = frozenset(kinds) - limit
            assert not extra, (
                f"{name}: {op.name}@n{shadow.node_id} port {port} saw "
                f"{sorted(k.value for k in extra)} outside the proof "
                f"{sorted(k.value for k in limit)}")
    assert checked, f"{name}: no armed proofs were exercised"


# ---------------------------------------------------------------------------
# Property 3: a contradicting delta is a hard REX307
# ---------------------------------------------------------------------------

class _FakeProvenOp:
    name = "FakeGroupBy"
    proof_polarity = frozenset({DeltaOp.INSERT})

    def push_batch(self, deltas, port=0):
        return None


def test_proof_violation_trips_rex307():
    from repro.analysis.sanitizer import Sanitizer, _OpShadow

    sanitizer = Sanitizer("full")
    op = _FakeProvenOp()
    shadow = _OpShadow(0)
    sanitizer._shadows[id(op)] = shadow
    sanitizer._ops[id(op)] = op
    covered = sanitizer._wrap_polarity(op, shadow, batch=True)
    assert covered, "an exact proof must license assertion mode"

    op.push_batch([Delta(DeltaOp.INSERT, (1, 2))], 0)
    assert "REX307" not in set(sanitizer.report.codes())

    op.push_batch([Delta(DeltaOp.REPLACE, (1, 3), old=(1, 2))], 0)
    codes = set(sanitizer.report.codes())
    assert "REX307" in codes, sanitizer.report.format()
    assert sanitizer.report.has_errors()
    observed = sanitizer.observed_polarities()
    assert observed["FakeGroupBy@n0"][0] == frozenset(
        {DeltaOp.INSERT, DeltaOp.REPLACE})


def _insert_only_groupby_min():
    """GroupBy(Min) carrying an exact insert-only input proof, attached
    the way the executor attaches it."""
    from repro.analysis.absint import INSERT_ONLY, NodeProperties, Polarity
    from repro.runtime.executor import QueryExecutor

    gb = GroupBy(key_fn=lambda r: (r[0],),
                 specs=[AggregateSpec(Min(), arg=lambda r: r[1],
                                      output="m")])
    proven = Polarity(INSERT_ONLY, exact=True)
    executor = QueryExecutor.__new__(QueryExecutor)
    executor._absint_props = SimpleNamespace(of=lambda node: NodeProperties(
        "/GroupBy", "GroupBy", proven, in_polarity=proven))
    executor._apply_proofs(None, gb)
    assert gb.proof_polarity == INSERT_ONLY
    return gb


def _insert_then_delete(gb, batch, sanitizer=None):
    """One ``+`` stratum, then one ``-`` stratum contradicting the proof."""
    ctx = ExecContext(Worker(0, CostModel()), batch=batch,
                      sanitizer=sanitizer)
    sink = Capture()
    sink.add_input(gb)
    gb.open(ctx)
    sink.open(ctx)
    for stratum, delta in enumerate([insert((1, 1)), delete((1, 1))]):
        if batch:
            gb.push_batch([delta], 0)
        else:
            gb.receive(delta, 0)
        gb.on_punctuation(Punctuation.end_of_stratum(stratum), 0)
    return sink.deltas, dict(gb.groups)


def test_contradicted_proof_computes_correctly_and_trips_rex307():
    from repro.analysis.sanitizer import Sanitizer

    oracle = _insert_then_delete(_insert_only_groupby_min(), batch=False)
    assert oracle == ([insert((1, 1)), delete((1, 1))], {})
    assert _insert_then_delete(_insert_only_groupby_min(),
                               batch=True) == oracle

    sanitizer = Sanitizer("full")
    out, groups = _insert_then_delete(_insert_only_groupby_min(), batch=True,
                                      sanitizer=sanitizer)
    assert (out, groups) == oracle
    assert "REX307" in set(sanitizer.report.codes()), \
        sanitizer.report.format()
    assert sanitizer.report.has_errors()
