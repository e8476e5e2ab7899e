"""Runtime property suite for the delta-polarity abstract interpretation
(REX3xx) and what the sanitizer does with its proofs.

That ``ExecOptions(absint=...)`` never changes the simulated execution —
fingerprints identical on or off, sanitized or not, fused or not — is the
``sanitize_full_no_absint``, ``unfused_no_absint`` and ``all_off_sanitized``
rows of ``tests/test_equivalence.py``.  Here:

1. **Who pays for the inference**: only a sanitized run.
2. **Observation consistency**: under the full sanitizer every
   runtime-observed delta kind stays inside the static polarity verdict
   (no REX307, and a direct per-port subset check against the armed
   proofs), on every workload of ``tests/workloads.py``.
3. **Violation detection**: a delta kind that contradicts a proof trips
   a hard REX307 error under the sanitizer, and is computed correctly
   without one — the operators never trust a proof.
"""

from unittest import mock

import pytest

from helpers import Capture, Feed
from repro.cluster import CostModel, Worker
from repro.common.deltas import Delta, DeltaOp, delete, insert
from repro.operators import ExecContext, GroupBy, Probe
from repro.udf import AggregateSpec, Min
from workloads import WORKLOADS, build, run


# ---------------------------------------------------------------------------
# Property 1: only the sanitizer pays for the inference
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sanitize, expected_calls", [("off", 0),
                                                      ("full", 1)])
def test_executor_infers_only_for_the_sanitizer(sanitize, expected_calls):
    """Nothing but the sanitizer reads the proofs, so an unsanitized
    ``_instantiate`` must not pay for the inference.  ``rewrite=False``
    isolates the executor's own call: rewrite licensing runs the
    inference too, on plans with rewrite candidates."""
    from repro.analysis import absint

    with mock.patch.object(absint, "infer", wraps=absint.infer) as spy:
        run(build("pagerank_delta"), sanitize=sanitize, rewrite=False)
    assert spy.call_count == expected_calls


@pytest.mark.parametrize("rewrite", [True, False])
@pytest.mark.parametrize("fuse", [True, False])
@pytest.mark.parametrize("name", [*WORKLOADS, "wide_rewrites"])
def test_proofs_of_the_built_tree_are_the_plans_facts(name, fuse, rewrite):
    """The sanitizer's proofs come from the one inference on the
    prepared plan, read through the node each built node was rebuilt
    from.  For every stateful node they equal a fresh inference over the
    rewritten, fused tree itself — ``wide_rewrites`` applies a filter
    pushdown and an exchange narrowing first."""
    from repro.analysis.absint import infer
    from repro.analysis.analyzer import prepare
    from repro.runtime.plan import PFixpoint, PGroupBy, PJoin
    from test_rewrite_equivalence import _wide_builder

    cluster, plan, _ = (_wide_builder() if name == "wide_rewrites"
                        else build(name))
    analysis = prepare(plan, cluster.catalog.widths()).configured(
        rewrite, fuse)
    fresh, _ = infer(analysis.root)
    stateful = [n for n in analysis.root.walk()
                if isinstance(n, (PFixpoint, PGroupBy, PJoin))]
    assert stateful
    for node in stateful:
        mapped, direct = analysis.polarity_of(node), fresh.of(node)
        assert (mapped.in_polarity, mapped.port_polarities,
                mapped.monotone) == (direct.in_polarity,
                                     direct.port_polarities,
                                     direct.monotone), direct.path
    if name == "wide_rewrites" and rewrite:
        assert {d.kind for d in analysis.rewrites if d.applied} == {
            "filter-pushdown", "narrow-exchange"}


# ---------------------------------------------------------------------------
# Property 2: observed polarities never contradict static verdicts
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def sanitized_runs():
    """One full-sanitizer, proofs-armed execution per workload."""
    return {name: run(build(name), sanitize="full") for name in WORKLOADS}


@pytest.mark.parametrize("name", WORKLOADS)
def test_runtime_polarities_respect_static_proofs(name, sanitized_runs):
    result = sanitized_runs[name]
    sanitizer = result.sanitizer
    assert sanitizer is not None
    report = sanitizer.report
    assert "REX307" not in set(report.codes()), report.format()
    assert not report.has_errors(), report.format()
    observed = sanitizer.observed_polarities()
    assert observed, f"{name}: sanitizer recorded no polarities"


@pytest.mark.parametrize("name", WORKLOADS)
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

def _insert_only_groupby_min():
    """GroupBy(Min) carrying an exact insert-only input proof, attached
    the way the executor attaches it."""
    from repro.analysis.absint import INSERT_ONLY, NodeProperties, Polarity
    from repro.runtime.executor import arm_proofs

    gb = GroupBy(key_fn=lambda r: (r[0],),
                 specs=[AggregateSpec(Min(), arg=lambda r: r[1],
                                      output="m")])
    proven = Polarity(INSERT_ONLY, exact=True)
    arm_proofs(gb, NodeProperties("/GroupBy", "GroupBy", proven,
                                  in_polarity=proven))
    assert gb.proof_polarity == INSERT_ONLY
    return gb


def _wire(gb, batch, sanitizer=None):
    """``Feed -> gb -> Capture`` on one worker, observed by ``sanitizer``
    through a probe the way the executor attaches it."""
    probe = Probe([sanitizer]) if sanitizer is not None else None
    ctx = ExecContext(Worker(0, CostModel()), batch=batch, probe=probe)
    feed, sink = Feed(), Capture()
    gb.add_input(feed)
    sink.add_input(gb)
    for op in (feed, gb, sink):
        op.open(ctx)
    return feed, sink


def _insert_then_delete(gb, batch, sanitizer=None):
    """One ``+`` stratum, then one ``-`` stratum contradicting the proof."""
    feed, sink = _wire(gb, batch, sanitizer)
    for stratum, delta in enumerate([insert((1, 1)), delete((1, 1))]):
        feed.push(delta)
        feed.punctuate(stratum)
    return sink.deltas, dict(gb.groups)


def test_proof_violation_trips_rex307():
    from repro.analysis.sanitizer import Sanitizer

    sanitizer = Sanitizer("full")
    gb = _insert_only_groupby_min()
    feed, _ = _wire(gb, batch=True, sanitizer=sanitizer)
    feed.push(Delta(DeltaOp.INSERT, (1, 2)))
    assert "REX307" not in set(sanitizer.report.codes())
    shadow = sanitizer._shadows[id(gb)]
    assert shadow.polarity and shadow.groupby, \
        "an exact proof adds the assertion and keeps the re-aggregation"

    feed.push(Delta(DeltaOp.REPLACE, (1, 3), old=(1, 2)))
    codes = set(sanitizer.report.codes())
    assert "REX307" in codes, sanitizer.report.format()
    assert sanitizer.report.has_errors()
    observed = sanitizer.observed_polarities()
    assert observed["GroupBy@n0"][0] == frozenset(
        {DeltaOp.INSERT, DeltaOp.REPLACE})


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
