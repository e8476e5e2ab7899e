"""Property tests: the lineage-directed rewrite pass is semantics-preserving.

``ExecOptions(rewrite=True)``'s contract mirrors fusion's.  On the
workloads of ``tests/workloads.py`` no rewrite is licensed (pinned
here), so rows AND the full ``QueryMetrics.fingerprint`` are identical
with the pass on and off — a row of ``tests/test_equivalence.py``.  On a
deliberately wide workload where both rewrites *do* fire (filter
pushdown below the exchange, projection narrowing through it), the
result rows are identical while bytes on the wire strictly drop.
Legality is then checked directly: impure predicates and
non-insert-only streams must make the pass decline.
"""

import pytest

from repro.cluster import Cluster
from repro.common.deltas import DeltaOp
from repro.analysis.absint import infer
from repro.analysis.lineage import infer_lineage
from repro.optimizer.rewrite import rewrite_plan, rewrite_with
from repro.runtime import (
    ExecOptions,
    PFilter,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.runtime.plan import (
    PApply,
    PCollect,
    PFeedback,
    PFixpoint,
    PJoin,
)

from workloads import WORKLOADS, build


def _observe(builder, rewrite, fuse=True, absint=True, sanitize="off"):
    cluster, plan, extra = builder()
    options = ExecOptions(rewrite=rewrite, fuse=fuse, absint=absint,
                          sanitize=sanitize, **extra)
    executor = QueryExecutor(cluster, options)
    result = executor.execute(plan)
    return sorted(result.rows), result.metrics.fingerprint(), executor


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_plans_license_no_rewrites(workload):
    """The workload plans offer nothing legal to rewrite (their exchanges
    carry δ updates or retractions), so the pass must return the tree
    unchanged — the ``no_rewrite`` row of ``tests/test_equivalence.py``
    compares fingerprints because of this, not by luck."""
    cluster, plan, _ = build(workload)
    arity = cluster.catalog.widths()
    new_root, decisions = rewrite_plan(plan.root, table_arity=arity)
    assert new_root is plan.root
    assert not any(d.applied for d in decisions)


# -- a wide workload where both rewrites fire ---------------------------

def _vkey(row):
    return (row[0],)


def _even_payload(row):
    return row[1] % 2 == 0


def _second_col(row):
    return (row[1],)


N_WIDE = 120
WIDE_SCHEMA = ["src:Integer", "dst:Integer"] + \
    [f"p{i}:Double" for i in range(6)]


def _wide_rows():
    rows = []
    for i in range(N_WIDE):
        src = i % 40
        dst = (i * 7 + 3) % 40
        rows.append((src, dst) + tuple(float(i + k) for k in range(6)))
    return rows


def _wide_builder():
    """Reachability over 8-column edges: only (src, dst) matter, the six
    payload columns exist to be narrowed away at the exchange."""
    cluster = Cluster(4)
    # Partitioned by dst but joined on src: the rehash genuinely moves
    # rows across the wire, so narrowing it has observable byte cost.
    cluster.create_table("wide_edges", WIDE_SCHEMA, _wide_rows(), "dst")
    cluster.create_table("seeds", ["node:Integer"], [(0,)], "node")
    edges = PFilter(predicate=_even_payload,
                    children=(PRehash.by(PScan("wide_edges"), _vkey),))
    join = PJoin(left_key=_vkey, right_key=_vkey,
                 children=(edges, PFeedback()))
    recursive = PRehash.by(PProject.over(join, _second_col), _vkey)
    base = PRehash.by(PScan("seeds"), _vkey)
    root = PCollect(children=(
        PFixpoint(key_fn=_vkey, semantics="keyed",
                  children=(base, recursive)),))
    return cluster, PhysicalPlan(root), dict(max_strata=100)


def test_wide_workload_rewrites_fire_and_preserve_rows():
    rows_on, fp_on, ex_on = _observe(_wide_builder, rewrite=True)
    rows_off, fp_off, ex_off = _observe(_wide_builder, rewrite=False)
    assert rows_on == rows_off
    applied = [d for d in ex_on.analysis.rewrites if d.applied]
    kinds = {d.kind for d in applied}
    assert "filter-pushdown" in kinds
    assert "narrow-exchange" in kinds
    assert ex_off.analysis.rewrites == []
    # The narrowed exchange ships 2-column rows instead of 8-column ones
    # (fingerprint shape: (n_iter, ((secs, bytes, ...), ...), total)).
    bytes_on = sum(it[1] for it in fp_on[1])
    bytes_off = sum(it[1] for it in fp_off[1])
    assert bytes_on < bytes_off, (
        f"expected a wire-bytes win, got {bytes_on} vs {bytes_off}")


def test_wide_workload_matrix_rows_stable():
    """Rows stay identical across the full matrix even when the rewrite
    changes the wire traffic (fingerprints legitimately differ here)."""
    baseline = None
    for rewrite in (True, False):
        for fuse in (True, False):
            for sanitize in ("off", "full"):
                rows, _, _ = _observe(_wide_builder, rewrite, fuse,
                                      sanitize=sanitize)
                if baseline is None:
                    baseline = rows
                else:
                    assert rows == baseline, (
                        f"rows diverge with rewrite={rewrite}, "
                        f"fuse={fuse}, sanitize={sanitize}")


# -- legality: where the pass must decline ------------------------------

def _impure_pred(row):
    print(row[0])  # noqa: T201 - impurity is the point
    return row[1] % 2 == 0


def test_impure_predicate_declines_pushdown():
    ex = PRehash.by(PScan("wide_edges"), _vkey)
    root = PCollect(children=(PFilter(predicate=_impure_pred, children=(ex,)),))
    new_root, decisions = rewrite_plan(
        root, table_arity={"wide_edges": 8})
    assert new_root is root
    declined = [d for d in decisions if d.kind == "filter-pushdown"]
    assert declined and not any(d.applied for d in declined)
    assert any("pure" in d.reason for d in declined)


class _UpdateEmitter:
    """A delta-aware UDF declared to emit only δ updates."""

    name = "upd"
    table_valued = False
    emits_polarity = frozenset({DeltaOp.UPDATE})

    def __call__(self, delta):
        return ()


def _ident(row):
    return row


def _wide_from_narrow(row):
    return (row[0], row[1], row[2])


def test_update_polarity_declines_narrowing():
    """δ-update streams may carry key-only rows narrower than the
    declared width; truncating them would corrupt the stream."""
    updates = PApply(udf_factory=_UpdateEmitter, arg_fn=_ident,
                     delta_aware=True, children=(PScan("t"),))
    wide = PProject.over(updates, _wide_from_narrow)
    ex = PRehash.by(wide, _vkey)
    root = PCollect(children=(PProject.over(ex, _vkey),))
    new_root, decisions = rewrite_plan(root, table_arity={"t": 3})
    assert new_root is root
    declined = [d for d in decisions if d.kind == "narrow-exchange"]
    assert declined and not any(d.applied for d in declined)
    assert any("insert-only" in d.reason for d in declined)


def test_rewrite_report_matches_rewrite_plan():
    """The analyzer's rewrite listing — the pass run on the facts of its
    own inference — is exactly what the executor's pass decides."""
    cluster, plan, _ = _wide_builder()
    arity = cluster.catalog.widths()
    props, _ = infer(plan.root)
    lineage, _ = infer_lineage(plan.root, table_arity=arity)
    _, report = rewrite_with(plan.root, props, lineage, arity)
    _, decisions = rewrite_plan(plan.root, table_arity=arity)
    assert report == decisions
    applied = [d for d in report if d.applied]
    assert {d.kind for d in applied} == {"filter-pushdown",
                                         "narrow-exchange"}
    for d in report:
        assert d.path and d.reason


def test_analyzer_with_catalog_widths_reports_the_applied_rewrites():
    """Given the catalog's widths, ``analyze_physical`` reports REX405 and
    REX406 exactly where the executor's pass applies a rewrite."""
    from repro.analysis import analyze_physical

    _, _, ex = _observe(_wide_builder, rewrite=True)
    cluster, plan, _ = _wide_builder()
    arity = cluster.catalog.widths()
    report = analyze_physical(plan, table_arity=arity)
    found = sorted((d.location, d.code) for d in report.diagnostics
                   if d.code in ("REX405", "REX406"))
    applied = sorted((d.path, "REX405" if d.kind == "filter-pushdown"
                      else "REX406")
                     for d in ex.analysis.rewrites if d.applied)
    assert found == applied
    assert {code for _, code in found} == {"REX405", "REX406"}
