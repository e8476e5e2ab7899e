"""The fusion pass: what fuses, what it must decline, and that a fused
chain computes what the unfused chain does.

``ExecOptions(fuse=True)`` changes only host wall-clock time.  The
workload-level identity (rows, ``QueryMetrics.fingerprint`` and sanitizer
verdict, fuse on and off) is a row of ``tests/test_equivalence.py``; here
hand-built fusable plans run fused and unfused, and the pass's legality
decisions are checked directly: stateful operators, exchange boundaries,
and multi-input nodes must terminate a chain, and a single-operator
"chain" must be declined.
"""

from repro.cluster import Cluster
from repro.operators import FusedKernel
from repro.analysis.analyzer import prepare
from repro.optimizer.fusion import fuse_plan
from repro.runtime import (
    ExecOptions,
    PFilter,
    PFused,
    PGroupBy,
    PJoin,
    PProject,
    PRehash,
    PScan,
    PhysicalPlan,
    QueryExecutor,
)
from repro.runtime.plan import PApply
from repro.udf import AggregateSpec, Sum


def _observe(builder, fuse, batch, sanitize="full", obs=None):
    """One fresh run; returns every observable the contract covers."""
    cluster, plan, extra = builder()
    options = ExecOptions(batch=batch, fuse=fuse, sanitize=sanitize,
                          obs=obs, **extra)
    executor = QueryExecutor(cluster, options)
    result = executor.execute(plan)
    violations = (result.sanitizer.report.codes()
                  if result.sanitizer is not None else None)
    return (sorted(result.rows), result.metrics.fingerprint(), violations,
            executor)


# -- hand-built fusable chains ------------------------------------------

def _chain_cluster():
    cluster = Cluster(3)
    rows = [(i, i % 7, float(i)) for i in range(200)]
    cluster.create_table("t", ["id:Integer", "g:Integer", "v:Double"],
                         rows, "id")
    return cluster, rows


def _chain_plan():
    """Scan -> Filter -> Project -> Apply: a maximal 3-op fusable chain."""
    chain = PApply(udf_factory=lambda: (lambda v: v * 2.0),
                   arg_fn=lambda r: (r[2],), mode="extend",
                   children=(PProject.over(
                       PFilter(predicate=lambda r: r[1] != 3, children=(PScan("t"),)),
                       lambda r: (r[0], r[1], r[2] + 1.0)),))
    return PhysicalPlan(chain)


def test_custom_chain_fuses_and_matches_unfused():
    def builder():
        cluster, _ = _chain_cluster()
        return cluster, _chain_plan(), {}

    results = {}
    for fuse in (True, False):
        rows, fp, _, executor = _observe(builder, fuse, batch=True,
                                         sanitize="off")
        results[fuse] = (rows, fp)
        fused_decisions = [d for d in executor.analysis.fusion if d.fused]
        if fuse:
            assert len(fused_decisions) == 1
            assert fused_decisions[0].ops == ("Filter", "Project", "Apply")
            assert fused_decisions[0].label() == "Fused[Filter→Project→Apply]"
        else:
            assert executor.analysis.fusion == []
    assert results[True] == results[False]
    _, rows200 = _chain_cluster()
    expect = sorted((r[0], r[1], r[2] + 1.0, (r[2] + 1.0) * 2.0)
                    for r in rows200 if r[1] != 3)
    assert results[True][0] == expect


def test_custom_chain_under_obs_reports_fusion_groups():
    """Under obs the kernel stays fused — it counts the same batches as an
    unobserved run — and surfaces the group through
    ObsContext.fusion_groups()."""
    from repro.obs import ObsContext, Tracer

    def chain():
        cluster, _ = _chain_cluster()
        return cluster, _chain_plan(), {}

    obs = ObsContext(tracer=Tracer(enabled=False))
    try:
        rows_obs, fp_obs, _, _ = _observe(chain, fuse=True, batch=True,
                                          sanitize="off", obs=obs)
        groups = obs.fusion_groups()
    finally:
        obs.close()
    assert groups, "fused kernel missing from fusion_groups()"
    assert all(g["label"] == "Fused[Filter→Project→Apply]" for g in groups)
    for g in groups:
        assert [c.split("(", 1)[0] for c in g["constituents"]] == \
            ["Filter", "Project", "Apply"]
    fused_batches = sum(g["fused_batches"] for g in groups)
    assert fused_batches > 0
    rows_plain, fp_plain, _, executor = _observe(chain, fuse=True,
                                                 batch=True, sanitize="off")
    assert rows_obs == rows_plain
    assert fp_obs == fp_plain
    assert fused_batches == sum(
        op.fused_batches for wp in executor.worker_plans.values()
        for op in wp.operators if isinstance(op, FusedKernel))


def test_chain_feeding_rehash_fuses_local_half():
    """A chain below an exchange fuses into the sender's local pipeline:
    the rehash's child becomes the PFused node."""
    def builder():
        cluster, _ = _chain_cluster()
        plan = PhysicalPlan(PGroupBy(
            key_fn=lambda r: (r[1],),
            specs_factory=lambda: [AggregateSpec(Sum(),
                                                 arg=lambda r: r[2])],
            children=(PRehash.by(
                PProject.over(
                    PFilter(predicate=lambda r: r[1] != 3, children=(PScan("t"),)),
                    lambda r: (r[0], r[1], r[2] * 2.0)),
                lambda r: (r[1],)),),
        ))
        return cluster, plan, {}

    _, plan, _ = builder()
    fused_root, decisions = fuse_plan(plan.root)
    rehash = fused_root.children[0].children[0]  # Collect / GroupBy / Rehash
    assert isinstance(rehash, PRehash)
    assert isinstance(rehash.children[0], PFused)
    assert [d.fused for d in decisions] == [True]
    assert "exchange" not in decisions[0].reason  # chain is *below* it

    rows_fused, fp_fused, _, _ = _observe(builder, True, True, "off")
    rows_plain, fp_plain, _, _ = _observe(builder, False, True, "off")
    assert rows_fused == rows_plain
    assert fp_fused == fp_plain


# -- legality: where the pass must decline ------------------------------

def test_single_stateless_operator_declined():
    root = PProject.over(PScan("t"), lambda r: r)
    fused_root, decisions = fuse_plan(root)
    assert fused_root is root  # identity-preserving: nothing rewritten
    assert len(decisions) == 1
    assert not decisions[0].fused
    assert "single stateless operator" in decisions[0].reason
    assert decisions[0].to_dict()["label"] is None


def test_stateful_operator_breaks_chain():
    """Project / GroupBy / Project: two length-1 fragments, both declined
    — the pass must not fuse across the stateful operator."""
    root = PProject.over(
        PGroupBy(key_fn=lambda r: (r[0],),
                 specs_factory=lambda: [AggregateSpec(Sum(),
                                                      arg=lambda r: r[1])],
                 children=(PProject.over(PScan("t"), lambda r: r),)),
        lambda r: r)
    fused_root, decisions = fuse_plan(root)
    assert not any(d.fused for d in decisions)
    assert len(decisions) == 2
    assert not any(isinstance(n, PFused) for n in fused_root.walk())


def test_exchange_boundary_terminates_chain():
    root = PFilter(
        predicate=lambda r: True,
        children=(PProject.over(PRehash.by(PScan("t"), lambda r: (r[0],)),
                                lambda r: r),))
    _, decisions = fuse_plan(root)
    assert len(decisions) == 1
    assert decisions[0].fused
    assert "exchange boundary (Rehash)" in decisions[0].reason


def test_multi_input_operator_terminates_chain():
    join = PJoin(left_key=lambda r: (r[0],), right_key=lambda r: (r[0],),
                 children=(PScan("a"), PScan("b")))
    root = PProject.over(PFilter(predicate=lambda r: True, children=(join,)),
                         lambda r: r)
    _, decisions = fuse_plan(root)
    assert len(decisions) == 1
    assert decisions[0].fused
    assert decisions[0].ops == ("Filter", "Project")
    assert "stateful or source operator (Join)" in decisions[0].reason


def test_prepared_fusion_matches_fuse_plan():
    plan = _chain_plan()
    report = [d.to_dict() for d in prepare(plan).fusion]
    assert report == [d.to_dict() for d in fuse_plan(plan.root)[1]]
    assert len(report) == 1
    assert report[0]["fused"] is True
    assert report[0]["ops"] == ["Filter", "Project", "Apply"]
    assert report[0]["label"] == "Fused[Filter→Project→Apply]"


def test_prepared_fusion_is_what_the_run_fuses():
    """The analyzer reports fusion after the rewrites, as the executor
    applies it: on the wide plan the filter pushed below the exchange
    and the narrowing projection fuse into one kernel, a chain the
    unrewritten plan does not have."""
    from repro.analysis.analyzer import analyze_plan
    from repro.obs import ObsContext, Tracer
    from test_rewrite_equivalence import _wide_builder

    cluster, plan, extra = _wide_builder()
    analysis = analyze_plan(plan, cluster.catalog.widths())
    fused = [d for d in analysis.fusion if d.fused]
    assert [(d.path, d.label()) for d in fused] == [
        ("Collect/Fixpoint/Rehash/Project/Join/Rehash/Project",
         "Fused[Filter→Project]")]
    assert not any(d.fused for d in fuse_plan(plan.root)[1])
    obs = ObsContext(tracer=Tracer(enabled=False))
    try:
        result = QueryExecutor(cluster, ExecOptions(obs=obs, **extra)
                               ).execute(analysis)
    finally:
        obs.close()
    assert result.analysis is analysis
    kernels = [g["label"] for g in obs.fusion_groups() if g["node"] == 0]
    assert kernels == [d.label() for d in fused]


def test_pfused_walk_covers_constituents():
    fused_root, _ = fuse_plan(_chain_plan().root)  # PCollect over the chain
    fused = fused_root.children[0]
    assert isinstance(fused, PFused)
    kinds = [type(n).__name__ for n in fused.walk()]
    assert kinds == ["PFused", "PFilter", "PProject", "PApply", "PScan"]
