"""REX404-REX406 are the rewrite pass's decisions, and its pre-gate is sound.

The analyzer writes no legality of its own: it runs the rewrite pass on
the facts of its one inference and reports one finding per decision —
declined → REX404, applied ``filter-pushdown`` → REX405, applied
``narrow-exchange`` → REX406.  Over every plan tier-1 builds (the
session plans, every lowerable corpus case, the equivalence workloads,
the wide rewrite workload and the bench plans) the (path, code) pairs
must be exactly the decisions of the full pass on freshly inferred
facts, and where the executor's pass runs it must decide the same.
The structural pre-gate ``_no_candidates`` may skip a plan only if the
full pass would apply nothing to it.
"""

import pytest

from repro.analysis import analyze_physical
from repro.analysis.absint import infer
from repro.analysis.lineage import infer_lineage
from repro.common.errors import ReproError
from repro.optimizer.logical import LNode, table_arity
from repro.optimizer.physical import lower
from repro.optimizer.rewrite import _no_candidates, rewrite_plan, \
    rewrite_with
from repro.runtime.plan import PCollect, PFilter, PProject, PScan

from tests.analysis_corpus import (BAD_CASES, GOOD_CASES, LINEAGE_CASES,
                                   POLARITY_CASES)
from tests.test_analysis_bench_plans import PHYSICAL_BUILDERS
from tests.test_analysis_session_plans import SESSION_PLANS
from tests.test_rewrite_equivalence import _wide_builder

import workloads

REWRITE_CODES = ("REX404", "REX405", "REX406")


def _impure_row(row):
    print(row[0])  # noqa: T201 - impurity is the point
    return (row[0], row[1])


def _pure_pred(row):
    return row[0] > 1


def impure_projection():
    """A pure filter over a projection whose row function prints: the
    pushdown would run the row function on rows the filter drops."""
    return PCollect(children=(
        PFilter(predicate=_pure_pred,
                children=(PProject.over(PScan("t"), _impure_row),)),))


def _catalog_arity(cluster):
    return {n: len(cluster.catalog.get(n).schema.fields)
            for n in cluster.catalog.names()}


def _session_case(name):
    build, query, handler = SESSION_PLANS[name]
    prepared = build().prepare(query, fixpoint_handler=handler)
    arity = table_arity(prepared.node)
    return (prepared.analysis.plan.root, prepared.analysis.report, arity,
            arity)


def _physical_case(root, catalog_arity=None):
    """A hand-built (or hand-lowered) plan: the analyzer has no catalog."""
    return root, analyze_physical(root), None, catalog_arity


def _corpus_case(case):
    plan = case.plan()
    if isinstance(plan, LNode):
        plan = lower(plan).root
    return _physical_case(plan)


def _lowerable(case):
    plan = case.plan()
    if not isinstance(plan, LNode):
        return True
    try:
        lower(plan)
    except ReproError:
        return False
    return True


def _workload_case(name):
    cluster, plan, _ = workloads.build(name)
    return _physical_case(plan.root, _catalog_arity(cluster))


def _wide_case():
    cluster, plan, _ = _wide_builder()
    return _physical_case(plan.root, _catalog_arity(cluster))


#: name -> () -> (root, report, the analysis's table arity, the arity the
#: executor's pass would see)
PLANS = {f"session:{name}": (lambda n=name: _session_case(n))
         for name in SESSION_PLANS}
PLANS.update({f"corpus:{case.name}": (lambda c=case: _corpus_case(c))
              for case in BAD_CASES + GOOD_CASES + LINEAGE_CASES
              + POLARITY_CASES if _lowerable(case)})
PLANS.update({f"workload:{name}": (lambda n=name: _workload_case(n))
              for name in workloads.WORKLOADS})
PLANS.update({f"bench:{name}": (lambda b=build: _physical_case(b().root))
              for name, build in PHYSICAL_BUILDERS.items()})
PLANS["wide"] = _wide_case
PLANS["impure_projection"] = lambda: _physical_case(impure_projection())


def _full_pass(root, arity):
    props, _ = infer(root)
    lineage, _ = infer_lineage(root, table_arity=arity)
    return rewrite_with(root, props, lineage, arity)


def _code(decision):
    if not decision.applied:
        return "REX404"
    return "REX405" if decision.kind == "filter-pushdown" else "REX406"


@pytest.mark.parametrize("name", sorted(PLANS))
def test_diagnostics_are_the_rewrite_decisions(name):
    root, report, arity, _ = PLANS[name]()
    found = sorted((d.location, d.code) for d in report
                   if d.code in REWRITE_CODES)
    _, decisions = _full_pass(root, arity)
    assert found == sorted((d.path, _code(d)) for d in decisions), \
        report.format()
    if not _no_candidates(root):
        assert rewrite_plan(root, table_arity=arity)[1] == decisions


@pytest.mark.parametrize("name", sorted(PLANS))
def test_structural_pregate_is_sound(name):
    root, _, arity, catalog_arity = PLANS[name]()
    if not _no_candidates(root):
        return
    for facts_arity in (arity, catalog_arity):
        new_root, decisions = _full_pass(root, facts_arity)
        assert new_root is root
        assert not [d for d in decisions if d.applied], decisions


def test_pregate_skips_pagerank_but_not_sssp():
    """What the pre-gate's docstring claims about the bench plans."""
    from repro.algorithms.pagerank import pagerank_plan
    from repro.algorithms.sssp import sssp_plan

    assert _no_candidates(pagerank_plan(mode="delta").root)
    assert not _no_candidates(sssp_plan().root)


def test_impure_projection_blocks_the_pushdown():
    """The analyzer names the rewriter's decline instead of licensing a
    move the rewriter refuses."""
    root = impure_projection()
    report = analyze_physical(root)
    assert [(d.code, d.location) for d in report
            if d.code in REWRITE_CODES] == [("REX404", "Collect/Filter")]
    assert "projection row function is not provably pure" in \
        next(d for d in report if d.code == "REX404").message
    new_root, decisions = rewrite_plan(root, table_arity={"t": 2})
    assert new_root is root
    assert [d.applied for d in decisions] == [False]
