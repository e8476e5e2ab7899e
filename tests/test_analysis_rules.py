"""Focused rule-pass behaviors the corpus doesn't pin: partitioning
propagation through projections and pre-aggregation, broadcast handling,
and warning-vs-error boundaries."""

from repro.analysis import analyze_logical
from repro.analysis.diagnostics import Severity
from repro.common.schema import Field as F
from repro.common.schema import SQLType
from repro.operators.expressions import ColumnRef
from repro.optimizer.logical import LGroupBy, LProject, LRehash
from repro.udf.builtins import Sum

from tests.analysis_corpus import (
    _edges,
    good_fixpoint,
    missing_rehash,
    union_all_no_contraction,
)
from repro.optimizer.logical import LAggCall


def _sum_groupby(child, key=0, col="weight"):
    return LGroupBy(
        child, [key],
        [LAggCall("sum", Sum, [ColumnRef(col)],
                  [F("total", SQLType.DOUBLE)], composable=True)])


class TestMissingRehash:
    def test_missing_rehash_is_an_error(self):
        report = analyze_logical(missing_rehash())
        assert any(d.code == "REX005"
                   and d.severity is Severity.ERROR for d in report)


class TestPartitioningPropagation:
    def test_projection_preserves_partitioning_positionally(self):
        scan = _edges(partition_key=0)
        proj = LProject(scan, [
            (ColumnRef("weight"), F("w", SQLType.DOUBLE)),
            (ColumnRef("srcId"), F("node", SQLType.INTEGER)),
        ])
        report = analyze_logical(_sum_groupby(proj, key=1, col="w"))
        assert "REX005" not in report.codes()

    def test_projection_dropping_the_key_loses_partitioning(self):
        scan = _edges(partition_key=0)
        proj = LProject(scan, [
            (ColumnRef("weight"), F("w", SQLType.DOUBLE)),
            (ColumnRef("destId"), F("d", SQLType.INTEGER)),
        ])
        report = analyze_logical(_sum_groupby(proj, key=1, col="w"))
        assert "REX005" in report.codes()

    def test_broadcast_does_not_satisfy_keyed_requirement(self):
        bcast = LRehash(_edges(), None, broadcast=True)
        report = analyze_logical(_sum_groupby(bcast))
        assert "REX005" in report.codes()

    def test_gather_of_gather_is_redundant(self):
        inner = LRehash(_edges(), None)
        outer = LRehash(inner, None)
        report = analyze_logical(
            LGroupBy(outer, [], [LAggCall(
                "sum", Sum, [ColumnRef("weight")],
                [F("total", SQLType.DOUBLE)], composable=True)]))
        assert "REX006" in report.codes()


class TestSeverityBoundaries:
    def test_union_all_without_contraction_is_warning_not_error(self):
        report = analyze_logical(union_all_no_contraction())
        hits = [d for d in report if d.code == "REX002"]
        assert hits and all(d.severity is Severity.WARNING for d in hits)
        assert not report.has_errors()

    def test_good_fixpoint_is_error_free(self):
        report = analyze_logical(good_fixpoint())
        assert not report.has_errors()

    def test_diagnostic_locations_are_label_paths(self):
        report = analyze_logical(missing_rehash())
        locations = [d.location for d in report if d.code == "REX005"]
        assert locations and all("GroupBy" in loc for loc in locations)
