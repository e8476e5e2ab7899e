"""Diagnostic objects: the code catalog, report queries, rendering."""

import json

import pytest

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticReport,
    Severity,
    make,
)


class TestCatalog:
    def test_codes_are_stable_and_well_formed(self):
        for code, (severity, title) in CODES.items():
            assert code.startswith("REX") and len(code) == 6
            assert isinstance(severity, Severity)
            assert title

    def test_plan_and_lint_ranges(self):
        assert {c for c in CODES if c.startswith("REX0")} == {
            "REX001", "REX002", "REX003", "REX004",
            "REX005", "REX006", "REX007", "REX008"}
        assert {c for c in CODES if c.startswith("REX1")} == {
            "REX100", "REX101", "REX102", "REX103", "REX104", "REX105",
            "REX106", "REX107"}
        assert {c for c in CODES if c.startswith("REX2")} == {
            "REX200", "REX201", "REX202", "REX203", "REX204",
            "REX205", "REX206"}
        assert {c for c in CODES if c.startswith("REX4")} == {
            "REX400", "REX401", "REX402", "REX403", "REX404",
            "REX405", "REX406", "REX407"}

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic("REX999", "nope")


class TestDiagnostic:
    def test_make_uses_catalog_default_severity(self):
        assert make("REX001", "x").severity is Severity.ERROR
        assert make("REX006", "x").severity is Severity.WARNING

    def test_make_severity_override(self):
        d = make("REX005", "x", severity=Severity.INFO)
        assert d.severity is Severity.INFO

    def test_format_contains_code_location_hint(self):
        d = make("REX005", "not partitioned", location="GroupBy",
                 hint="add a rehash")
        text = d.format()
        assert "REX005" in text and "GroupBy" in text \
            and "add a rehash" in text


class TestReport:
    def _report(self):
        r = DiagnosticReport()
        r.add(make("REX006", "warn one"))
        r.add(make("REX001", "err one"))
        r.add(make("REX007", "warn two"))
        return r

    def test_queries(self):
        r = self._report()
        assert len(r) == 3 and bool(r)
        assert r.has_errors()
        assert [d.code for d in r.errors] == ["REX001"]
        assert len(r.warnings) == 2
        assert r.codes() == ["REX001", "REX006", "REX007"]

    def test_sorted_puts_errors_first(self):
        ordered = self._report().sorted()
        assert [d.code for d in ordered][0] == "REX001"

    def test_identical_triples_deduplicated(self):
        r = self._report()
        r.add(make("REX006", "warn one"))          # exact duplicate
        r.extend([make("REX006", "warn one")])     # via extend too
        assert len(r) == 3
        r.add(make("REX006", "warn one", location="Scan"))  # new location
        assert len(r) == 4

    def test_dedup_keeps_first_severity_and_hint(self):
        from repro.analysis.diagnostics import Severity

        r = DiagnosticReport()
        r.add(make("REX005", "x", severity=Severity.INFO, hint="keep me"))
        r.add(make("REX005", "x"))  # catalog default would be WARNING
        (diag,) = list(r)
        assert diag.severity is Severity.INFO
        assert diag.hint == "keep me"

    def test_sorted_is_stable_within_severity(self):
        r = self._report()
        ordered = r.sorted()
        assert [d.code for d in ordered] == ["REX001", "REX006", "REX007"]

    def test_format_summarizes(self):
        text = self._report().format()
        assert "1 error(s)" in text and "2 warning(s)" in text

    def test_empty_report(self):
        r = DiagnosticReport()
        assert not r and not r.has_errors()
        assert r.format() == "no diagnostics"

    def test_json_round_trips(self):
        payload = json.loads(self._report().to_json())
        assert payload["summary"] == {
            "total": 3, "errors": 1, "warnings": 2}
        assert payload["diagnostics"][0]["code"] == "REX001"
        assert set(payload["diagnostics"][0]) == {
            "code", "severity", "message", "location", "hint"}
