"""The analyzer must detect every seeded-bad plan with its expected code,
and stay quiet (no error-level findings) on the good plans."""

import pytest

from repro.analysis import analyze

from tests.analysis_corpus import (
    BAD_CASES,
    GOOD_CASES,
    LINEAGE_CASES,
    POLARITY_CASES,
)


@pytest.mark.parametrize("case", BAD_CASES, ids=lambda c: c.name)
def test_bad_case_detected(case):
    report = analyze(case.plan())
    found = set(report.codes())
    missing = case.expected - found
    assert not missing, (
        f"{case.name}: expected codes {sorted(case.expected)}, analyzer "
        f"reported {sorted(found)}:\n{report.format()}")


@pytest.mark.parametrize("case", BAD_CASES, ids=lambda c: c.name)
def test_bad_case_diagnostics_carry_location_and_hint(case):
    report = analyze(case.plan())
    for code in case.expected:
        for diag in [d for d in report if d.code == code]:
            assert diag.location, f"{case.name}: {code} without a location"
            assert diag.message


@pytest.mark.parametrize("case", GOOD_CASES, ids=lambda c: c.name)
def test_good_case_has_no_errors(case):
    report = analyze(case.plan())
    assert not report.has_errors(), (
        f"{case.name} should be clean but got:\n{report.format()}")


@pytest.mark.parametrize("case", POLARITY_CASES, ids=lambda c: c.name)
def test_polarity_verdict_reported(case):
    report = analyze(case.plan())
    found = set(report.codes())
    missing = case.expected - found
    assert not missing, (
        f"{case.name}: expected codes {sorted(case.expected)}, analyzer "
        f"reported {sorted(found)}:\n{report.format()}")


@pytest.mark.parametrize("case", POLARITY_CASES, ids=lambda c: c.name)
def test_polarity_diagnostics_carry_location(case):
    report = analyze(case.plan())
    for code in case.expected:
        diags = [d for d in report if d.code == code]
        assert diags, f"{case.name}: no {code} diagnostics"
        for diag in diags:
            assert diag.location, f"{case.name}: {code} without a location"
            assert diag.message


def test_every_polarity_code_has_a_case():
    """Each REX30x verdict is anchored by at least one corpus case.
    REX307 is excluded: it is emitted only at runtime by the sanitizer
    when an observed delta contradicts a static proof."""
    covered = set()
    for case in POLARITY_CASES:
        covered |= case.expected
    from repro.analysis.diagnostics import CODES
    polarity_codes = {c for c in CODES
                      if c.startswith("REX3")} - {"REX307"}
    assert polarity_codes <= covered, polarity_codes - covered


@pytest.mark.parametrize("case", LINEAGE_CASES, ids=lambda c: c.name)
def test_lineage_verdict_reported(case):
    report = analyze(case.plan())
    found = set(report.codes())
    missing = case.expected - found
    assert not missing, (
        f"{case.name}: expected codes {sorted(case.expected)}, analyzer "
        f"reported {sorted(found)}:\n{report.format()}")


@pytest.mark.parametrize("case", LINEAGE_CASES, ids=lambda c: c.name)
def test_lineage_diagnostics_carry_location(case):
    report = analyze(case.plan())
    for code in case.expected:
        diags = [d for d in report if d.code == code]
        assert diags, f"{case.name}: no {code} diagnostics"
        for diag in diags:
            assert diag.location, f"{case.name}: {code} without a location"
            assert diag.message


def test_every_lineage_code_has_a_case():
    """Each REX40x verdict is anchored by at least one corpus case."""
    covered = set()
    for case in LINEAGE_CASES:
        covered |= case.expected
    from repro.analysis.diagnostics import CODES
    lineage_codes = {c for c in CODES if c.startswith("REX4")}
    assert lineage_codes <= covered, lineage_codes - covered


def test_every_plan_code_has_a_bad_case():
    """Each published REX0xx plan code is anchored by at least one case."""
    covered = set()
    for case in BAD_CASES:
        covered |= case.expected
    from repro.analysis.diagnostics import CODES
    plan_codes = {c for c in CODES if c.startswith("REX0")}
    assert plan_codes <= covered, plan_codes - covered
