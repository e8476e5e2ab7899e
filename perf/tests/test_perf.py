"""Self-test of the benchmark (not part of tier-1):

    python -m pytest perf/tests -q
"""

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

import compare
import harness
import spans
from repro.runtime import ExecOptions

PERF = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPO = os.path.dirname(PERF)
RUN = os.path.join(PERF, "run.py")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

with open(os.path.join(REPO, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args):
    return subprocess.run([sys.executable, RUN, *args], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def smoke(workload, trace):
    """One smoke run: (the driver's result object, the detail report)."""
    done = run_py("--workload", workload, "--smoke", "--seed", "11",
                  "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    stem = "trace" if trace else "run"
    with open(os.path.join(PERF, "out", f"{stem}_{workload}.json")) as handle:
        return result, json.load(handle)


@pytest.fixture(scope="module")
def traced():
    return {w: smoke(w, 1) for w in WORKLOADS}


def test_spec_names_and_caps():
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert all(NAME.match(n) for n in names), names
    assert len(set(names)) == len(names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert sorted(WORKLOADS) == sorted(harness.BY_NAME)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_schema(workload):
    result, _detail = smoke(workload, 0)
    assert set(result) == RESULT_KEYS
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_result_schema(traced):
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, (result, _detail) in traced.items():
        assert set(result) == RESULT_KEYS, workload
        assert result["correct"] is True, workload
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted, workload


def test_module_shares_sum_to_one(traced):
    for workload, (result, _detail) in traced.items():
        total = sum(result["metrics"][name]["value"]
                    for name in spans.SHARE_NAMES)
        assert total == pytest.approx(1.0, abs=0.01), workload


def test_child_spans_lie_inside_their_parent(traced):
    for workload, (_result, report) in traced.items():
        for tree in (report["detail"]["spans"],
                     report["detail"]["outer_spans"]):
            by_id = {s["id"]: s for s in tree}
            for s in tree:
                assert s["start"] <= s["end"]
                if s["parent"] is not None:
                    parent = by_id[s["parent"]]
                    assert parent["start"] <= s["start"], (workload, s)
                    assert s["end"] <= parent["end"], (workload, s)
        lifecycle = report["detail"]["spans"]
        assert [s["name"] for s in lifecycle
                if s["parent"] is None] == ["lifecycle"], workload
        assert {"cluster.load", "runtime.execute"} <= {
            s["name"] for s in lifecycle if s["parent"] == 0}, workload


def test_exact_counts_repeat(traced):
    for workload, (first, _detail) in traced.items():
        again, _ = smoke(workload, 1)
        for name in compare.EXACT:
            assert (again["metrics"][name]["value"]
                    == first["metrics"][name]["value"]), (workload, name)


def _checked(workload, run):
    """Run one lifecycle of ``workload`` with ``run`` swapped in."""
    inputs = workload.build(3, harness.SMOKE_SCALE)
    checker = harness.Checker(dataclasses.replace(workload, run=run),
                              workload.reference(inputs), None)

    def make_options():
        return ExecOptions(**workload.exec_defaults)

    checker.run(inputs, make_options, spans.NullTracer())
    return checker, inputs, make_options


def test_corrupted_row_is_a_failed_operation():
    workload = harness.BY_NAME["sssp_tail"]

    def corrupt(cluster, inputs, make_options, tracer):
        executed = workload.run(cluster, inputs, make_options, tracer)
        rows = executed[0].result.rows
        rows[0] = rows[0][:2] + (rows[0][2] + 1.0,)
        return executed

    checker, _inputs, _options = _checked(workload, corrupt)
    assert (checker.attempted, checker.failed) == (1, 1)
    assert "BFS" in checker.failures[0]


def test_repetition_that_differs_is_a_failed_operation():
    workload = harness.BY_NAME["pagerank_delta"]
    nudge = [0.0]

    def drifting(cluster, inputs, make_options, tracer):
        executed = workload.run(cluster, inputs, make_options, tracer)
        rows = executed[0].result.rows
        rows[0] = (rows[0][0], rows[0][1] + nudge[0])  # within tolerance
        return executed

    checker, inputs, make_options = _checked(workload, drifting)
    assert (checker.attempted, checker.failed) == (1, 0)
    nudge[0] = 1e-9
    checker.run(inputs, make_options, spans.NullTracer())
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "differs from the first" in checker.failures[0]


def test_exception_is_a_failed_operation():
    workload = harness.BY_NAME["tpch_agg_rql"]

    def broken(cluster, inputs, make_options, tracer):
        raise RuntimeError("boom")

    checker, _inputs, _options = _checked(workload, broken)
    assert (checker.attempted, checker.failed) == (3, 3)


def test_golden_mismatch_names_the_key():
    seen = {"strata": 3, "tuples_processed": 10, "bytes_sent": 5,
            "result_rows": 1, "sim_s": 1.5}
    assert harness.golden_mismatch(seen, dict(seen)) is None
    assert "bytes_sent" in harness.golden_mismatch(
        seen, dict(seen, bytes_sent=6))
    assert "sim_s" in harness.golden_mismatch(seen, dict(seen, sim_s=1.5001))


def test_golden_covers_every_workload():
    with open(harness.GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(golden) == sorted(WORKLOADS)
    assert all(sorted(g) == sorted(harness.GOLDEN_KEYS)
               for g in golden.values())


def test_options_are_typed_and_checked():
    assert harness.parse_overrides(["fuse=false", "max_strata=9"]) == {
        "fuse": False, "max_strata": 9}
    with pytest.raises(ValueError):
        harness.parse_overrides(["no_such_option=1"])
    with pytest.raises(ValueError):
        harness.parse_overrides(["fuse=maybe"])


def test_non_default_runs_are_refused_as_baseline():
    done = run_py("--smoke", "--out",
                  os.path.join(PERF, "baseline", "nope.json"))
    assert done.returncode == 2 and "refused" in done.stderr
    assert not os.path.exists(os.path.join(PERF, "baseline", "nope.json"))


def _set(median, spread=0.01, values=None, value=100):
    return {"schema": "rex-perf/1", "seed": 7, "runs": 1, "smoke": False,
            "options": [], "workloads": {"w": {
                "end_to_end": {"query_s": {
                    "unit": "s", "better": "lower", "bound": 0.1,
                    "median": median, "spread": spread,
                    "values": values or [median]}},
                "per_layer": {
                    "runtime.strata": {"unit": "count", "better": "lower",
                                       "value": value},
                    "runtime.execute_s": {"unit": "s", "better": "lower",
                                          "value": median}}}}}


def test_compare_verdicts():
    def verdicts(a, b):
        return {row[1]: row[4] for row in compare.compare(a, b)}

    assert verdicts(_set(1.0), _set(1.05)) == {
        "query_s": "unchanged", "runtime.strata": "unchanged",
        "runtime.execute_s": "info"}
    assert verdicts(_set(1.0), _set(1.2))["query_s"] == "worse"
    assert verdicts(_set(1.0), _set(0.8))["query_s"] == "better"
    assert verdicts(_set(1.0, spread=0.2, values=[0.9, 1.1]),
                    _set(1.05, values=[1.0, 1.1]))["query_s"] == "unresolved"
    assert verdicts(_set(1.0, spread=0.2, values=[0.9, 1.1]),
                    _set(1.5, values=[1.4, 1.6]))["query_s"] == "worse"
    assert verdicts(_set(1.0), _set(1.0, value=101))["runtime.strata"] == "worse"
