"""EXPLAIN ANALYZE report content and attribution coverage."""

import pytest

from repro.cluster import CostModel, Worker
from repro.obs import ObsContext, Tracer, attribution_coverage, explain_analyze
from repro.obs.context import _WORKER_CHARGE_METHODS

from workloads import pagerank_delta, run


@pytest.fixture(scope="module")
def traced_run():
    obs = ObsContext()
    metrics = run(pagerank_delta(80), obs=obs).metrics
    return obs, metrics


class TestCostTable:
    def test_lists_operators_with_cost_share(self, traced_run):
        obs, metrics = traced_run
        report = explain_analyze(obs, metrics)
        assert "EXPLAIN ANALYZE" in report
        assert "sim_s" in report and "sim_%" in report
        # the PageRank plan's heavy hitters show up by name
        assert "Fixpoint" in report
        assert "GroupBy" in report or "Rehash" in report

    def test_checkpoint_work_appears_as_system_row(self, traced_run):
        obs, metrics = traced_run
        report = explain_analyze(obs, metrics)
        assert "(checkpoint)" in report

    def test_attribution_coverage_meets_acceptance_bar(self, traced_run):
        obs, _ = traced_run
        coverage = attribution_coverage(obs)
        assert coverage >= 0.95
        # with system frames for checkpoint/recovery the coverage is total
        assert coverage == pytest.approx(1.0)
        report = explain_analyze(obs)
        assert "100.0%" in report
        assert "(unattributed)" not in report

    def test_share_column_sums_to_total(self, traced_run):
        obs, _ = traced_run
        attributed, unattributed = obs.attribution()
        total = attributed + unattributed
        assert total > 0
        assert sum(s.sim_seconds for s in obs.operator_stats()) \
            == pytest.approx(attributed)


class TestChargeAttribution:
    def test_every_worker_charge_is_attributed(self):
        """Every ``Worker.charge_*`` reports to the frame stack, so no
        charged second escapes attribution — the bulk punctuation
        fanout's ``charge_net_out_fanout`` included."""
        assert set(_WORKER_CHARGE_METHODS) == {
            name for name in dir(Worker) if name.startswith("charge_")}
        worker = Worker(0, CostModel())
        obs = ObsContext(tracer=Tracer(enabled=False), telemetry=False)
        obs.instrument_worker(worker)
        seconds = worker.charge_net_out_fanout(16, 3)
        assert seconds > 0
        assert obs.unattributed_seconds == seconds


class TestTimeline:
    def test_stratum_rows_track_query_metrics(self, traced_run):
        obs, metrics = traced_run
        report = explain_analyze(obs, metrics)
        assert "per-stratum timeline" in report
        for it in metrics.iterations:
            assert f"{it.seconds:.4f}" in report
        assert f"total: {metrics.total_seconds():.4f}s" in report
        assert f"{metrics.total_bytes()} bytes shuffled" in report

    def test_timeline_omitted_without_metrics(self, traced_run):
        obs, _ = traced_run
        report = explain_analyze(obs)
        assert "per-stratum timeline" not in report


class TestOptions:
    def test_per_node_splits_instances(self, traced_run):
        obs, _ = traced_run
        merged = explain_analyze(obs)
        split = explain_analyze(obs, per_node=True)
        assert "@n0" not in merged
        assert "@n0" in split and "@n1" in split

    def test_top_truncates_and_reports_remainder(self, traced_run):
        obs, _ = traced_run
        report = explain_analyze(obs, top=2)
        assert "more operators)" in report
        # rows are cost-sorted, so the top operator survives truncation
        full = explain_analyze(obs)
        top_operator = full.splitlines()[3].split()[0]
        assert top_operator in report
