"""Metrics export: OpenMetrics exposition, JSON dumps, sparklines, CLI."""

import json

from repro.obs.export import (SPARK_CHARS, metric_name, openmetrics,
                              registry_json, sparkline)
from repro.obs.registry import MetricsRegistry


def _populated_registry():
    reg = MetricsRegistry()
    reg.counter("checkpoint.rows_restored").inc(3)
    reg.gauge("sanitizer.overhead_seconds").set(1.5)
    s = reg.series("stratum.delta_count")
    s.append(0, 10)
    s.append(1, 4)
    return reg


class TestMetricName:
    def test_dots_become_underscores(self):
        assert (metric_name("node.n0.stratum_seconds")
                == "node_n0_stratum_seconds")

    def test_arbitrary_runes_are_mapped(self):
        assert (metric_name("net.exchange.x0.a7/bytes")
                == "net_exchange_x0_a7_bytes")

    def test_leading_digit_is_prefixed(self):
        assert metric_name("0bad").startswith("_")


class TestOpenMetrics:
    def test_counter_rendering(self):
        text = openmetrics(_populated_registry())
        assert "# TYPE checkpoint_rows_restored counter" in text
        assert "checkpoint_rows_restored_total 3" in text

    def test_gauge_rendering(self):
        text = openmetrics(_populated_registry())
        assert "# TYPE sanitizer_overhead_seconds gauge" in text
        assert "sanitizer_overhead_seconds 1.5" in text

    def test_series_exposes_every_ring_point(self):
        text = openmetrics(_populated_registry())
        assert 'stratum_delta_count{index="0"} 10' in text
        assert 'stratum_delta_count{index="1"} 4' in text

    def test_terminator_and_prefix_filter(self):
        reg = _populated_registry()
        reg.counter("op.n0.tuples_in").inc()
        text = openmetrics(reg, prefix="stratum.")
        assert text.endswith("# EOF\n")
        assert "op_n0_tuples_in" not in text
        assert openmetrics(MetricsRegistry()) == "# EOF\n"

    def test_registry_json_round_trips(self):
        doc = json.loads(registry_json(_populated_registry()))
        assert doc["checkpoint.rows_restored"] == 3
        assert doc["stratum.delta_count"] == [[0, 10], [1, 4]]


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series_is_flat(self):
        assert sparkline([5, 5, 5]) == SPARK_CHARS[0] * 3

    def test_min_and_max_hit_the_ramp_ends(self):
        line = sparkline([0, 1, 2, 3])
        assert line[0] == SPARK_CHARS[0]
        assert line[-1] == SPARK_CHARS[-1]
        assert len(line) == 4

    def test_downsampling_preserves_spikes(self):
        values = [1.0] * 64
        values[37] = 100.0
        line = sparkline(values, width=8)
        assert len(line) == 8
        assert SPARK_CHARS[-1] in line  # the spike survives bucket-max

    def test_no_downsampling_when_short_enough(self):
        assert len(sparkline([1, 2, 3], width=10)) == 3


class TestCliTelemetry:
    def _run(self, tmp_path, capsys, *extra):
        from repro.cli import main

        out = tmp_path / "metrics.txt"
        rc = main(["telemetry", "--workload", "kmeans", "--nodes", "2",
                   "--scale", "30", "--out", str(out), *extra])
        captured = capsys.readouterr()
        return rc, out, captured

    def test_openmetrics_output(self, tmp_path, capsys):
        rc, out, _ = self._run(tmp_path, capsys)
        assert rc == 0
        text = out.read_text()
        assert text.endswith("# EOF\n")
        assert "stratum_delta_count" in text
        assert "node_n1_stratum_seconds" in text
        assert "telemetry_" not in text

    def test_json_output(self, tmp_path, capsys):
        rc, out, _ = self._run(tmp_path, capsys, "--format", "json")
        assert rc == 0
        doc = json.loads(out.read_text())
        assert "stratum.tuples_processed" in doc
        assert not [n for n in doc if n.startswith("telemetry.")]
