"""Unit tests for query metrics and byte-size estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import QueryMetrics
from repro.common.sizes import row_bytes, value_bytes


class TestQueryMetrics:
    def make(self):
        m = QueryMetrics(startup_seconds=1.0, num_nodes=4)
        for s, (secs, b, d) in enumerate([(2.0, 100, 5), (1.0, 50, 3),
                                          (0.5, 10, 0)]):
            it = m.begin_iteration(s)
            it.seconds = secs
            it.bytes_sent = b
            it.delta_count = d
        return m

    def test_totals(self):
        m = self.make()
        assert m.total_seconds() == pytest.approx(4.5)
        assert m.total_bytes() == 160
        assert m.num_iterations == 3

    def test_cumulative_series_includes_startup(self):
        m = self.make()
        assert m.cumulative_seconds() == pytest.approx([3.0, 4.0, 4.5])

    def test_delta_series(self):
        assert self.make().delta_series() == [5, 3, 0]

    def test_recovery_added(self):
        m = self.make()
        m.recovery_seconds = 2.0
        assert m.total_seconds() == pytest.approx(6.5)
        assert m.cumulative_seconds()[0] == pytest.approx(5.0)

    def test_avg_bandwidth(self):
        m = self.make()
        assert m.avg_bandwidth_per_node() == pytest.approx(
            160 / 4 / 4.5)

    def test_empty_metrics_safe(self):
        m = QueryMetrics()
        assert m.total_seconds() == 0.0
        assert m.avg_bandwidth_per_node() == 0.0
        assert m.cumulative_seconds() == []

    def test_recovery_reaches_cumulative_and_total_consistently(self):
        # recovery time charged to the query must land in both views:
        # the last cumulative point equals total_seconds.
        m = self.make()
        m.recovery_seconds = 2.0
        assert m.cumulative_seconds()[-1] == pytest.approx(
            m.total_seconds())

    def test_bandwidth_with_startup_but_no_iterations(self):
        # duration > 0 but zero bytes: well-defined 0.0, not an error
        m = QueryMetrics(startup_seconds=1.5, num_nodes=4)
        assert m.avg_bandwidth_per_node() == 0.0

    def test_bandwidth_zero_nodes_guarded(self):
        m = self.make()
        m.num_nodes = 0
        assert m.avg_bandwidth_per_node() == 0.0

    def test_fingerprint_digests_per_iteration_state(self):
        a, b = self.make(), self.make()
        assert a.fingerprint() == b.fingerprint()
        b.iterations[1].delta_count += 1
        assert a.fingerprint() != b.fingerprint()

    def test_fingerprint_ignores_wall_clock_only_fields(self):
        # node count and result rows are presentation-side; the simulator
        # contract covers iteration structure and simulated seconds.
        a, b = self.make(), self.make()
        b.num_nodes = 99
        b.result_rows = 123
        assert a.fingerprint() == b.fingerprint()


class TestSizes:
    def test_scalars(self):
        assert value_bytes(None) == 1
        assert value_bytes(True) == 1
        assert value_bytes(42) == 8
        assert value_bytes(3.14) == 8
        assert value_bytes("abcd") == 4

    def test_unicode_strings_use_utf8_length(self):
        assert value_bytes("héllo") == len("héllo".encode("utf-8"))

    def test_collections_recurse(self):
        assert value_bytes((1, 2)) == 4 + 16
        assert value_bytes([1, 2, 3]) == 4 + 24
        assert value_bytes({1: 2}) > 8

    def test_opaque_objects_flat_envelope(self):
        assert value_bytes(object()) == 16

    def test_row_bytes_framing(self):
        assert row_bytes((1,)) == 4 + 8
        assert row_bytes((True,)) == 4 + 1  # in this order: True == 1
        assert row_bytes(()) == 4

    @given(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False),
                              st.text(max_size=10)), max_size=8))
    def test_row_bytes_positive_and_monotone(self, values):
        row = tuple(values)
        assert row_bytes(row) >= 4
        assert row_bytes(row + (1,)) > row_bytes(row)
