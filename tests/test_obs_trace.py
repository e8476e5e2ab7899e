"""Tracer, sinks and export formats."""

import io
import json

import pytest

from repro.obs import (
    JsonlSink,
    ObsContext,
    RingBufferSink,
    TraceEvent,
    Tracer,
    chrome_trace,
    validate_jsonl,
)

from workloads import pagerank_delta, run


class TestSinks:
    def test_ring_buffer_keeps_recent_and_counts_drops(self):
        sink = RingBufferSink(capacity=3)
        tracer = Tracer([sink])
        for i in range(5):
            tracer.instant(f"e{i}", "test", 0)
        names = [e.name for e in sink.events()]
        assert names == ["e2", "e3", "e4"]
        assert sink.dropped == 2

    def test_unbounded_ring_buffer(self):
        sink = RingBufferSink()
        tracer = Tracer([sink])
        for i in range(100):
            tracer.instant(f"e{i}", "test", 0)
        assert len(sink.events()) == 100
        assert sink.dropped == 0

    def test_jsonl_sink_writes_one_object_per_line(self):
        buf = io.StringIO()
        tracer = Tracer([JsonlSink(buf)])
        tracer.instant("send", "exchange", 1, stratum=2, bytes=64)
        tracer.complete("push", "operator", 0, ts=0.5, dur=0.1)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["name"] == "send"
        assert first["stratum"] == 2
        assert first["args"]["bytes"] == 64
        second = json.loads(lines[1])
        assert second["ph"] == "X"
        assert second["dur"] == 0.1

    def test_disabled_tracer_emits_nothing(self):
        sink = RingBufferSink()
        tracer = Tracer([sink], enabled=False)
        tracer.instant("e", "test", 0)
        tracer.complete("s", "test", 0, ts=0.0, dur=1.0)
        assert sink.events() == []


class TestValidateJsonl:
    def _line(self, **over):
        record = {"name": "e", "cat": "test", "ph": "i", "ts": 0.0,
                  "node": 0}
        record.update(over)
        return json.dumps(record)

    def test_counts_valid_lines(self):
        lines = [self._line(), "", self._line(ph="X", dur=0.5)]
        assert validate_jsonl(lines) == 2

    def test_rejects_bad_json(self):
        with pytest.raises(ValueError, match="invalid JSON"):
            validate_jsonl(["{nope"])

    def test_rejects_missing_key(self):
        record = json.loads(self._line())
        del record["node"]
        with pytest.raises(ValueError, match="missing key"):
            validate_jsonl([json.dumps(record)])

    def test_rejects_unknown_phase(self):
        with pytest.raises(ValueError, match="unknown phase"):
            validate_jsonl([self._line(ph="Z")])

    def test_rejects_span_without_duration(self):
        with pytest.raises(ValueError, match="without dur"):
            validate_jsonl([self._line(ph="X")])


class TestChromeTrace:
    def test_structure_loads_in_perfetto_format(self):
        events = [
            TraceEvent("push", "operator", "X", 0.001, 0, dur=0.0005,
                       stratum=1, args={"n": 3}),
            TraceEvent("send", "exchange", "i", 0.002, 1,
                       args={"bytes": 64}),
        ]
        doc = chrome_trace(events)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        records = doc["traceEvents"]
        # one process_name metadata row per node, then the events
        meta = [r for r in records if r["ph"] == "M"]
        assert {m["pid"] for m in meta} == {0, 1}
        span = next(r for r in records if r["ph"] == "X")
        assert span["ts"] == pytest.approx(1000.0)   # seconds -> us
        assert span["dur"] == pytest.approx(500.0)
        assert span["args"]["stratum"] == 1
        instant = next(r for r in records if r["ph"] == "i")
        assert instant["s"] == "t"
        # the whole document must be JSON-serializable
        json.dumps(doc)

    def test_requestor_node_named(self):
        doc = chrome_trace([TraceEvent("stratum.begin", "stratum", "i",
                                       0.0, -1)])
        meta = doc["traceEvents"][0]
        assert "requestor" in meta["args"]["name"]


class TestFingerprintDeterminism:
    """Observing a run leaves its simulated metrics bit-identical."""

    def _run(self, batch):
        obs = ObsContext()
        metrics = run(pagerank_delta(80), batch=batch, obs=obs).metrics
        return obs, metrics

    def test_instrumentation_does_not_change_simulated_metrics(self):
        m_plain = run(pagerank_delta(80)).metrics
        _, m_obs = self._run(batch=True)
        assert m_plain.fingerprint() == m_obs.fingerprint()


class TestEventStream:
    def test_pagerank_trace_has_all_categories(self):
        obs = ObsContext()
        run(pagerank_delta(80), obs=obs)
        events = obs.tracer.events()
        cats = {e.cat for e in events}
        assert {"operator", "exchange", "stratum"} <= cats
        ends = [e for e in events
                if e.cat == "stratum" and e.name == "stratum.end"]
        assert [e.stratum for e in ends] == list(range(len(ends)))
        assert all(e.ph == "X" for e in ends)

    def test_jsonl_roundtrip_validates(self):
        obs = ObsContext()
        run(pagerank_delta(80), obs=obs)
        lines = [json.dumps(e.to_dict()) for e in obs.tracer.events()]
        assert validate_jsonl(lines) == len(lines)
