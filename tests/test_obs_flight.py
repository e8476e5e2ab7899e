"""Flight recorder: breadcrumbs, triggers, bundle dumps, CLI inspection."""

import io
import json

import pytest

from repro.analysis.determinism import check_determinism
from repro.cluster import Cluster
from repro.cluster.metrics import IterationMetrics
from repro.obs.flight import (ENV_DIR, FORMAT, FlightRecorder, bundle_path,
                              load_bundle, summarize, write_bundle)
from repro.obs.trace import JsonlSink, Tracer
from repro.runtime import (ExecOptions, PFilter, PScan, PhysicalPlan,
                           QueryExecutor)


def _fixed_clock():
    return 1_700_000_000.0


class TestRecorder:
    def test_note_ring_bounds_memory(self):
        rec = FlightRecorder(capacity=4)
        for k in range(10):
            rec.note("tick", k=k)
        assert len(rec.notes) == 4
        assert rec.dropped == 6
        assert [n["k"] for n in rec.notes] == [6, 7, 8, 9]
        # Sequence numbers keep counting across drops.
        assert [n["seq"] for n in rec.notes] == [6, 7, 8, 9]

    def test_on_stratum_breadcrumb(self):
        rec = FlightRecorder()
        rec.on_stratum(IterationMetrics(
            3, seconds=0.5, bytes_sent=128, tuples_processed=77,
            delta_count=9, mutable_size=40))
        # The note's fields are part of the rex-flight/1 bundle format.
        assert rec.notes[-1] == {
            "seq": 0, "kind": "stratum", "stratum": 3, "seconds": 0.5,
            "bytes": 128, "deltas": 9, "mutable": 40, "tuples": 77}

    def test_bundle_is_self_contained(self):
        rec = FlightRecorder(clock=_fixed_clock)
        rec.note("query_start", recursive=True)
        try:
            raise RuntimeError("boom")
        except RuntimeError as exc:
            doc = rec.bundle("exception", error=exc)
        assert doc["format"] == FORMAT
        assert doc["created_unix"] == _fixed_clock()
        assert doc["reason"] == "exception"
        assert doc["notes"][0]["kind"] == "query_start"
        assert doc["error"]["type"] == "RuntimeError"
        assert doc["error"]["message"] == "boom"
        assert any("boom" in line for line in doc["error"]["traceback"])
        assert doc["env"]["python"]
        # JSON-safe end to end.
        json.dumps(doc)

    def test_dump_without_destination_keeps_bundle_in_memory(
            self, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        rec = FlightRecorder()
        assert rec.dump("exception") is None
        assert rec.last_path is None
        assert rec.last_bundle["reason"] == "exception"
        assert rec.dumps == 1

    def test_dump_to_constructor_directory(self, tmp_path):
        rec = FlightRecorder(directory=str(tmp_path))
        rec.note("stratum", stratum=0)
        path = rec.dump("exception")
        assert path is not None and path.startswith(str(tmp_path))
        doc = load_bundle(path)
        assert doc["reason"] == "exception"
        assert rec.last_path == path

    def test_dump_to_env_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        path = FlightRecorder().dump("sanitizer")
        assert path is not None
        assert "-sanitizer" in path
        assert load_bundle(path)["reason"] == "sanitizer"

    def test_bundle_paths_do_not_collide(self, tmp_path):
        first = bundle_path(str(tmp_path), "exception")
        write_bundle({"format": FORMAT}, first)
        # Same millisecond or not, the second path must differ.
        rec = FlightRecorder(directory=str(tmp_path))
        second = rec.dump("exception")
        assert second != first

    def test_load_bundle_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-bundle.json"
        path.write_text('{"format": "rex-perf/1"}\n')
        with pytest.raises(ValueError):
            load_bundle(str(path))


class TestExecutorTriggers:
    def _failing_plan(self, cluster):
        def bad(row):
            raise ValueError("predicate exploded")

        cluster.create_table("t", ["id:Integer"], [(1,), (2,)], "id")
        return PhysicalPlan(PFilter(predicate=bad, children=(PScan("t"),)))

    def test_exception_dumps_bundle(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        cluster = Cluster(2)
        plan = self._failing_plan(cluster)
        executor = QueryExecutor(cluster,
                                 ExecOptions(flight_dir=str(tmp_path)))
        with pytest.raises(ValueError) as excinfo:
            executor.execute(plan)
        exc = excinfo.value
        assert exc.rex_flight_path is not None
        doc = load_bundle(exc.rex_flight_path)
        assert doc["reason"] == "exception"
        assert doc["error"]["type"] == "ValueError"
        kinds = {n["kind"] for n in doc["notes"]}
        assert "query_start" in kinds
        assert "exception" in kinds
        assert exc.rex_flight_bundle["reason"] == "exception"

    def test_exception_without_directory_attaches_bundle_only(
            self, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        cluster = Cluster(2)
        plan = self._failing_plan(cluster)
        executor = QueryExecutor(cluster, ExecOptions())
        with pytest.raises(ValueError) as excinfo:
            executor.execute(plan)
        assert excinfo.value.rex_flight_path is None
        assert excinfo.value.rex_flight_bundle["error"]["type"] == "ValueError"

    def test_successful_run_records_strata(self):
        cluster = Cluster(2)
        cluster.create_table("t", ["id:Integer"], [(1,), (2,)], "id")
        plan = PhysicalPlan(PFilter(predicate=lambda r: True,
                                    children=(PScan("t"),)))
        result = QueryExecutor(cluster, ExecOptions()).execute(plan)
        assert result.flight is not None
        strata = [n for n in result.flight.notes if n["kind"] == "stratum"]
        assert len(strata) == result.metrics.num_iterations
        # Nothing dumped on success.
        assert result.flight.dumps == 0

    def test_sanitizer_trip_dumps_bundle(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_DIR, str(tmp_path))
        from sanitizer_corpus import CASES

        case = CASES[0]  # illegal-delete-annotation -> REX200
        report = case.run()
        assert report.has_errors()
        bundles = list(tmp_path.glob("flight-*-sanitizer*.json"))
        assert len(bundles) == 1
        doc = load_bundle(str(bundles[0]))
        assert doc["reason"] == "sanitizer"
        assert doc["sanitizer"]["violations"] > 0
        codes = summarize(doc)["diagnostic_codes"]
        assert "REX200" in codes


class FakeMetrics:
    def __init__(self, fp):
        self._fp = fp

    def fingerprint(self):
        return self._fp


class FakeResult:
    def __init__(self, rows, fp, flight=None):
        self.rows = rows
        self.metrics = FakeMetrics(fp)
        self.flight = flight


class TestDeterminismTrigger:
    def test_divergence_dumps_bundle(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)
        rec = FlightRecorder()
        rec.note("stratum", stratum=0)

        def run_query(perturb):
            if perturb is None:
                return FakeResult([(1, 0.5)], ("fp",))
            # Every perturbed run returns different rows: a result race.
            return FakeResult([(1, 0.75)], ("fp",), flight=rec)

        outcome = check_determinism(run_query, perturbations=2,
                                    minimize=False,
                                    flight_dir=str(tmp_path))
        assert outcome.has_races
        assert outcome.flight_path is not None
        doc = load_bundle(outcome.flight_path)
        assert doc["reason"] == "determinism"
        kinds = {n["kind"] for n in doc["notes"]}
        # The divergent run's own breadcrumbs ride along.
        assert {"stratum", "determinism"} <= kinds
        codes = summarize(doc)["diagnostic_codes"]
        assert "REX205" in codes

    def test_clean_run_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_DIR, raising=False)

        def run_query(perturb):
            return FakeResult([(1, 0.5)], ("fp",))

        outcome = check_determinism(run_query, perturbations=2,
                                    flight_dir=str(tmp_path))
        assert not outcome.has_races
        assert outcome.flight_path is None
        assert list(tmp_path.iterdir()) == []


class TestTracerClose:
    def test_close_is_idempotent(self):
        tracer = Tracer()
        tracer.instant("stratum_start", "stratum", node=0, stratum=0)
        tracer.close()
        assert tracer.closed
        assert not tracer.enabled
        tracer.close()  # second close is a no-op, not an error
        assert tracer.closed

    def test_emit_after_close_is_dropped(self):
        from repro.obs.trace import RingBufferSink

        sink = RingBufferSink()
        tracer = Tracer(sinks=[sink])
        tracer.instant("a", "stratum", node=0)
        tracer.close()
        tracer.instant("b", "stratum", node=0)
        assert [ev.name for ev in sink.events()] == ["a"]

    def test_jsonl_sink_flushes_borrowed_stream_on_close(self):
        buf = io.StringIO()
        tracer = Tracer(sinks=[JsonlSink(buf)])
        tracer.instant("stratum_start", "stratum", node=0, stratum=0)
        tracer.close()
        # Borrowed streams are flushed, never closed.
        assert not buf.closed
        line = buf.getvalue().strip().splitlines()[0]
        assert json.loads(line)["name"] == "stratum_start"


class TestCliFlight:
    def _write(self, tmp_path):
        rec = FlightRecorder(directory=str(tmp_path), clock=_fixed_clock)
        rec.note("stratum", stratum=0, deltas=5)
        rec.note("stratum", stratum=1, deltas=2)
        try:
            raise RuntimeError("kaboom")
        except RuntimeError as exc:
            return rec.dump("exception", error=exc)

    def test_text_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path)
        assert main(["flight", path]) == 0
        out = capsys.readouterr().out
        assert "reason: exception" in out
        assert "RuntimeError: kaboom" in out
        assert "stratum=1" in out

    def test_json_summary(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path)
        assert main(["flight", "--format", "json", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["path"] == path
        assert doc[0]["reason"] == "exception"
        assert doc[0]["strata_recorded"] == 2

    def test_unreadable_bundle_fails(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "junk.json"
        bad.write_text("{}\n")
        assert main(["flight", str(bad)]) == 2
        assert "junk.json" in capsys.readouterr().err
