"""Tests for the CSV-backed command-line interface."""

import pytest

from repro.cli import _parse_value, load_csv, main
from repro.common.errors import ReproError


@pytest.fixture
def edges_csv(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("srcId:Integer,destId:Integer\n0,1\n0,2\n1,2\n2,0\n")
    return str(path)


@pytest.fixture
def people_csv(tmp_path):
    path = tmp_path / "people.csv"
    path.write_text("id,name,score\n1,ann,2.5\n2,bob,3.5\n")
    return str(path)


class TestCsvLoading:
    def test_explicit_types(self, edges_csv):
        schema, rows = load_csv(edges_csv)
        assert schema == ["srcId:Integer", "destId:Integer"]
        assert rows[0] == (0, 1)

    def test_inferred_types(self, people_csv):
        schema, rows = load_csv(people_csv)
        assert schema == ["id:Integer", "name:Varchar", "score:Double"]
        assert rows[1] == (2, "bob", 3.5)

    def test_empty_cell_is_null(self):
        assert _parse_value("") is None

    def test_empty_file_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ReproError):
            load_csv(str(empty))


class TestCliExecution:
    def test_simple_query(self, edges_csv, capsys):
        rc = main(["--table", f"graph={edges_csv}", "--key", "graph=srcId",
                   "--nodes", "2",
                   "SELECT srcId, count(*) FROM graph GROUP BY srcId"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert sorted(out) == ["0\t2", "1\t1", "2\t1"]

    def test_metrics_flag(self, edges_csv, capsys):
        rc = main(["--table", f"graph={edges_csv}", "--metrics",
                   "SELECT count(*) FROM graph"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "iterations" in err and "simulated" in err

    def test_explain_flag(self, edges_csv, capsys):
        rc = main(["--table", f"graph={edges_csv}", "--explain",
                   "SELECT srcId FROM graph WHERE destId > 0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Scan(graph)" in out and "Filter" in out

    def test_limit(self, edges_csv, capsys):
        rc = main(["--table", f"graph={edges_csv}", "--limit", "2",
                   "SELECT srcId, destId FROM graph"])
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2
        assert "more rows" in captured.err

    def test_query_from_file(self, edges_csv, tmp_path, capsys):
        qfile = tmp_path / "q.rql"
        qfile.write_text("SELECT count(*) FROM graph")
        rc = main(["--table", f"graph={edges_csv}", f"@{qfile}"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_bad_table_spec(self, capsys):
        assert main(["--table", "oops", "SELECT 1 FROM t"]) == 2

    def test_replication_without_key_refused(self, edges_csv, capsys):
        """An unkeyed table cannot place replicas; loading one used to
        report replication=2, store none and lose rows after a failure."""
        rc = main(["--table", f"graph={edges_csv}", "--replication", "2",
                   "SELECT count(*) FROM graph"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: table graph asks for replication=2" in captured.err
        assert "no partition key" in captured.err

    def test_query_error_reported(self, edges_csv, capsys):
        rc = main(["--table", f"graph={edges_csv}",
                   "SELECT nope FROM graph"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--nodes", "0", "SELECT 1 FROM t"],
        ["--limit", "-1", "SELECT 1 FROM t"],
        ["--nodes", "two", "SELECT 1 FROM t"],
        ["analyze", "--nodes", "0", "SELECT 1 FROM t"],
        ["check", "--nodes", "0"],
        ["check", "--scale", "0"],
        ["check", "--perturbations", "0"],
        ["telemetry", "--nodes", "0"],
        ["telemetry", "--scale", "0"],
        ["--replication", "0", "SELECT 1 FROM t"],
        ["--replication", "-1", "SELECT 1 FROM t"],
        ["--max-strata", "0", "SELECT 1 FROM t"],
        ["flight", "--events", "-1", "bundle.json"],
    ], ids=" ".join)
    def test_bad_count_is_a_usage_error(self, argv, capsys):
        """A count out of range is refused before anything runs: exit 2
        with a usage message, never a traceback from deep in the run."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "Traceback" not in captured.err


class TestObservabilityFlags:
    QUERY = "SELECT srcId, count(*) FROM graph GROUP BY srcId"

    def test_trace_writes_valid_jsonl(self, edges_csv, tmp_path, capsys):
        from repro.obs import validate_jsonl

        trace = tmp_path / "run.trace.jsonl"
        rc = main(["--table", f"graph={edges_csv}", "--key", "graph=srcId",
                   "--trace", str(trace), self.QUERY])
        assert rc == 0
        lines = trace.read_text().splitlines()
        assert validate_jsonl(lines) == len(lines) > 0

    def test_trace_chrome_writes_loadable_json(self, edges_csv, tmp_path,
                                               capsys):
        import json as _json

        chrome = tmp_path / "run.chrome.json"
        rc = main(["--table", f"graph={edges_csv}", "--key", "graph=srcId",
                   "--trace-chrome", str(chrome), self.QUERY])
        assert rc == 0
        doc = _json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert any(r["ph"] == "M" for r in doc["traceEvents"])

    @staticmethod
    def _openmetrics_series(text, name):
        """Parse OpenMetrics text strictly; the points of series ``name``."""
        lines = text.splitlines()
        assert lines[-1] == "# EOF"
        points = {}
        for line in lines[:-1]:
            if line.startswith("# TYPE "):
                assert line.split()[3] in ("counter", "gauge"), line
                continue
            sample, value = line.rsplit(" ", 1)
            float(value)
            if sample.startswith(name + "{"):
                points[sample[len(name):]] = float(value)
        return points

    @pytest.mark.parametrize("target", ["run.json", "run.prom", "-"])
    def test_telemetry_export_carries_the_stratum_family(
            self, edges_csv, tmp_path, capsys, target):
        """``--telemetry FILE`` writes registry JSON for ``*.json``,
        OpenMetrics text otherwise, and to stdout (after the rows) for
        ``-``; each holds the per-stratum tuple counts."""
        import json as _json

        path = target if target == "-" else str(tmp_path / target)
        rc = main(["--table", f"graph={edges_csv}", "--key", "graph=srcId",
                   "--telemetry", path, self.QUERY])
        assert rc == 0
        out = capsys.readouterr().out
        if target == "-":
            rows, _, text = out.partition("# TYPE ")
            assert sorted(rows.splitlines()) == ["0\t2", "1\t1", "2\t1"]
            text = "# TYPE " + text
        else:
            text = (tmp_path / target).read_text()
        if target.endswith(".json"):
            points = _json.loads(text)["stratum.tuples_processed"]
            counts = [value for _, value in points]
        else:
            counts = list(self._openmetrics_series(
                text, "stratum_tuples_processed").values())
        assert counts and all(c > 0 for c in counts), text

    def test_analyze_prints_report_to_stderr(self, edges_csv, capsys):
        rc = main(["--table", f"graph={edges_csv}", "--key", "graph=srcId",
                   "--analyze", self.QUERY])
        assert rc == 0
        captured = capsys.readouterr()
        assert "EXPLAIN ANALYZE" in captured.err
        assert "operator attribution" in captured.err
        # query results still land on stdout, untouched
        assert sorted(captured.out.strip().splitlines()) == [
            "0\t2", "1\t1", "2\t1"]


class TestAnalyzeAndLintFormats:
    QUERY = "SELECT srcId, count(*) FROM graph GROUP BY srcId"

    def _analyze(self, edges_csv, capsys, fmt):
        import json as _json

        rc = main(["analyze", "--table", f"graph={edges_csv}",
                   "--key", "graph=srcId", "--format", fmt, self.QUERY])
        assert rc == 0
        return _json.loads(capsys.readouterr().out)

    def test_analyze_json_carries_properties(self, edges_csv, capsys):
        payload = self._analyze(edges_csv, capsys, "json")
        props = payload["properties"]
        assert props, "json payload must embed inferred properties"
        for row in props:
            assert {"path", "label", "polarity", "exact"} <= set(row)
        polarities = {row["polarity"] for row in props}
        assert "insert-only" in polarities

    def test_analyze_json_carries_lineage_and_rewrites(self, edges_csv,
                                                       capsys):
        payload = self._analyze(edges_csv, capsys, "json")
        lineage = payload["lineage"]
        assert lineage, "json payload must embed the column lineage"
        for row in lineage:
            assert {"path", "label", "live", "live_exact"} <= set(row)
        scan = next(row for row in lineage if row["label"] == "Scan")
        assert scan["out_arity"] == 2, (
            "the catalog's table width must reach the lineage report")
        assert "rewrites" in payload, (
            "json payload must list rewrite decisions (possibly empty)")
        for dec in payload["rewrites"]:
            assert {"path", "kind", "applied", "reason"} <= set(dec)
