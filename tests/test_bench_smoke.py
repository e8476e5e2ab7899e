"""Fast smoke tests for the figure harness and its claim check.

Full-size figure runs, with every claim checked, are
``python -m repro.bench.report``.
"""

import json
from pathlib import Path

import pytest

from repro.bench import (
    ALL_FIGURES,
    fig04_simple_agg,
    fig05_kmeans,
    fig10_scalability,
    fig12_recovery,
)
from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.common import (
    Claim,
    FigureResult,
    Series,
    claims,
    fresh_cluster,
    scaled_cost_model,
    speedup,
    steps,
)
from repro.bench.report import UnmetClaims, generate
from repro.cluster import CostModel


class TestCommonHelpers:
    def test_series_accessors(self):
        s = Series("x", [1.0, 2.0, 3.0])
        assert s.last() == 3.0

    def test_figure_result_get(self):
        fig = FigureResult("F", "t", series=[Series("a", [1.0])])
        assert fig.get("a").values == [1.0]
        with pytest.raises(KeyError):
            fig.get("missing")

    def test_format_table_contains_everything(self):
        fig = FigureResult("Figure X", "title",
                           series=[Series("line", [1.0, 2.0])],
                           headline={"ratio": 2.0},
                           notes=["a note"])
        text = fig.format_table()
        assert "Figure X" in text and "line" in text
        assert "ratio = 2.000" in text and "a note" in text

    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0
        assert speedup(1.0, 0.0) == float("inf")

    def test_scaled_cost_model_divides_fixed_costs(self):
        base = CostModel()
        scaled = scaled_cost_model(100.0, base)
        assert scaled.hadoop_job_startup == base.hadoop_job_startup / 100
        assert scaled.rex_stratum_overhead == base.rex_stratum_overhead / 100
        assert scaled.net_latency == base.net_latency / 100
        # Work costs untouched: same ruler for per-tuple economics.
        assert scaled.cpu_tuple_cost == base.cpu_tuple_cost
        assert scaled.hadoop_record_cost == base.hadoop_record_cost

    def test_scale_below_one_clamped(self):
        base = CostModel()
        assert scaled_cost_model(0.1, base).hadoop_job_startup == \
            base.hadoop_job_startup

    def test_fresh_cluster(self):
        assert fresh_cluster(3).node_ids() == [0, 1, 2]


class TestFigureRegistry:
    def test_all_eleven_figures_registered(self):
        assert sorted(ALL_FIGURES) == [f"fig{i:02d}" for i in range(2, 13)]

    def test_every_entry_callable(self):
        for fn in ALL_FIGURES.values():
            assert callable(fn)


def synthetic(*declared: Claim):
    """An experiment declaring ``declared`` whose run is canned."""
    @claims(*declared)
    def run():
        return FigureResult(
            "Figure X", "synthetic", headline={"ratio": 4.0, "floor": 1.5},
            series=[Series("fast", [1.0, 2.0, 4.0]),
                    Series("slow", [3.0, 5.0, 9.0])])
    return run


class TestClaims:
    @pytest.mark.parametrize("gap, status", [
        (None, "met"), ("sweep too small", "gap: sweep too small")])
    def test_held_bound_prints_met_or_its_gap(self, tmp_path, gap, status):
        text = generate(str(tmp_path / "E.md"), ablations=(), figures={
            "x": synthetic(Claim("ratio", "~9x", ">", 3.0, gap=gap))})
        assert f"| ~9x | ratio > 3 | 4 | {status} |" in text

    @pytest.mark.parametrize("gap", [None, "a reason"])
    def test_unmet_bound_fails_after_writing(self, tmp_path, gap):
        path = tmp_path / "E.md"
        with pytest.raises(UnmetClaims, match="Figure X: ratio > 5"):
            generate(str(path), ablations=(), figures={"x": synthetic(
                Claim("ratio", "~10x", ">", 5.0, gap=gap))})
        assert "| ~10x | ratio > 5 | 4 | UNMET |" in path.read_text()

    @pytest.mark.parametrize("claim, holds", [
        (Claim("ratio", "", "<=", (4.0, 4.0)), True),
        (Claim("ratio", "", "<", (2.0, 4.0)), False),
        (Claim("ratio", "", ">", "floor"), True),
        (Claim("fast", "", "<", "slow"), True),          # element by element
        (Claim("slow", "", "<", (2.0, "slow")), False),
        (Claim("fast", "", ">=", "floor"), False),      # 1.0 < 1.5
        (Claim("fast step", "", ">", 0, measure=steps("fast")), True),
        (Claim("nothing", "", ">", 0, measure=lambda r: []), False),
    ])
    def test_bound_forms(self, claim, holds):
        assert claim.holds(synthetic()()) is holds

    def test_every_experiment_declares_claims(self):
        for experiment in [*ALL_FIGURES.values(), *ALL_ABLATIONS]:
            assert experiment.claims, experiment
            for claim in experiment.claims:
                assert isinstance(claim, Claim) and claim.paper, claim


#: Toy-size runs of four figures; their exact series and headlines are
#: pinned in figure_pins.json.  Regenerate it (only for a reviewed change
#: of the simulated numbers) with ``PYTHONPATH=src python
#: tests/test_bench_smoke.py``.
TINY_RUNS = {
    "fig04": lambda: fig04_simple_agg.run(n_rows=1500, nodes=3),
    "fig05": lambda: fig05_kmeans.run(sizes=(150, 400), nodes=3),
    "fig10": lambda: fig10_scalability.run(n_vertices=500, degree=6.0,
                                           node_counts=(1, 4)),
    "fig12": lambda: fig12_recovery.run(n_vertices=400, degree=5.0,
                                        failure_points=(2,)),
}
PINS_PATH = Path(__file__).with_name("figure_pins.json")


def pinned_numbers(result: FigureResult) -> dict:
    """Every simulated number of a figure, as figure_pins.json stores it."""
    return {
        "series": {s.label: {"values": s.values, "x": s.x}
                   for s in result.series},
        "headline": result.headline,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS_PATH.read_text())


class TestTinyFigureRuns:
    """Miniature parameterizations keep these in unit-test time; each run
    must reproduce its pinned numbers exactly."""

    def test_fig04_tiny(self, pins):
        result = TINY_RUNS["fig04"]()
        assert pinned_numbers(result) == pins["fig04"]
        assert result.headline["rex_vs_hadoop_speedup"] > 1.0
        assert len(result.series) == 4

    def test_fig05_tiny(self, pins):
        result = TINY_RUNS["fig05"]()
        assert pinned_numbers(result) == pins["fig05"]
        assert result.headline["speedup_largest"] > 1.0

    def test_fig10_tiny(self, pins):
        result = TINY_RUNS["fig10"]()
        assert pinned_numbers(result) == pins["fig10"]
        times = result.get("REX Δ").values
        assert times[1] < times[0]

    def test_fig12_tiny(self, pins):
        result = TINY_RUNS["fig12"]()
        assert pinned_numbers(result) == pins["fig12"]
        assert result.get("Incremental").values[0] < \
            result.get("Restart").values[0]


if __name__ == "__main__":  # pragma: no cover
    PINS_PATH.write_text(json.dumps(
        {name: pinned_numbers(run()) for name, run in TINY_RUNS.items()},
        indent=1, sort_keys=True, ensure_ascii=False) + "\n")
