"""Shared infrastructure for the figure-reproduction experiments.

Every experiment returns a :class:`FigureResult` holding named series
(one per plotted line / table row), its parameters, and the headline
comparisons the paper reports.  Each experiment also declares, with
:func:`claims`, the paper's claims about it as :class:`Claim` records —
who wins, by roughly what factor, where crossovers fall — and
``repro.bench.report`` checks them on the run and renders the
paper-vs-measured record into EXPERIMENTS.md.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.algorithms import make_start_table
from repro.cluster.cluster import Cluster
from repro.cluster.costs import CostModel

#: Default cluster size for the DBPedia-scale experiments (the paper uses
#: 28 machines; the simulator is O(total tuples), so fewer, beefier
#: simulated nodes keep wall-clock reasonable without changing ratios).
DEFAULT_NODES = 8

#: Scaled default dataset sizes (see DESIGN.md's substitution table).
DBPEDIA_VERTICES = 3000
DBPEDIA_DEGREE = 12.0
TWITTER_VERTICES = 3000
TWITTER_DEGREE = 18.0
LINEITEM_ROWS = 20_000

#: Edge counts of the paper's graphs: fixed costs are scaled by the paper's
#: size over the reproduction's (``scaled_cost_model``).
PAPER_DBPEDIA_EDGES = 48_000_000
PAPER_TWITTER_EDGES = 1_400_000_000


@dataclass
class Series:
    """One line of a figure: a label plus y-values (x implied: iteration
    number, data size, node count, ...)."""

    label: str
    values: List[float]
    x: Optional[List[float]] = None

    def last(self) -> float:
        return self.values[-1]


@dataclass
class FigureResult:
    """Everything one experiment produced."""

    figure: str
    title: str
    series: List[Series] = field(default_factory=list)
    headline: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def get(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise KeyError(f"{self.figure}: no series {label!r}; have "
                       f"{[s.label for s in self.series]}")

    def format_table(self) -> str:
        """Paper-style text rendering of the figure's data."""
        lines = [f"=== {self.figure}: {self.title} ==="]
        width = max((len(s.label) for s in self.series), default=8)
        for s in self.series:
            xs = s.x or list(range(1, len(s.values) + 1))
            pts = "  ".join(f"{x:g}:{v:.3f}" for x, v in zip(xs, s.values))
            lines.append(f"  {s.label:<{width}}  {pts}")
        if self.headline:
            lines.append("  headline:")
            for k, v in sorted(self.headline.items()):
                lines.append(f"    {k} = {v:.3f}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


#: A bound operand: a constant, or the name of a headline metric or series.
Operand = Union[float, str]
#: Computes a claim's value, or one value per element, from a result.
Measure = Callable[[FigureResult], Union[float, List[float]]]

_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
            ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One claim the paper makes about a figure, and the bound this
    reproduction holds it to.

    ``reads`` names the quantity the bound compares: a headline metric,
    or a series label (every value of the series is compared), or — with
    ``measure`` — a quantity computed from the result.  ``bound`` is an
    operand, compared as ``value op bound``, or a ``(lo, hi)`` pair,
    compared as ``lo op value op hi``; a series operand is compared
    element by element, a single value against every element.  ``gap``
    names why the paper's magnitude is not reproduced although the bound
    holds.
    """

    reads: str
    paper: str
    op: str
    bound: Union[Operand, Tuple[Operand, Operand]]
    measure: Optional[Measure] = None
    gap: Optional[str] = None

    def values(self, result: FigureResult) -> List[float]:
        if self.measure is None:
            return _operand(result, self.reads)
        value = self.measure(result)
        return list(value) if isinstance(value, (list, tuple)) else [value]

    def holds(self, result: FigureResult) -> bool:
        compare = _COMPARE[self.op]
        values = self.values(result)
        if not values:
            return False
        if isinstance(self.bound, tuple):
            lo, hi = (_operand(result, b) for b in self.bound)
            return all(compare(a, v) and compare(v, b)
                       for a, v, b in _aligned(lo, values, hi))
        return all(compare(v, b) for v, b in
                   _aligned(values, _operand(result, self.bound)))

    def describe(self) -> str:
        if isinstance(self.bound, tuple):
            lo, hi = self.bound
            return (f"{_show(lo)} {self.op} {self.reads} {self.op} "
                    f"{_show(hi)}")
        return f"{self.reads} {self.op} {_show(self.bound)}"


def claims(*declared: Claim):
    """Declare the paper's claims about an experiment next to it: the
    decorated function gets them as its ``claims`` attribute."""
    def declare(fn):
        fn.claims = declared
        return fn
    return declare


def _operand(result: FigureResult, operand: Operand) -> List[float]:
    if not isinstance(operand, str):
        return [operand]
    if operand in result.headline:
        return [result.headline[operand]]
    return result.get(operand).values


def _aligned(*columns: List[float]):
    """Zip the columns, repeating a single value to the others' length."""
    n = max(len(c) for c in columns)
    return zip(*(c * n if len(c) == 1 else c for c in columns), strict=True)


def _show(operand: Operand) -> str:
    return operand if isinstance(operand, str) else f"{operand:g}"


def steps(label: str) -> Measure:
    """Measure: the differences between consecutive values of a series."""
    return lambda r: [b - a for a, b in pairwise(r.get(label).values)]


def late_over_peak(label: str, late: int, first: int = 0) -> Measure:
    """Measure: a series' value at index ``late`` over its peak from
    index ``first`` on."""
    return lambda r: (r.get(label).values[late]
                      / max(r.get(label).values[first:]))


def scaled_cost_model(data_scale: float,
                      base: Optional[CostModel] = None) -> CostModel:
    """Scale fixed (per-job / per-stratum / per-query) overheads down by
    the dataset scale factor.

    The benchmarks run the paper\'s workloads shrunk by a factor
    ``data_scale`` (e.g. 48M DBPedia edges -> 32k edges is ~1500x).  Work
    costs shrink with the data automatically, but *fixed* costs — job
    startup, stratum barriers, failure-detection timeouts — would otherwise
    dominate everything and erase the paper\'s proportions.  Dividing the
    fixed constants by the same factor preserves the startup-to-work ratio
    the paper measured, which is what its relative results depend on.
    """
    base = base or CostModel()
    factor = max(1.0, data_scale)
    return base.scaled(
        rex_query_startup=base.rex_query_startup / factor,
        rex_stratum_overhead=base.rex_stratum_overhead / factor,
        hadoop_job_startup=base.hadoop_job_startup / factor,
        hadoop_task_overhead=base.hadoop_task_overhead / factor,
        failure_detection=base.failure_detection / factor,
        # Punctuation/barrier messages are a fixed per-stratum population;
        # their per-message latency scales with everything else fixed.
        net_latency=base.net_latency / factor,
    )


def fresh_cluster(nodes: int = DEFAULT_NODES,
                  cost_model: Optional[CostModel] = None) -> Cluster:
    return Cluster(nodes, cost_model=cost_model)


def graph_cluster(edges, nodes: int = DEFAULT_NODES,
                  cost_model: Optional[CostModel] = None,
                  replication: int = 1,
                  source: Optional[int] = None) -> Cluster:
    """A fresh cluster holding ``edges`` as the ``graph`` table keyed by
    ``srcId``, plus shortest path's ``start`` table when ``source`` is
    given."""
    cluster = fresh_cluster(nodes, cost_model)
    cluster.create_table("graph", ["srcId:Integer", "destId:Integer"],
                         edges, "srcId", replication=replication)
    if source is not None:
        make_start_table(cluster, source)
    return cluster


def speedup(slow: float, fast: float) -> float:
    """How many times faster ``fast`` is than ``slow``."""
    return slow / fast if fast > 0 else float("inf")
