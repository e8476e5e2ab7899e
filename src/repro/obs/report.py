"""EXPLAIN ANALYZE: post-run per-operator cost table and stratum timeline.

The table is denominated in *simulated resource-seconds* — the CPU, disk
and network time each operator charged against its worker while its frame
was on top of the attribution stack (see :mod:`repro.obs.context`).  The
per-stratum timeline is denominated in simulated *wall* time — the
slowest node's overlap-combined resource vector per stratum, exactly what
:class:`~repro.cluster.metrics.QueryMetrics` records.  The two views are
intentionally different units: resource-seconds explain *where work went*,
wall seconds explain *what the query cost*; control-plane constants
(query startup, stratum barriers) appear as explicit rows so nothing is
silently unaccounted.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.obs.context import ObsContext, OperatorStats

_KIND_COLUMNS = ("+", "-", "->", "δ")


class _Agg:
    __slots__ = ("op_id", "nodes", "calls", "tuples_in", "tuples_out",
                 "sim_seconds", "wall_seconds", "kinds")

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.nodes = 0
        self.calls = 0
        self.tuples_in = 0
        self.tuples_out = 0
        self.sim_seconds = 0.0
        self.wall_seconds = 0.0
        self.kinds: Dict[str, int] = {}


def _aggregate(stats: List[OperatorStats],
               per_node: bool) -> List[_Agg]:
    """Group per-node operator stats; ``op_id`` aligns instances of the
    same plan position across workers (plans are instantiated in the same
    order on every node)."""
    groups: Dict[str, _Agg] = {}
    sim_parts: Dict[str, List[float]] = {}
    wall_parts: Dict[str, List[float]] = {}
    for s in stats:
        key = f"{s.op_id}@n{s.node}" if per_node else s.op_id
        agg = groups.get(key)
        if agg is None:
            agg = groups[key] = _Agg(key)
            sim_parts[key] = []
            wall_parts[key] = []
        agg.nodes += 1
        agg.calls += s.calls
        agg.tuples_in += s.tuples_in
        agg.tuples_out += s.tuples_out
        sim_parts[key].append(s.sim_seconds)
        wall_parts[key].append(s.wall_seconds)
        for sym, n in s.kinds.items():
            agg.kinds[sym] = agg.kinds.get(sym, 0) + n
    # Combine float addends order-independently so the table is identical
    # regardless of the stats iteration order (bit-identical metrics
    # contract; see repro.cluster.cluster._tally_total).
    for key, agg in groups.items():
        agg.sim_seconds = math.fsum(sorted(sim_parts[key]))
        agg.wall_seconds = math.fsum(sorted(wall_parts[key]))
    return sorted(groups.values(), key=lambda a: -a.sim_seconds)


def _fmt_seconds(s: float) -> str:
    return f"{s:.6f}" if s < 10 else f"{s:.3f}"


def explain_analyze(obs: ObsContext, metrics=None, per_node: bool = False,
                    top: Optional[int] = None,
                    diagnostics=None, properties=None,
                    lineage=None) -> str:
    """Render the post-run report as a plain-text table pair.

    ``diagnostics`` is an optional
    :class:`~repro.analysis.diagnostics.DiagnosticReport` from the static
    analyzer; when given (and non-empty) its findings are appended so the
    cost table and the plan's static findings read as one report.
    ``properties`` is an optional inferred-properties listing from the
    abstract interpretation (``PlanFacts.report()`` of ``absint.infer``):
    per-node delta polarity, monotonicity, and dead-delta facts, rendered
    as their own column block after the cost table.
    ``lineage`` is an optional per-edge live-column listing from the
    column-lineage analysis (``PlanFacts.report()`` of ``infer_lineage``),
    rendered the same way: which output positions each operator's
    consumers actually read, and what each node's own callables read.
    """
    rows = _aggregate(obs.operator_stats(), per_node)
    attributed, unattributed = obs.attribution()
    total_charged = attributed + unattributed
    lines: List[str] = []
    lines.append("EXPLAIN ANALYZE — per-operator simulated cost "
                 "(resource-seconds)")

    headers = ["operator", "nodes", "calls", "tuples_in", "tuples_out",
               "Δ+", "Δ-", "Δ->", "Δδ", "sim_s", "sim_%", "wall_ms"]
    table: List[List[str]] = []
    shown = rows if top is None else rows[:top]
    for agg in shown:
        share = (agg.sim_seconds / total_charged * 100.0
                 if total_charged > 0 else 0.0)
        table.append([
            agg.op_id, str(agg.nodes), str(agg.calls),
            str(agg.tuples_in), str(agg.tuples_out),
            *(str(agg.kinds.get(sym, 0)) for sym in _KIND_COLUMNS),
            _fmt_seconds(agg.sim_seconds), f"{share:.1f}",
            f"{agg.wall_seconds * 1e3:.2f}",
        ])
    if unattributed > 0:
        share = (unattributed / total_charged * 100.0
                 if total_charged > 0 else 0.0)
        table.append(["(unattributed)", "", "", "", "", "", "", "", "",
                      _fmt_seconds(unattributed), f"{share:.1f}", ""])
    lines += _aligned(headers, table, rule=True)
    if top is not None and len(rows) > top:
        lines.append(f"... ({len(rows) - top} more operators)")

    coverage = attributed / total_charged if total_charged > 0 else 1.0
    lines.append("")
    lines.append(f"operator attribution: {attributed:.6f}s of "
                 f"{total_charged:.6f}s charged ({coverage * 100.0:.1f}%)")

    if metrics is not None:
        lines.append("control plane: query startup "
                     f"{metrics.startup_seconds:.4f}s"
                     + (f", recovery {metrics.recovery_seconds:.4f}s"
                        if metrics.recovery_seconds else ""))
        lines.append("")
        lines.append("per-stratum timeline (simulated wall seconds)")
        theaders = ["stratum", "sim_s", "cumulative", "Δ-set", "mutable",
                    "bytes", "tuples"]
        trows: List[List[str]] = []
        cumulative = metrics.cumulative_seconds()
        for it, cum in zip(metrics.iterations, cumulative):
            trows.append([
                str(it.stratum), f"{it.seconds:.4f}", f"{cum:.4f}",
                str(it.delta_count), str(it.mutable_size),
                str(it.bytes_sent), str(it.tuples_processed),
            ])
        lines += _aligned(theaders, trows, pad=str.rjust)
        lines.append(f"total: {metrics.total_seconds():.4f}s simulated over "
                     f"{metrics.num_iterations} strata, "
                     f"{metrics.total_bytes()} bytes shuffled, "
                     f"{metrics.total_tuples()} tuples processed")

    fusion = obs.fusion_groups()
    if fusion:
        lines.append("")
        lines.append("fusion groups (each kernel's cost row above covers "
                     "its constituents)")
        # One line per distinct kernel shape: instances across workers are
        # the same plan position, so aggregate like the cost table does.
        by_label: Dict[str, List[Dict]] = {}
        for group in fusion:
            by_label.setdefault(group["label"], []).append(group)
        for label in sorted(by_label):
            groups = by_label[label]
            batches = sum(g["fused_batches"] for g in groups)
            lines.append(f"  {label}: {len(groups)} instance(s), "
                         f"{batches} fused batch(es)")

    lines.extend(_sparkline_section(obs))

    sanitizer_names = obs.registry.names("sanitizer.")
    if sanitizer_names:
        checks = obs.registry.counter("sanitizer.checks").value
        violations = obs.registry.counter("sanitizer.violations").value
        overhead = obs.registry.gauge("sanitizer.overhead_seconds").value
        lines.append("")
        lines.append(f"runtime sanitizer: {checks} checks, "
                     f"{violations} violation(s), "
                     f"{overhead:.4f}s host overhead (not simulated)")

    lines.extend(fact_listings(properties, lineage))

    if diagnostics is not None and len(diagnostics):
        lines.append("")
        lines.append("static analysis (repro analyze)")
        lines.append(diagnostics.format())
    return "\n".join(lines)


def fact_listings(properties=None, lineage=None) -> List[str]:
    """The per-node polarity and lineage listings of a plan analysis
    (``PlanFacts.report()`` rows) as two aligned text blocks."""
    blocks = []
    if properties:
        rows = []
        for p in properties:
            notes = []
            if "monotone" in p:
                notes.append("monotone" if p["monotone"] else "non-monotone")
            if "dead_kinds" in p:
                notes.append("dead={" + ",".join(p["dead_kinds"]) + "}")
            polarity = p["polarity"] + ("" if p["exact"] else "?")
            rows.append([p["path"], polarity, " ".join(notes)])
        blocks.append(("inferred properties (abstract interpretation)",
                       ["operator", "Δ polarity", "notes"], rows))
    if lineage:
        rows = []
        for n in lineage:
            live = ("{" + ",".join(map(str, n["live"])) + "}"
                    if n["live_exact"] else "all?")
            if "out_arity" in n:
                live += f"/{n['out_arity']}"
            reads = ""
            if "reads" in n:
                reads = "{" + ",".join(map(str, n["reads"])) + "}"
                if not n.get("reads_exact", False):
                    reads += "?"
            rows.append([n["path"], live, reads])
        blocks.append(("column lineage (live = read by downstream "
                       "consumers)", ["operator", "live", "reads"], rows))
    lines: List[str] = []
    for title, headers, rows in blocks:
        lines += ["", title, *(r.rstrip() for r in _aligned(headers, rows))]
    return lines


def _aligned(headers: List[str], rows: List[List[str]], pad=str.ljust,
             rule: bool = False) -> List[str]:
    """``headers`` over ``rows``, every column padded to its widest cell
    and, with ``rule``, a dashed line under the headers."""
    widths = [max(len(r[i]) for r in (headers, *rows))
              for i in range(len(headers))]
    lines = ["  ".join(pad(c, w) for c, w in zip(r, widths))
             for r in (headers, *rows)]
    if rule:
        lines.insert(1, "  ".join("-" * w for w in widths))
    return lines


#: (registry series name, timeline label) pairs shown as sparklines.
_SPARK_SERIES = (
    ("stratum.delta_count", "Δ-set"),
    ("stratum.seconds", "sim_s"),
    ("stratum.bytes_sent", "bytes"),
    ("stratum.inflight_peak", "inflight"),
)

_SPARK_WIDTH = 48


def _sparkline_section(obs: ObsContext) -> List[str]:
    """Per-stratum sparkline timeline from the ``stratum.*`` series."""
    from repro.obs.export import sparkline

    picked = []
    for name, label in _SPARK_SERIES:
        series = obs.registry.get(name)
        if series is not None and series.points:
            picked.append((label, series))
    if not picked:
        return []
    lines = ["", "per-stratum sparklines (oldest → newest)"]
    width = max(len(label) for label, _ in picked)
    for label, series in picked:
        values = series.values()
        spark = sparkline(values, width=_SPARK_WIDTH)
        lo, hi = min(values), max(values)
        suffix = f"  [{lo:.4g} .. {hi:.4g}]"
        if series.dropped:
            suffix += f" (+{series.dropped} dropped)"
        lines.append(f"  {label.ljust(width)}  {spark}{suffix}")
    return lines
