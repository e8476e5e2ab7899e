"""Compare two sets written by ``run.py --out``: one row per (workload, metric).

    python3 perf/compare.py A.json B.json

A is the base, B the candidate.  End-to-end metrics use the bound stored
in the files: *worse* or *better* when B's median differs from A's by more
than the bound, *unchanged* otherwise — unless either side's quartile
spread exceeds the bound, in which case the row is *unresolved* (or
better/worse only if every B value lies on one side of every A value).
Count metrics repeat exactly, so any difference is resolved by direction.
Timings and shares of single layers carry no bound and are listed as
*info*.  Exit status 1 if any row is worse, 2 if the files cannot be
compared.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, List, Tuple

#: Per-layer metrics that must repeat bit for bit at equal seed and size.
EXACT = (
    "common.deltas.constructed", "common.deltas.per_tuple",
    "net.network.messages", "operators.push_calls",
    "operators.tuples_per_push", "runtime.strata",
    "runtime.tuples_processed", "runtime.delta_admitted", "net.bytes_sent",
    "runtime.result_rows",
)
Row = Tuple[str, str, float, float, str, str]


def worsening(a: float, b: float, better: str) -> float:
    """Relative change from a to b, positive when b is worse."""
    change = (b - a) / abs(a) if a else math.copysign(math.inf, b - a)
    return change if better == "lower" else -change


def bounded_verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    bound, better = a["bound"], a["better"]
    worse_by = worsening(a["median"], b["median"], better)
    if max(a["spread"], b["spread"]) > bound:
        sides = {worsening(x, y, better) > 0
                 for x in a["values"] for y in b["values"] if x != y}
        if len(sides) == 1:
            return "worse" if sides.pop() else "better"
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "unchanged"


def exact_verdict(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    if a["value"] == b["value"]:
        return "unchanged"
    return ("worse" if worsening(a["value"], b["value"], a["better"]) > 0
            else "better")


def compare(base: Dict[str, Any], cand: Dict[str, Any]) -> List[Row]:
    same_inputs = all(base[k] == cand[k] for k in ("seed", "smoke"))
    rows: List[Row] = []
    for name, a_work in base["workloads"].items():
        b_work = cand["workloads"].get(name)
        if b_work is None:
            continue
        for metric, a in a_work["end_to_end"].items():
            b = b_work["end_to_end"].get(metric)
            if b is None:
                continue
            if metric == "sim_s" and same_inputs and base["runs"] == cand["runs"]:
                # The paper's ruler: the simulator's answer may not move.
                same = all(math.isclose(x, y, rel_tol=1e-9)
                           for x, y in zip(a["values"], b["values"]))
                verdict = "unchanged" if same else "worse"
            else:
                verdict = bounded_verdict(a, b)
            note = (f"spread {100 * max(a['spread'], b['spread']):.1f}% "
                    f"bound {100 * a['bound']:.0f}%")
            rows.append((name, metric, a["median"], b["median"], verdict,
                         note))
        for metric, a in a_work["per_layer"].items():
            b = b_work["per_layer"].get(metric)
            if b is None:
                continue
            if metric in EXACT and same_inputs:
                verdict = exact_verdict(a, b)
            else:
                verdict = "info"
            rows.append((name, metric, a["value"], b["value"], verdict, ""))
    return rows


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    documents = []
    for path in argv:
        with open(path) as handle:
            documents.append(json.load(handle))
    base, cand = documents
    if base.get("schema") != cand.get("schema") or "workloads" not in base:
        print("not two sets of the same schema", file=sys.stderr)
        return 2
    for label, doc in (("A", base), ("B", cand)):
        print(f"{label}: seed {doc['seed']} runs {doc['runs']} "
              f"options {doc['options'] or 'default'}"
              f"{' smoke' if doc['smoke'] else ''}")
    rows = compare(base, cand)
    for name, metric, a, b, verdict, note in rows:
        change = 100 * (b - a) / abs(a) if a else 0.0
        print(f"{name:<16} {metric:<28} {a:>16.6f} {b:>16.6f} "
              f"{change:>+8.2f}%  {verdict:<10} {note}")
    tally: Dict[str, int] = {}
    for row in rows:
        tally[row[4]] = tally.get(row[4], 0) + 1
    print(" ".join(f"{k}={v}" for k, v in sorted(tally.items())))
    return 1 if tally.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
