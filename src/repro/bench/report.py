"""Regenerate EXPERIMENTS.md: run every figure and check the paper's claims.

Usage::

    python -m repro.bench.report [output_path]

Runs every figure experiment plus the ablations (takes a few minutes),
checks each experiment's declared :class:`~repro.bench.common.Claim`
records on its run, and writes the paper-vs-measured record.  Exits
non-zero, after writing the record, if any reproduction bound fails.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Iterable, List, Mapping, Optional

from repro.bench import ALL_FIGURES
from repro.bench.ablations import ALL_ABLATIONS
from repro.bench.common import FigureResult

Experiment = Callable[[], FigureResult]


class UnmetClaims(AssertionError):
    """A reproduction bound failed; the record was written regardless."""


def generate(path: str = "EXPERIMENTS.md",
             figures: Optional[Mapping[str, Experiment]] = None,
             ablations: Optional[Iterable[Experiment]] = None) -> str:
    """Run ``figures`` and ``ablations`` (default: all of them), write the
    record to ``path`` and return it; raise :class:`UnmetClaims` after
    writing if any claim's bound fails."""
    figures = ALL_FIGURES if figures is None else figures
    ablations = ALL_ABLATIONS if ablations is None else ablations
    unmet: List[str] = []
    lines: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.bench.report`.  Every table and "
        "figure of the paper's Section 6 is regenerated by the harness in "
        "`src/repro/bench/`, and each claim the paper makes is checked "
        "against the bound this reproduction holds it to: `met`, or "
        "`gap: <reason>` where the bound holds but the paper's magnitude "
        "is not reproduced.  The command exits non-zero if a bound fails.",
        "",
        "Datasets are seeded synthetic stand-ins scaled down by factors of "
        "~10^3 (see DESIGN.md), and fixed per-job/per-stratum overheads are "
        "scaled by the same factor (`scaled_cost_model`) so startup-to-work "
        "proportions match the paper's.  Absolute seconds are simulated "
        "cost-model time, not wall clock; the claims to check are the "
        "*relative* ones (who wins, by what factor, where inflection "
        "points fall).",
        "",
    ]
    for run_fn in figures.values():
        lines += _section("##", run_fn, unmet)
    lines += ["## Ablations (design choices, not paper figures)", ""]
    for run_fn in ablations:
        lines += _section("###", run_fn, unmet)

    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    if unmet:
        raise UnmetClaims("reproduction bounds failed:\n  "
                          + "\n  ".join(unmet))
    return text


def _section(heading: str, run_fn: Experiment, unmet: List[str]
             ) -> List[str]:
    """Run one experiment and render its record; failed bounds join
    ``unmet``."""
    started = time.perf_counter()
    result = run_fn()
    elapsed = time.perf_counter() - started
    print(f"{result.figure} done in {elapsed:.1f}s", file=sys.stderr)
    lines = [f"{heading} {result.figure}: {result.title}", "",
             "| metric | measured |", "|---|---|"]
    lines += [f"| {metric} | {value:.3f} |"
              for metric, value in sorted(result.headline.items())]
    lines += ["", "| paper | reproduction bound | measured | status |",
              "|---|---|---|---|"]
    for claim in run_fn.claims:
        if not claim.holds(result):
            status = "UNMET"
            unmet.append(f"{result.figure}: {claim.describe()}")
        elif claim.gap:
            status = f"gap: {claim.gap}"
        else:
            status = "met"
        measured = ", ".join(f"{v:.4g}" for v in claim.values(result))
        lines.append(f"| {claim.paper} | {claim.describe()} | {measured} "
                     f"| {status} |")
    lines.append("")
    lines += [f"- {note}" for note in result.notes]
    lines += [f"- (experiment wall clock: {elapsed:.1f}s)", ""]
    return lines


if __name__ == "__main__":  # pragma: no cover
    out = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    try:
        generate(out)
    except UnmetClaims as exc:
        print(f"wrote {out}; {exc}", file=sys.stderr)
        sys.exit(1)
    print(f"wrote {out}", file=sys.stderr)
