"""Determinism checking: schedule perturbation and result diffing.

A REX query is supposed to be a *function* of its inputs: stratified
execution makes every stratum a barrier, so the set of deltas produced in a
stratum must not depend on the order in which the fabric happens to deliver
messages, nor on the order workers are driven.  Order-dependent UDAs and
delta handlers (``first value wins'' aggregators, handlers reading dict
iteration order) silently break this — the query returns *an* answer, just
not a reproducible one.

The checker re-executes the same plan under K seeded perturbations of

* message delivery order (:class:`Perturbation` becomes the simulated
  network's queue, whose ``popleft`` picks among the FIFO *heads* of each
  (src, dst) link — every schedule it generates is one a real
  asynchronous network could produce), and
* per-stratum worker iteration order (``worker_order``),

then diffs each run against the unperturbed baseline:

* result rows differ (as multisets, floats canonicalized to 9 significant
  digits so reordered-float-summation noise is not a race) → **REX205**,
  a result race (error);
* rows agree but :meth:`QueryMetrics.fingerprint` diverges beyond float
  canonicalization → **REX206**, a metrics-only race (warning).

On a result race the checker *minimizes*: it re-runs the divergent seed
with the perturbation scoped to one exchange at a time, reporting which
exchange's delivery order flips the result — that names the plan edge
(and hence the operator pair) hosting the race.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.analysis.diagnostics import DiagnosticReport, make

#: How far into the queue a perturbation looks for reorderable link heads.
#: Bounded so the choice scan stays O(window) per delivery.
WINDOW = 64


def exchange_base(exchange: str) -> str:
    """Strip the per-attempt suffix: ``'x0.a7' -> 'x0'``.  Attempt counters
    differ between runs; the base names the plan edge stably."""
    return exchange.split(".a", 1)[0]


class Perturbation:
    """A seeded, valid-schedule reordering of message delivery.

    Installed on a :class:`~repro.net.network.SimulatedNetwork`, it swaps
    in a queue whose ``popleft`` is a choice among the current FIFO heads
    of each (src, dst) link inside a bounded window — per-link FIFO is
    preserved (real transports guarantee it), cross-link interleaving is
    randomized (real transports do not).  With ``scope`` set to an
    exchange base, only that exchange's messages are reordered; the first
    out-of-scope message acts as a barrier (it may be delivered, but
    nothing behind it may overtake it) — this is the minimization mode.
    """

    def __init__(self, seed: int = 0, scope: Optional[str] = None):
        self.seed = seed
        self.scope = scope
        self._rng = random.Random(1000003 * seed + 12345)
        #: Exchange bases observed flowing through the fabric — the scope
        #: candidates for minimization.
        self.exchanges_seen: set = set()
        #: Number of deliveries where more than one candidate existed.
        self.choices = 0

    # -- network hook ---------------------------------------------------
    def install(self, network) -> None:
        """Deliver ``network``'s mail in this perturbation's order
        (idempotent per network instance)."""
        if getattr(network._queue, "perturbation", None) is not self:
            network._queue = _PerturbedQueue(network._queue, self)

    def uninstall(self, network) -> None:
        """Put plain FIFO delivery back if this perturbation is installed."""
        if getattr(network._queue, "perturbation", None) is self:
            network._queue = deque(network._queue)

    def _choose(self, queue) -> int:
        eligible: List[int] = []
        seen_links: set = set()
        scope = self.scope
        for i, msg in enumerate(queue):
            if i >= WINDOW:
                break
            base = exchange_base(msg.exchange)
            self.exchanges_seen.add(base)
            if scope is not None and base != scope:
                # Out-of-scope barrier: deliverable in place, not passable.
                eligible.append(i)
                break
            link = (msg.src, msg.dst)
            if link not in seen_links:
                seen_links.add(link)
                eligible.append(i)
        if not eligible:
            return 0
        if len(eligible) == 1:
            return eligible[0]
        self.choices += 1
        return self._rng.choice(eligible)

    # -- driver hook ----------------------------------------------------
    def worker_order(self, plans: List[Any], stratum: int) -> List[Any]:
        """A seeded shuffle of the per-stratum worker drive order."""
        plans = list(plans)
        rng = random.Random(1000003 * (self.seed + 1) + 31 * stratum)
        rng.shuffle(plans)
        return plans


class _PerturbedQueue(deque):
    """A fabric queue whose ``popleft`` delivers the perturbation's seeded
    choice: one :meth:`Perturbation._choose` per message taken, whether
    the network then delivers it or drops it at a dead node."""

    def __init__(self, messages, perturbation: Perturbation):
        super().__init__(messages)
        self.perturbation = perturbation

    def popleft(self):
        idx = self.perturbation._choose(self)
        msg = self[idx]
        del self[idx]
        return msg


# ---------------------------------------------------------------------------
# Result canonicalization and diffing
# ---------------------------------------------------------------------------

def canonical_value(v):
    """Floats to 9 significant digits (reordered summation is not a race);
    containers recursively; everything else unchanged."""
    if isinstance(v, float):
        if v != v:
            return "nan"
        if v == 0.0:
            return 0.0
        return float(f"{v:.9g}")
    if isinstance(v, tuple):
        return tuple(canonical_value(x) for x in v)
    return v


def canonical_rows(rows) -> Counter:
    """Order-insensitive (multiset) canonical form of a result set."""
    return Counter(tuple(canonical_value(v) for v in row) for row in rows)


def canonical_fingerprint(fp):
    return canonical_value(fp) if isinstance(fp, tuple) else fp


def _diff_sample(baseline: Counter, perturbed: Counter,
                 limit: int = 3) -> str:
    only_base = list((baseline - perturbed).elements())[:limit]
    only_pert = list((perturbed - baseline).elements())[:limit]
    parts = []
    if only_base:
        parts.append("baseline-only rows "
                     + ", ".join(repr(r) for r in only_base))
    if only_pert:
        parts.append("perturbed-only rows "
                     + ", ".join(repr(r) for r in only_pert))
    return "; ".join(parts) if parts else "row multiplicities differ"


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

@dataclass
class RunOutcome:
    """One perturbed run's comparison against the baseline."""

    index: int
    seed: int
    rows_diverged: bool
    fingerprint_diverged: bool


@dataclass
class DeterminismReport:
    """Outcome of :func:`check_determinism`."""

    runs: int
    report: DiagnosticReport
    outcomes: List[RunOutcome] = field(default_factory=list)
    #: Exchange bases whose isolated reordering reproduces the divergence
    #: (empty when no result race, or when minimization could not pin one).
    suspects: List[str] = field(default_factory=list)
    #: Path of the flight-recorder bundle written for a finding (None when
    #: no finding, or no bundle directory resolved).
    flight_path: Optional[str] = None

    @property
    def has_races(self) -> bool:
        return self.report.has_errors()

    def to_json(self) -> dict:
        import json

        return {
            "runs": self.runs,
            "races": self.has_races,
            "suspects": list(self.suspects),
            "flight_path": self.flight_path,
            "outcomes": [
                {"index": o.index, "seed": o.seed,
                 "rows_diverged": o.rows_diverged,
                 "fingerprint_diverged": o.fingerprint_diverged}
                for o in self.outcomes
            ],
            "diagnostics": json.loads(self.report.to_json()),
        }


def check_determinism(run_query: Callable[[Optional[Perturbation]], Any],
                      perturbations: int = 3, seed: int = 0,
                      minimize: bool = True,
                      flight_dir: Optional[str] = None
                      ) -> DeterminismReport:
    """Execute ``run_query`` once unperturbed and ``perturbations`` times
    under seeded schedule perturbations; diff the results.

    ``run_query(perturb)`` must build a **fresh** cluster and plan each
    call (state must not leak between runs), pass ``perturb`` through as
    ``ExecOptions.perturb``, and return the :class:`QueryResult`.

    On a REX205/REX206 finding a flight-recorder post-mortem bundle is
    written (reason ``determinism``) when a directory resolves from
    ``flight_dir`` or ``REX_FLIGHT_DIR``, carrying the checker's outcomes
    and diagnostics alongside the divergent run's breadcrumbs.
    """
    report = DiagnosticReport()
    baseline = run_query(None)
    base_rows = canonical_rows(baseline.rows)
    base_fp = canonical_fingerprint(baseline.metrics.fingerprint())

    outcomes: List[RunOutcome] = []
    exchanges_seen: set = set()
    first_divergent: Optional[Tuple[int, Counter]] = None
    divergent_flight = None
    for k in range(perturbations):
        run_seed = 1 + seed * perturbations + k
        perturb = Perturbation(seed=run_seed)
        result = run_query(perturb)
        exchanges_seen |= perturb.exchanges_seen
        rows = canonical_rows(result.rows)
        fp = canonical_fingerprint(result.metrics.fingerprint())
        rows_diverged = rows != base_rows
        fp_diverged = fp != base_fp
        outcomes.append(RunOutcome(k, run_seed, rows_diverged, fp_diverged))
        if (rows_diverged or fp_diverged) and divergent_flight is None:
            divergent_flight = getattr(result, "flight", None)
        if rows_diverged and first_divergent is None:
            first_divergent = (run_seed, rows)
        elif fp_diverged and not rows_diverged:
            report.add(make(
                "REX206",
                f"metrics fingerprint diverges under perturbed delivery "
                f"order (seed {run_seed}) while result rows agree — "
                "per-stratum accounting depends on the schedule",
                location="(schedule)",
                hint="look for batching or counting keyed on arrival "
                     "order; results are safe but EXPLAIN ANALYZE and "
                     "benchmark numbers are not reproducible",
            ))

    suspects: List[str] = []
    if first_divergent is not None:
        bad_seed, bad_rows = first_divergent
        if minimize:
            for base in sorted(exchanges_seen):
                scoped = Perturbation(seed=bad_seed, scope=base)
                result = run_query(scoped)
                if canonical_rows(result.rows) != base_rows:
                    suspects.append(base)
        where = (", ".join(f"exchange {s!r}" for s in suspects)
                 if suspects else "(could not isolate a single exchange)")
        report.add(make(
            "REX205",
            f"query result diverges under perturbed message delivery "
            f"order (seed {bad_seed}): {_diff_sample(base_rows, bad_rows)}; "
            f"minimized to {where}",
            location=suspects[0] if suspects else "(schedule)",
            hint="an operator fed by this exchange is order-dependent — "
                 "check UDAs/delta handlers for first-wins state, "
                 "non-commutative folds, or unordered iteration",
        ))

    out = DeterminismReport(runs=perturbations, report=report,
                            outcomes=outcomes, suspects=suspects)
    if len(report):
        out.flight_path = _dump_flight(out, divergent_flight, flight_dir)
    return out


def _dump_flight(result: DeterminismReport, recorder,
                 flight_dir: Optional[str]) -> Optional[str]:
    """Write a ``determinism`` flight bundle for a REX205/206 finding.

    ``recorder`` is the first divergent run's own
    :class:`~repro.obs.flight.FlightRecorder` (every executor run keeps
    one) so the bundle carries its stratum breadcrumbs; a fresh recorder
    when ``run_query`` returned a result without one.
    """
    import os

    from repro.obs.flight import ENV_DIR, FlightRecorder

    directory = flight_dir or os.environ.get(ENV_DIR)
    if not directory:
        return None
    if recorder is None:
        recorder = FlightRecorder()
    recorder.directory = directory
    recorder.note(
        "determinism", races=result.has_races,
        suspects=list(result.suspects),
        outcomes=[{"seed": o.seed, "rows": o.rows_diverged,
                   "fingerprint": o.fingerprint_diverged}
                  for o in result.outcomes])
    return recorder.dump("determinism", diagnostics=result.report)
