"""The benchmark's one command.

With ``--workload`` it measures that workload in this process and prints,
as its last line, the result object the driver reads::

    python3 perf/run.py --workload sssp_tail --seed 7 --seconds 10 --trace 0

Without it, every workload of BENCHMARK.json runs in a child process of
its own — ``--runs`` untraced runs each (seeds ``--seed``, ``--seed``+1,
…), then one traced run — and the set is printed as a table and written
to ``--out`` for ``compare.py``::

    python3 perf/run.py --runs 10 --out perf/out/set1.json

Exit status is non-zero when any operation failed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

# Before numpy is imported anywhere: the engine is single-threaded and a
# BLAS pool would only add CPU time that is not the program's.
os.environ.setdefault("OMP_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
BASELINE_DIR = os.path.join(HERE, "baseline")
SPEC_PATH = os.path.join(REPO, "BENCHMARK.json")
SCHEMA = "rex-perf/1"
SMOKE_SECONDS = 0.3
#: Fewest values a quartile spread across runs is taken from.
MIN_RUNS_FOR_SPREAD = 4


def load_spec() -> Dict[str, Any]:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=7,
                        help="every input is generated from it (default 7)")
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics instead")
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every workload ~20x (self-test)")
    parser.add_argument("--options", nargs="*", default=[],
                        metavar="KEY=VALUE",
                        help="non-default ExecOptions for every workload, "
                        "e.g. fuse=false columnar=true")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (all-workload mode)")
    parser.add_argument("--out", help="where the set is written "
                        "(default perf/out/results.json)")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite golden.json from this set instead of "
                        "checking against it")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# One workload, in this process
# ---------------------------------------------------------------------------
def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        print(f"no engine to measure: {REPO}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(REPO, "src"))
    sys.path.insert(0, HERE)
    import spans
    outer = spans.SpanTracer()
    with outer.span("python.import"):
        import harness
    if args.workload not in harness.BY_NAME:
        print(f"unknown workload {args.workload!r}; have "
              f"{sorted(harness.BY_NAME)}", file=sys.stderr)
        return 2
    try:
        overrides = harness.parse_overrides(args.options)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    report = harness.measure(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.smoke, overrides, outer,
                             check_golden=not args.update_golden)
    for failure in report["failures"]:
        print(f"FAILED {args.workload}: {failure}", file=sys.stderr)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if sorted(report["metrics"]) != sorted(m["name"] for m in wanted):
        print(f"{args.workload}: no result (metrics measured: "
              f"{sorted(report['metrics'])})", file=sys.stderr)
        return 1
    metrics = report["metrics"] = {
        m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]}
        for m in wanted}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(detail_path(args.workload, args.trace), "w") as handle:
        json.dump(report, handle)
    for metric in wanted:
        got = metrics[metric["name"]]
        print(f"{args.workload:<16} {metric['name']:<28} "
              f"{got['value']:>16.6f} {got['unit']}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if report["failed"] == 0 else 1


def detail_path(workload: str, trace: int) -> str:
    return os.path.join(OUT_DIR, f"trace_{workload}.json" if trace
                        else f"run_{workload}.json")


# ---------------------------------------------------------------------------
# Every workload, one child process each
# ---------------------------------------------------------------------------
def child(args: argparse.Namespace, workload: str, seed: int, trace: int
          ) -> Optional[Dict[str, Any]]:
    """Run one workload in a child; its report, or None if it gave none."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    if args.options:
        command += ["--options", *args.options]
    if args.update_golden:
        command.append("--update-golden")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        print(f"{workload}: child exited {done.returncode} without a result",
              file=sys.stderr)
        return None
    with open(detail_path(workload, trace)) as handle:
        return json.load(handle)


def spread_of(values: List[float]) -> float:
    """Distance between first and third quartile as a share of the median
    (``statistics.quantiles(values, n=4)``, as the driver takes it)."""
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repetition_spread(metric: str, detail: Dict[str, Any]) -> float:
    """With too few runs for quartiles, fall back on the spread of the
    repetitions behind the metric inside one run."""
    backing = {"query_s": "query_cpu_s", "throughput_tuples_s": "query_cpu_s",
               "setup_s": "load_cpu_s"}.get(metric)
    if backing is None:
        return 0.0
    s = detail[backing]
    return (s["q3"] - s["q1"]) / s["median"]


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    if args.update_golden and (args.smoke or args.options or args.seed != 7):
        print("golden.json is for --seed 7, full size, default options",
              file=sys.stderr)
        return 2
    out_path = os.path.abspath(args.out or os.path.join(OUT_DIR,
                                                        "results.json"))
    if (args.smoke or args.options) and os.path.commonpath(
            [out_path, BASELINE_DIR]) == BASELINE_DIR:
        print("refused: a baseline is a full-size run with default "
              "ExecOptions", file=sys.stderr)
        return 2

    document: Dict[str, Any] = {
        "schema": SCHEMA,
        "environment": {"python": platform.python_version(),
                        "machine": platform.machine(),
                        "cpus": os.cpu_count()},
        "seed": args.seed, "runs": args.runs, "seconds": args.seconds,
        "smoke": args.smoke, "options": sorted(args.options),
        "workloads": {},
    }
    failed_anywhere = False
    for listed in spec["workloads"]:
        name = listed["name"]
        untraced = [child(args, name, args.seed + i, 0)
                    for i in range(args.runs)]
        traced = child(args, name, args.seed, 1)
        reports = [r for r in untraced + [traced] if r is not None]
        entry: Dict[str, Any] = {
            "why": listed["why"],
            "attempted": sum(r["attempted"] for r in reports),
            "failed": sum(r["failed"] for r in reports),
            "failures": [f for r in reports for f in r["failures"]],
            "end_to_end": {}, "per_layer": {},
        }
        if len(reports) != args.runs + 1 or entry["failed"]:
            failed_anywhere = True
        good = [r for r in untraced if r is not None]
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in good]
            if not values:
                continue
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "better": metric["better"],
                "bound": metric["bound"], "values": values,
                "median": statistics.median(values),
                "spread": (spread_of(values)
                           if len(values) >= MIN_RUNS_FOR_SPREAD
                           else repetition_spread(metric["name"],
                                                  good[0]["detail"])),
            }
        if good:
            entry["repetitions"] = {
                k: v for k, v in good[0]["detail"].items()
                if k.endswith("_s")}
            entry["observed"] = good[0]["detail"]["observed"]
            entry["golden"] = good[0]["detail"]["golden"]
            entry["notes"] = good[0]["detail"]["notes"]
        if traced is not None:
            for metric in spec["per_layer"]:
                entry["per_layer"][metric["name"]] = {
                    "unit": metric["unit"], "better": metric["better"],
                    "value": traced["metrics"][metric["name"]]["value"]}
        document["workloads"][name] = entry
        print_workload(name, entry)

    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as handle:
        json.dump(document, handle, indent=1)
    print(f"\nwrote {out_path}")
    if args.update_golden and not failed_anywhere:
        golden = {name: entry["golden"]
                  for name, entry in document["workloads"].items()}
        with open(os.path.join(HERE, "golden.json"), "w") as handle:
            json.dump(golden, handle, indent=1)
            handle.write("\n")
    if failed_anywhere:
        print("FAILED: see the messages above", file=sys.stderr)
    return 1 if failed_anywhere else 0


def print_workload(name: str, entry: Dict[str, Any]) -> None:
    print(f"\n== {name}: {entry['attempted']} operations, "
          f"{entry['failed']} failed")
    for metric, e in entry["end_to_end"].items():
        print(f"  {metric:<28} {e['median']:>16.6f} {e['unit']:<6} "
              f"spread {100 * e['spread']:5.2f}%  bound "
              f"{100 * e['bound']:.0f}%  n={len(e['values'])}")
    for metric, e in entry["per_layer"].items():
        print(f"  {metric:<28} {e['value']:>16.6f} {e['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
