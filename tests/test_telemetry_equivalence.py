"""The per-stratum sampler observes the run it rides along with.

That observation and the flight recorder are charge-neutral — rows and
``QueryMetrics.fingerprint`` identical with and without an ObsContext —
is the ``obs`` and ``obs_telemetry`` rows of
``tests/test_equivalence.py``.  Here: the
``stratum.*`` family an ObsContext writes is the run's
``QueryMetrics.iterations`` record as each stratum closed, and the flight
recorder's stratum notes saw the same numbers, and no ``telemetry.*``
twin of that family is written.
"""

import pytest

from repro.obs import ObsContext, Tracer

from workloads import WORKLOADS, build, run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sampler_observed_the_run(workload):
    obs = ObsContext(tracer=Tracer(enabled=False))
    try:
        result = run(build(workload), obs=obs)
    finally:
        obs.close()
    iterations = result.metrics.iterations
    reg = obs.registry
    for field in ("bytes_sent", "delta_count", "mutable_size"):
        assert reg.series(f"stratum.{field}").points == [
            (it.stratum, getattr(it, field)) for it in iterations], field
    # Seconds and tuples are sampled when the stratum closes; recovery
    # and the final flush add to the record afterwards, never take away.
    for field in ("seconds", "tuples_processed"):
        points = reg.series(f"stratum.{field}").points
        assert [i for i, _ in points] == [it.stratum for it in iterations]
        assert all(v <= getattr(it, field)
                   for (_, v), it in zip(points, iterations)), field
    # The flight recorder rode along at the same cadence and saw the same
    # numbers.
    notes = [n for n in result.flight.notes if n["kind"] == "stratum"]
    assert [(n["stratum"], n["seconds"], n["tuples"]) for n in notes] == [
        (i, seconds, tuples) for (i, seconds), (_, tuples) in zip(
            reg.series("stratum.seconds").points,
            reg.series("stratum.tuples_processed").points)]


def test_telemetry_off_means_no_telemetry_metrics():
    # The sampler is folded into ``end_stratum``: its numbers live only in
    # the ``stratum.*`` family, and no ``telemetry.*`` twin is written.
    obs = ObsContext(tracer=Tracer(enabled=False))
    try:
        result = run(build("kmeans"), obs=obs)
    finally:
        obs.close()
    reg = obs.registry
    assert reg.names("telemetry.") == []
    assert len(reg.series("stratum.delta_count").points) == \
        result.metrics.num_iterations
