"""The telemetry sampler observes the run it rides along with.

That telemetry and the flight recorder are charge-neutral — rows and
``QueryMetrics.fingerprint`` identical with no obs, obs without sampling,
obs with sampling, flight on and off — is the ``obs``, ``obs_telemetry``
and ``no_flight`` rows of ``tests/test_equivalence.py``.  Here: the
sampler took one sample per stratum, saw the Δ-set sizes the flight
recorder saw, and stays silent when switched off.
"""

import pytest

from repro.obs import ObsContext, Tracer

from workloads import WORKLOADS, build, run


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sampler_observed_the_run(workload):
    obs = ObsContext(tracer=Tracer(enabled=False))
    try:
        result = run(build(workload), obs=obs)
        metrics = result.metrics
        assert obs.telemetry.samples == metrics.num_iterations
        deltas = obs.registry.series("telemetry.stratum.delta_count")
        assert len(deltas.points) + deltas.dropped == metrics.num_iterations
        # The flight recorder rode along at the same cadence.
        strata_notes = [n for n in result.flight.notes
                        if n["kind"] == "stratum"]
        assert len(strata_notes) == metrics.num_iterations
        # Both views saw the same Δ-set sizes, stratum by stratum.
        assert [v for _, v in deltas.points] == \
            [n["deltas"] for n in strata_notes][-len(deltas.points):]
    finally:
        obs.close()


def test_telemetry_off_means_no_telemetry_metrics():
    obs = ObsContext(tracer=Tracer(enabled=False), telemetry=False)
    try:
        run(build("kmeans"), obs=obs)
        assert obs.registry.names("telemetry.") == []
    finally:
        obs.close()
