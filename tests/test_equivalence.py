"""The identity matrix: an ``ExecOptions`` toggle changes cost, never answers.

Every workload of ``tests/workloads.py`` — PageRank-delta, SSSP through a
node crash and incremental recovery, k-means, and the retraction join →
stream group-by plan — runs once per row of ``CONFIGS`` and must produce
the oracle's sorted rows and its ``QueryMetrics.fingerprint`` bit for bit.
The oracle is the executable specification: per-tuple, unfused,
unrewritten.  A sanitized row must also finish with zero REX diagnostics.
"""

import dataclasses

import pytest

from repro.obs import ObsContext, Tracer
from repro.runtime import ExecOptions

from workloads import WORKLOADS, build, run

ORACLE = {"batch": False, "fuse": False, "rewrite": False}


def _obs():
    """A fresh hooks-only context per run (the ``obs`` row holds the
    factory): attribution and the ``stratum.*`` family, no events."""
    return ObsContext(tracer=Tracer(enabled=False))


def _obs_telemetry():
    """A fresh fully recording context per run: the default tracer keeps
    every event in its ring as well."""
    return ObsContext()


#: row name -> ``ExecOptions`` overrides.  One row per toggle, then the
#: corners the per-layer suites used to reach.
CONFIGS = {
    "default": {},
    "per_tuple": {"batch": False},
    "unfused": {"fuse": False},
    "no_rewrite": {"rewrite": False},
    "no_absint": {"absint": False},
    "sanitize_sample": {"sanitize": "sample"},
    "sanitize_full": {"sanitize": "full"},
    "sanitize_full_no_absint": {"sanitize": "full", "absint": False},
    "obs": {"obs": _obs},
    "obs_telemetry": {"obs": _obs_telemetry},
    "per_tuple_unfused_sanitized": {"batch": False, "fuse": False,
                                    "sanitize": "full"},
    "unfused_no_absint": {"fuse": False, "absint": False},
    "all_off_sanitized": {"fuse": False, "rewrite": False, "absint": False,
                          "sanitize": "full"},
}

#: Fields that select *what* is computed or charged rather than how fast;
#: their own suites pin them (``test_runtime_executor``/``_recovery``).
BY_DESIGN = {
    "feedback_mode",    # delta vs full re-feed: different work, by definition
    "recovery",         # restart vs incremental: different recovery cost
}


def _observe(workload, overrides):
    overrides = dict(overrides)
    factory = overrides.pop("obs", None)
    obs = factory() if factory else None
    try:
        result = run(build(workload), obs=obs, **overrides)
    finally:
        if obs is not None:
            obs.close()
    return sorted(result.rows), result.metrics.fingerprint(), result


@pytest.fixture(scope="module")
def oracles():
    """workload -> (sorted rows, fingerprint) of its oracle run."""
    return {workload: _observe(workload, ORACLE)[:2]
            for workload in WORKLOADS}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_matches_oracle(workload, config, oracles):
    rows, fingerprint, result = _observe(workload, CONFIGS[config])
    oracle_rows, oracle_fingerprint = oracles[workload]
    assert rows and rows == oracle_rows
    assert fingerprint == oracle_fingerprint
    if result.sanitizer is not None:
        assert result.sanitizer.report.codes() == []


def test_every_toggle_is_a_row():
    """A new ``bool`` or mode-string option joins ``CONFIGS`` (or, if it
    changes the answer by design, ``BY_DESIGN``) before it ships."""
    defaults = ExecOptions()
    toggles = {f.name for f in dataclasses.fields(ExecOptions)
               if f.type in ("bool", "str")}
    flipped = {name for row in CONFIGS.values() for name, value in row.items()
               if value != getattr(defaults, name)}
    assert toggles - BY_DESIGN <= flipped
    assert BY_DESIGN <= toggles
