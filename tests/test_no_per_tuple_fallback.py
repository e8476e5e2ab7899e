"""Production never falls back to the per-tuple oracle.

Under ``ExecOptions(batch=True)`` every shipped operator moves
``List[Delta]`` batches.  ``Operator.receive`` and the base-class
``Operator.push_batch`` (which loops ``process`` one delta at a time) are
the oracle's entry points; a batch run that reaches either has a path
the batch loops do not cover.
"""

import pytest

from repro.operators import Operator

from workloads import WORKLOADS, build, run


@pytest.fixture
def fallback_calls(monkeypatch):
    """Calls into the two per-tuple entry points, counted on the class."""
    calls = {"receive": 0, "push_batch": 0}
    receive, push_batch = Operator.receive, Operator.push_batch

    def counting_receive(self, delta, port=0):
        calls["receive"] += 1
        receive(self, delta, port)

    def counting_push_batch(self, deltas, port=0):
        calls["push_batch"] += 1
        push_batch(self, deltas, port)

    monkeypatch.setattr(Operator, "receive", counting_receive)
    monkeypatch.setattr(Operator, "push_batch", counting_push_batch)
    return calls


@pytest.mark.parametrize("workload", WORKLOADS)
def test_batch_run_stays_on_batch_loops(workload, fallback_calls):
    assert run(build(workload), batch=True).rows
    assert fallback_calls == {"receive": 0, "push_batch": 0}


def test_restart_recovery_stays_on_batch_loops(fallback_calls):
    assert run(build("sssp_failure"), batch=True, recovery="restart").rows
    assert fallback_calls == {"receive": 0, "push_batch": 0}


def test_the_counters_see_the_oracle(fallback_calls):
    """The patch is live: the per-tuple path is counted."""
    run(build("retraction_join_groupby"), batch=False)
    assert fallback_calls["receive"] > 0
