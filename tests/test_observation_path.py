"""Observing does not change the path being observed.

An attached ``ObsContext`` or sanitizer subscribes to the engine's probe;
it must not run a different program.  Every operator entry point
production runs (``push_batch``, ``transform_batch``, ``process``,
``on_stratum_end``) is counted per defining class, and the counts must be
identical across an unobserved, an obs-attached and a fully sanitized
run — on every workload of ``tests/workloads.py`` and on a fused
stateless chain, where a kernel must stay fused under observation.
"""

from collections import Counter

import pytest

from repro.obs import ObsContext, Tracer
from repro.operators import Operator

from test_fusion_equivalence import _chain_cluster, _chain_plan
from workloads import WORKLOADS, build, run

METHODS = ("push_batch", "transform_batch", "process", "on_stratum_end")


def _chain():
    cluster, _ = _chain_cluster()
    return cluster, _chain_plan(), {}


BUILDERS = {**{name: (lambda name=name: build(name)) for name in WORKLOADS},
            "fused_chain": _chain}

OBSERVERS = {
    "obs": lambda: {"obs": ObsContext(tracer=Tracer(enabled=False))},
    "sanitize": lambda: {"sanitize": "full"},
}


def _operator_classes():
    classes, todo = [], [Operator]
    while todo:
        cls = todo.pop()
        if cls not in classes:
            classes.append(cls)
            todo.extend(cls.__subclasses__())
    return classes


@pytest.fixture
def calls(monkeypatch):
    """Calls per ``(defining class, method)``, counted on the classes."""
    counts = Counter()
    for cls in _operator_classes():
        for name in METHODS:
            fn = cls.__dict__.get(name)
            if fn is None:
                continue

            def counting(self, *args, _fn=fn, _key=(cls.__name__, name)):
                counts[_key] += 1
                return _fn(self, *args)

            monkeypatch.setattr(cls, name, counting)
    return counts


@pytest.mark.parametrize("workload", BUILDERS)
def test_observers_run_the_unobserved_path(workload, calls):
    def counted(**options):
        calls.clear()
        assert run(BUILDERS[workload](), **options).rows
        return dict(calls)

    plain = counted()
    assert plain, "the counters see nothing"
    for name, options in OBSERVERS.items():
        assert counted(**options()) == plain, name
