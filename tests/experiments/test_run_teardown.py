"""A spec's host memory dies with the spec.

Each run builds a cyclic object graph (machine, process, GMAC, recovery
policy) holding its host and device buffers.  ``RunSpec.execute`` must
leave none of it reachable and none of it waiting for a later full
collection: a graph that outlives its run raises the memory floor of
every run after it.  These tests never call ``gc.collect()`` themselves,
so they see exactly what ``execute`` leaves behind.
"""

import gc
import tracemalloc
import weakref

import pytest

from repro.experiments.executor import expand
from repro.experiments.registry import REGISTRY
from repro.experiments.spec import RunSpec

#: Allowed growth of traced memory across one repeated execution.
SLACK_BYTES = 1 << 20


def _fault_free_per_workload():
    chosen = {}
    for spec in expand(sorted(REGISTRY), quick=True):
        if spec.fault_plan is None:
            chosen.setdefault(spec.workload, spec)
    return [chosen[name] for name in sorted(chosen)]


def _label(spec):
    """A short test id: workload, protocol, devices, fault-plan keys."""
    faults = "+".join(name for name, _ in spec.fault_plan or ()
                      if name != "seed") or "fault-free"
    return f"{spec.workload}-{spec.protocol}-x{spec.devices}-{faults}"


FAULTED = expand(["failover", "chaos"], quick=True)
FAULT_FREE = _fault_free_per_workload()


@pytest.fixture
def machines(monkeypatch):
    """Weak references to every machine a spec builds."""
    refs = []
    build = RunSpec._build_machine

    def tracked(spec):
        machine = build(spec)
        refs.append(weakref.ref(machine))
        return machine

    monkeypatch.setattr(RunSpec, "_build_machine", tracked)
    return refs


@pytest.mark.parametrize("spec", FAULTED + FAULT_FREE, ids=_label)
def test_machine_is_freed_when_execute_returns(spec, machines):
    spec.execute()
    assert len(machines) == 1
    assert machines[0]() is None, "the run's machine outlived execute()"


@pytest.mark.parametrize("spec", [
    next(s for s in FAULTED if s.devices > 1 and s.fault_plan is not None),
    next(s for s in FAULTED if s.devices == 1 and s.fault_plan is not None),
    FAULT_FREE[0],
], ids=_label)
def test_repeated_execution_keeps_traced_memory_flat(spec):
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        spec.execute()  # warm-up: memos, memoized inputs, oracles
        before, _ = tracemalloc.get_traced_memory()
        spec.execute()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert after - before <= SLACK_BYTES, (
        f"traced memory grew {after - before} bytes over one run"
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_when_a_spec_raises(enabled,
                                                        monkeypatch):
    def broken(spec):
        raise RuntimeError("no machine")

    monkeypatch.setattr(RunSpec, "_build_machine", broken)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="no machine"):
            FAULT_FREE[0].execute()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
