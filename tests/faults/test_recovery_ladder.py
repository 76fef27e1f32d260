"""The re-entrant device-loss ladder under faults on its own transfers.

A correlated transfer burst can wedge a link at any point of a run: in
the release flush of a call, in a host-fault fetch, or in the flushes
that re-materialise a lost device onto a survivor.  Wherever the loss is
declared, it must go through the same ladder and end either verified or
in a typed :class:`RecoveryExhausted` — never as a bare
:class:`DeviceLostError` or :class:`TransferError`, and never as a run
whose output silently disagrees with the oracle.
"""

import numpy as np
import pytest

import repro.faults
from repro.experiments import failover
from repro.experiments.executor import expand
from repro.faults import FaultPlan
from repro.hw.machine import multi_device_system
from repro.util.errors import (
    DeviceLostError,
    RecoveryExhausted,
    TransferError,
)
from repro.util.units import KB
from repro.workloads.base import Application

#: Burst lengths: 4 heals within the retry budget, 10 wedges one device,
#: 20 also wedges the survivor mid-re-materialisation, 40 outlasts
#: ``max_device_recoveries``.
BURST_LENGTHS = (4, 10, 20, 40)


def _burst_spec(name, params, burst):
    return failover._spec(
        name, params, "lazy",
        dict(transfer_burst=burst), dict(transfer_deadline_s=4e-3),
        failover.DEFAULT_DEVICES,
    )


def _fault_free_transfers(monkeypatch, name, params):
    """Transfer attempts one run makes when the burst never fires."""
    plans = []

    class Recording(FaultPlan):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            plans.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(repro.faults, "FaultPlan", Recording)
        assert _burst_spec(name, params, (10 ** 9, 1)).execute().verified
    return plans[-1].transfer_attempt_total


#: The quick vecadd and pns parameters of the failover experiment.
WORKLOADS = dict(failover._workload_params(quick=True))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_burst_at_every_transfer_verifies_or_gives_up(monkeypatch, name):
    params = WORKLOADS[name]
    transfers = _fault_free_transfers(monkeypatch, name, params)
    # The quick vecadd run makes 3 transfers and pns 9; burst (3, 10)
    # wedges a host-fault fetch and (2, 20) wedges the survivor while the
    # first failover re-materialises onto it.
    assert transfers >= 3
    bad = []
    nested = exhausted = 0
    for length in BURST_LENGTHS:
        for start in range(1, transfers + 1):
            try:
                outcome = _burst_spec(name, params, (start, length)).execute()
            except RecoveryExhausted:
                exhausted += 1
                continue
            except (DeviceLostError, TransferError) as error:
                bad.append(((start, length), type(error).__name__))
                continue
            if not outcome.verified:
                bad.append(((start, length), "verified=False"))
            if outcome.recovery_stats["device_recoveries"] > 1:
                nested += 1
    assert bad == []
    assert nested > 0, "the grid must reach a loss inside recovery"
    assert exhausted > 0, "the longest burst must exhaust the ladder"


def test_paper_scale_burst_wedge_specs_verify(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "paper")
    specs = [
        spec for spec in expand(["failover"])
        if spec.fault_plan is not None
        and "transfer_burst" in dict(spec.fault_plan)
    ]
    assert len(specs) == 2
    for spec in specs:
        outcome = spec.execute()
        assert outcome.verified, spec.workload
        # The wedge outlasts one failover: the survivor is lost while
        # being re-materialised and the ladder climbs again.
        assert outcome.recovery_stats["device_recoveries"] > 1


def test_failover_drops_the_lost_devices_memory(add_kernel):
    machine = multi_device_system(devices=3)
    machine.install_faults(FaultPlan(seed=17, device_lost_at_launch=1))
    gmac = Application(machine).gmac(protocol="rolling", layer="driver")
    n = (256 * KB) // 4
    a = gmac.alloc(256 * KB, name="a")
    b = gmac.alloc(256 * KB, name="b")
    c = gmac.alloc(256 * KB, name="c")
    a.write_array(np.full(n, 2.0, dtype=np.float32))
    b.write_array(np.full(n, 3.0, dtype=np.float32))
    gmac.call(add_kernel, a=a, b=b, c=c, n=n)
    gmac.sync()
    assert gmac.recovery.stats["failovers"] == 1
    (lost,) = gmac.placement.dead
    assert gmac.layer.context_for(lost).gpu.memory.bytes_in_use == 0
    assert np.allclose(c.read_array("f4", n), 5.0)
