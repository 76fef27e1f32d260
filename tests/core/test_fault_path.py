"""The per-block fault path under transfer faults and under the sanitizer.

Every SIGSEGV is one delivery, one Section 5.2 tree-search charge and one
Figure 6 transition.  These tests pin the two behaviours that must hold on
that path: a PCIe transfer killed while a whole-region read faults blocks
in is retried (charging ``Retry``) without changing the bytes read, and a
sanitized multi-block rolling-update run stays violation-free.
"""

import numpy as np
import pytest

from repro.core.recovery import RecoveryPolicy
from repro.faults import FaultPlan
from repro.hw.machine import reference_system
from repro.sim.tracing import Category
from repro.workloads.base import Application
from repro.workloads.stencil3d import STENCIL, Stencil3D

PROTOCOLS = ("batch", "lazy", "rolling")

#: A 128KB volume over 4KB blocks gives rolling-update 32-block regions;
#: batch and lazy use whole-object blocks and take no granularity options.
ROLLING_OPTIONS = {"block_size": 4096, "rolling_size": 4}


def _protocol_options(protocol):
    return dict(ROLLING_OPTIONS) if protocol == "rolling" else {}


def _read_after_kernel(protocol, transfer_burst):
    """Run one stencil step, then read its whole output in one access.

    After ``sync`` the output is INVALID under the fault-driven protocols,
    so the read faults block by block and fetches each over PCIe.
    Returns the output, the plan, the RETRY total and the transfer-attempt
    window ``(before, after)`` the read spanned.
    """
    machine = reference_system(trace=True)
    plan = machine.install_faults(FaultPlan(transfer_burst=transfer_burst))
    app = Application(machine)
    gmac = app.gmac(
        protocol=protocol,
        layer="driver",
        protocol_options=_protocol_options(protocol),
        recovery=RecoveryPolicy(),
    )
    n = 32
    count = n ** 3
    vin = gmac.alloc(4 * count, name="vin")
    vout = gmac.alloc(4 * count, name="vout")
    vin.write_array(
        (np.arange(count, dtype=np.float32) / count).reshape(n, n, n)
    )
    gmac.call(STENCIL, vin=vin, vout=vout, n=n)
    gmac.sync()
    before = plan.transfer_attempt_total
    output = np.array(vout.read_array("f4", count), copy=True)
    window = (before, plan.transfer_attempt_total)
    retry = machine.accounting.totals[Category.RETRY]
    return output, plan, retry, window


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_transfer_killed_during_read_retries(protocol):
    """A transfer burst that kills one copy is retried transparently.

    A probe whose burst never fires counts the transfer attempts the read
    makes.  The faulted run then kills the read's first fetch; batch-update
    fetches everything at ``sync``, so its read moves nothing and the burst
    hits the last fetch before the read instead.
    """
    clean, probe_plan, probe_retry, (before, after) = _read_after_kernel(
        protocol, transfer_burst=(10 ** 9, 1)
    )
    assert probe_plan.injected_total == 0
    assert probe_retry == 0
    if protocol == "batch":
        assert after == before
        target = before
    else:
        assert after > before, "the read fetched nothing"
        target = before + 1  # 1-based attempt index
    output, plan, retry, _ = _read_after_kernel(
        protocol, transfer_burst=(target, 1)
    )
    assert plan.injected_total == 1
    assert retry > 0, "the injected fault charged no Retry"
    np.testing.assert_array_equal(output, clean)


def test_sanitized_multi_block_rolling_run_is_clean(monkeypatch):
    """A sanitized rolling stencil over 4KB blocks verifies with no
    violations: the race monitor judges every fault delivery."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    result = Stencil3D(n=32, steps=2, dump_interval=1).execute(
        mode="gmac", protocol="rolling",
        gmac_options={"protocol_options": dict(ROLLING_OPTIONS)},
    )
    assert result.verified
    assert result.extra["sanitizer"]["violations"] == 0
