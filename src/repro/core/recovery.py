"""Fault recovery on top of ADSM's host-resident coherence state.

The paper's central asymmetry — all coherence state and actions live on
the CPU — makes the host side a natural recovery point: GMAC always knows
which blocks are host-canonical (DIRTY / READ_ONLY) and can re-create the
accelerator's entire memory image from them.  :class:`RecoveryPolicy`
builds one recovery ladder on that fact:

* **one retry loop** — transient transfer faults, device OOM and launch
  rejections share bounded retries with virtual-time exponential backoff,
  charged to the ``Retry`` accounting category.  Transfers add a watchdog
  deadline (a wedged link escalates to a declared device loss, after
  salvaging the device-only bytes); OOM adds forced eager eviction;
* **one re-materialisation path** — every :class:`DeviceLostError`, at a
  launch, in a host-fault fetch or inside recovery itself, goes through
  the re-entrant :meth:`RecoveryPolicy.recover_device_loss`: reset the
  lost device, re-place its regions (on a survivor, else in place), flush
  every block from the host copy.  A loss during a rung trusts the host
  checkpoint and climbs the ladder again, up to ``max_device_recoveries``;
* **protocol degradation** — when the observed fault rate crosses a
  threshold the coherence protocol is downgraded rolling -> lazy -> batch
  at a call boundary: fewer, larger, synchronous transfers are easier to
  retry than a deep asynchronous eviction pipeline.

A ``RecoveryPolicy`` is armed automatically by :class:`repro.core.api.Gmac`
whenever the machine has an *enabled* fault plan installed; without one,
every hook below stays un-entered and fault-free runs are byte-identical
to the pre-fault-injection library.
"""

from contextlib import contextmanager

from repro.util.errors import (
    CudaOutOfMemoryError,
    DeviceLostError,
    LaunchError,
    RecoveryExhausted,
    TransferError,
)
from repro.sim.tracing import Category
from repro.hw.interconnect import Direction
from repro.hw.memory import copy_d2h
from repro.core.blocks import BlockState
from repro.core.watchdog import Watchdog

#: Transient launch rejections retried per call before giving up.
MAX_LAUNCH_RETRIES = 5
#: Virtual time one device reset costs (failover, in-place revival and
#: readmission alike), charged to ``Retry``.
DEVICE_RESET_S = 20e-3
#: Kernel-window budget, armed at launch and closed by adsmSync.
KERNEL_DEADLINE_S = 1.0
#: Budget for one whole device-loss ladder, nested losses included.
RECOVERY_DEADLINE_S = 1.0


class RecoveryPolicy:
    """Retry, re-materialisation and degradation decisions for one Gmac."""

    def __init__(self,
                 max_transfer_retries=8,
                 max_oom_retries=4,
                 max_device_recoveries=3,
                 backoff_base_s=20e-6,
                 backoff_factor=2.0,
                 max_backoff_s=5e-3,
                 degrade_threshold=0.15,
                 degrade_min_attempts=24,
                 transfer_deadline_s=2e-3,
                 readmit_after_s=60e-3):
        self.max_transfer_retries = max_transfer_retries
        self.max_oom_retries = max_oom_retries
        self.max_device_recoveries = max_device_recoveries
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.max_backoff_s = max_backoff_s
        self.degrade_threshold = degrade_threshold
        self.degrade_min_attempts = degrade_min_attempts
        self.transfer_deadline_s = transfer_deadline_s
        self.readmit_after_s = readmit_after_s
        self.gmac = None
        #: Virtual-time deadline supervision; built at attach time on
        #: multi-device machines, None elsewhere (zero cost).
        self.watchdog = None
        #: device index -> virtual time at which it may be readmitted.
        self._lost = {}
        self._kernel_guard = None
        #: True while the device-loss ladder runs: a loss declared then
        #: trusts the host checkpoint instead of salvaging.
        self._recovering = False
        # Observed (not plan-side) fault pressure, driving degradation.
        self.transfer_attempts = 0
        self.transfer_faults = 0
        self.stats = {
            "transfer_retries": 0,
            "launch_retries": 0,
            "oom_retries": 0,
            "device_recoveries": 0,
            "failovers": 0,
            "readmissions": 0,
            "rebalances": 0,
            "blocks_rematerialized": 0,
            "blocks_salvaged": 0,
            "short_read_resumes": 0,
            "backoff_s": 0.0,
            "checkpoint_s": 0.0,
            "rematerialize_s": 0.0,
            "degradations": [],
            "watchdog_trips": [],
        }

    def attach(self, gmac):
        self.gmac = gmac
        if getattr(gmac.machine, "multi_device", False):
            self.watchdog = Watchdog(gmac.machine.clock)
            self.stats["watchdog_trips"] = self.watchdog.trips
        return self

    # -- shared plumbing ------------------------------------------------------

    @property
    def _clock(self):
        return self.gmac.machine.clock

    @contextmanager
    def _internal(self):
        """Bracket recovery-internal data movement.

        Recovery fetches and flushes touch device bytes on GMAC's behalf;
        marking them internal keeps the kernel-window race detector from
        attributing that traffic to the application.
        """
        monitor = self.gmac.monitor
        if monitor is None:
            yield
            return
        monitor.enter_internal()
        try:
            yield
        finally:
            monitor.exit_internal()

    def _backoff(self, delay, label):
        """Exponential-backoff wait on the virtual clock, charged to Retry."""
        self._clock.advance(delay)
        self.gmac.accounting.charge(Category.RETRY, delay, label=label)
        self.stats["backoff_s"] += delay

    def _retry(self, attempt, errors, limit, stat, label, exhausted,
               on_failure=None, relieve=None):
        """Run ``attempt`` until it stops raising ``errors``.

        A failure goes to ``on_failure`` (which may escalate by raising);
        past ``limit`` retries it becomes :class:`RecoveryExhausted`, else
        it is counted in ``stats[stat]``, ``relieve`` runs and the clock
        backs off under ``label``.
        """
        delay = self.backoff_base_s
        failures = 0
        while True:
            try:
                return attempt()
            except errors as error:
                failures += 1
                if on_failure is not None:
                    on_failure(error)
                if failures > limit:
                    raise RecoveryExhausted(
                        exhausted(failures),
                        attempts=failures, last_error=error,
                        timestamp=self._clock.now, resource=error.resource,
                    ) from error
                self.stats[stat] += 1
                if relieve is not None:
                    relieve()
                self._backoff(delay, label=label)
                delay = min(delay * self.backoff_factor, self.max_backoff_s)

    @property
    def observed_fault_rate(self):
        if self.transfer_attempts == 0:
            return 0.0
        return self.transfer_faults / self.transfer_attempts

    # -- transient transfer faults -------------------------------------------

    def retry_transfer(self, attempt, label="transfer", device=None):
        """Run one DMA thunk with bounded retry + exponential backoff.

        ``attempt`` performs a single transfer attempt (sync or async
        issue) and raises :class:`TransferError` on an injected fault.

        With the watchdog armed (multi-device machines), the escalation
        ladder applies: retry with backoff while the transfer deadline
        holds, then declare ``device`` lost — after salvaging its
        device-only bytes over the still-intact memory (the link wedged,
        not the die) so the host stays a complete checkpoint.  The raised
        :class:`DeviceLostError` reaches :meth:`recover_device_loss`.
        """
        watchdog = self.watchdog
        guard = None if watchdog is None else watchdog.arm(
            "transfer", self.transfer_deadline_s, label=label
        )

        def counted():
            self.transfer_attempts += 1
            return attempt()

        def on_failure(error):
            self.transfer_faults += 1
            if guard is not None and watchdog.expired(guard):
                raise self._declare_device_lost(
                    guard, device, error
                ) from error

        try:
            return self._retry(
                counted, TransferError, self.max_transfer_retries,
                "transfer_retries", f"backoff:{label}",
                lambda n: f"{label}: still failing after {n} attempts",
                on_failure=on_failure,
            )
        finally:
            if guard is not None:
                watchdog.disarm(guard)

    def _declare_device_lost(self, guard, device, error):
        """Final rung of the transfer escalation ladder.

        Salvages first, except during recovery: the host copy is then the
        checkpoint being replayed and the device only half re-materialised.
        """
        self.watchdog.trip(guard, "declare-device-lost")
        context = self.gmac.layer.context_for(device)
        if not self._recovering:
            self._salvage(context)
        context.alive = False
        return DeviceLostError(
            f"{context.gpu.spec.name} declared lost by watchdog "
            f"after a wedged transfer: {error}",
            timestamp=self._clock.now, resource=context.gpu.spec.name,
            device=context.device_index,
        )

    def _salvage(self, context):
        """Pull device-only bytes home before abandoning a wedged device.

        A watchdog-declared loss means the *path* to the device wedged;
        its memory is still intact, so INVALID blocks (kernel outputs the
        CPU never read) are fetched back first.  This keeps the ADSM
        invariant — the host is a complete checkpoint — true at the moment
        the device is marked dead, which is what makes the subsequent
        host-sourced re-materialisation byte-exact.
        """
        manager = self.gmac.manager
        device = context.device_index
        context.gpu.materialize()
        space = self.gmac.process.address_space
        for region in manager.regions():
            if region.owner != device:
                continue
            table = region.table
            for index in table.indices_in(BlockState.INVALID):
                host_start = table.start_of(index)
                size = table.end_of(index) - host_start
                device_start = region.device_start + (
                    host_start - region.host_start
                )
                # DMA ignores host page protections, like memcpy_d2h.
                # Routed through the ledger entry point (always eager —
                # salvage runs because the device is about to be declared
                # lost, so deferring against its memory would be useless).
                mapping = space.resolve(host_start, size)
                copy_d2h(
                    context.gpu.memory, device_start, mapping,
                    host_start, size, deferred=False,
                )
                context.link.transfer(
                    size, Direction.D2H, label="salvage"
                ).wait()
                self.stats["blocks_salvaged"] += 1

    # -- device OOM ----------------------------------------------------------

    def retry_alloc(self, attempt, protocol, label="cudaMalloc"):
        """Allocate with OOM relief: evict, shrink, back off, retry."""
        return self._retry(
            attempt, CudaOutOfMemoryError, self.max_oom_retries,
            "oom_retries", "backoff:oom",
            lambda n: (
                f"{label}: device OOM persisted after {n} attempts "
                "(eviction and rolling-size shrink did not help)"
            ),
            relieve=protocol.force_evict,
        )

    # -- kernel calls: launch faults and device loss ---------------------------

    def run_call(self, gmac, kernel, written, args):
        """Issue one adsmCall with full recovery around it.

        Retries transient launch rejections with backoff; on device loss,
        re-materialises all regions from host-canonical state and
        re-issues the whole release+launch sequence (the re-issued
        ``pre_call`` re-applies the protocol's invalidations).
        """
        self.maybe_readmit()
        self.maybe_degrade()
        if self._should_checkpoint():
            self.checkpoint()
        while True:
            try:
                completion = self._retry(
                    lambda: gmac._issue_call(kernel, written, args),
                    LaunchError, MAX_LAUNCH_RETRIES,
                    "launch_retries", "backoff:launch",
                    lambda n: (
                        f"launch of {kernel.name!r}: still rejected after "
                        f"{n} attempts"
                    ),
                )
                break
            except DeviceLostError as error:
                self.recover_device_loss(error)
        if self.watchdog is not None:
            self._kernel_guard = self.watchdog.arm(
                "kernel-window", KERNEL_DEADLINE_S, label=kernel.name,
            )
        return completion

    def note_sync(self):
        """adsmSync reached: close the kernel-window deadline.

        The kernel-window guard is observational — a kernel that outlives
        its budget has already produced (deferred) results by the time the
        sync observes it, so the trip is recorded for the chaos report
        rather than escalated.
        """
        guard = self._kernel_guard
        if guard is None or self.watchdog is None:
            return
        self._kernel_guard = None
        if self.watchdog.expired(guard):
            self.watchdog.trip(guard, "observe")
        else:
            self.watchdog.disarm(guard)

    # -- device loss: readmission and rebalance --------------------------------

    def maybe_readmit(self):
        """Readmit flapped devices whose quarantine has elapsed.

        Checked at call boundaries (the same safe point as degradation).
        A readmitted device comes back empty and is immediately eligible
        for placement again; one region migrates onto it right away so a
        recovered device starts absorbing load without waiting for new
        allocations.
        """
        if not self._lost:
            return
        now = self._clock.now
        due = sorted(
            device for device, at in self._lost.items() if now >= at
        )
        for device in due:
            del self._lost[device]
            context = self.gmac.layer.context_for(device)
            context.revive()
            self._backoff(DEVICE_RESET_S, label="readmit")
            if self.gmac.placement is not None:
                self.gmac.placement.mark_alive(device)
            self.stats["readmissions"] += 1
            self._rebalance_onto(device)

    def _rebalance_onto(self, device):
        """Migrate one region from the most-loaded survivor to ``device``."""
        manager = self.gmac.manager
        loads = {}
        for region in manager.regions():
            loads.setdefault(region.owner, []).append(region)
        donors = sorted(
            (owner for owner, regions in loads.items()
             if owner != device and len(regions) > 1),
            key=lambda owner: (-len(loads[owner]), owner),
        )
        if not donors:
            return
        donor = donors[0]
        region = min(loads[donor], key=lambda candidate: candidate.name)
        with self._internal():
            manager.migrate_region(region, device, reason="rebalance")
        self.stats["rebalances"] += 1

    def _should_checkpoint(self):
        """Whether to pay the checkpoint premium before this call.

        Only while the installed plan declares a device-loss hazard that
        has not fired yet — the simulation's stand-in for a deployment
        flag saying "this accelerator is known to fall off the bus" — so
        purely transient fault plans do not pay per-call fetches they
        never need.
        """
        plan = self.gmac.machine.faults
        if plan is None:
            return False
        scheduled = plan.scheduled_device_losses
        return scheduled > 0 and plan.device_losses < scheduled

    def checkpoint(self):
        """Make every block host-canonical at the call boundary.

        Fetches INVALID blocks (outputs of earlier kernels not yet read by
        the CPU) so that, should the device die during the upcoming
        release/launch window, nothing exists only in accelerator memory.
        The cost is part of the reported recovery overhead.
        """
        manager = self.gmac.manager
        start = self._clock.now
        with self._internal():
            for region in manager.regions():
                manager.ensure_host_canonical(region, region.interval)
        self.stats["checkpoint_s"] += self._clock.now - start

    # -- device loss: the re-entrant ladder ------------------------------------

    def recover_device_loss(self, error):
        """Re-materialise the accelerator after a device-lost event.

        Valid precisely because the CPU side holds all coherence state in
        ADSM — the paper's asymmetry is what makes the host a complete
        checkpoint.  A loss declared during a rung (:meth:`_rematerialize`)
        climbs the ladder again.  It ends failed over onto a survivor
        (the lost devices quarantined for readmission), revived in place,
        or in :class:`RecoveryExhausted` after ``max_device_recoveries``
        losses or a blown recovery deadline.
        """
        context = self.gmac.layer.context_for(error.device)
        watchdog = self.watchdog
        guard = None if watchdog is None else watchdog.arm(
            "recovery", RECOVERY_DEADLINE_S,
            label=f"recovery:{context.device_index}",
        )
        start = self._clock.now
        self._recovering = True
        try:
            with self._internal():
                while True:
                    recovered = self.stats["device_recoveries"]
                    if recovered >= self.max_device_recoveries:
                        raise RecoveryExhausted(
                            f"device lost {recovered + 1} times; giving up",
                            attempts=recovered + 1, last_error=error,
                            timestamp=self._clock.now,
                            resource=error.resource,
                        ) from error
                    self.stats["device_recoveries"] += 1
                    try:
                        self._rematerialize(context)
                        break
                    except DeviceLostError as nested:
                        error = nested
                        context = self.gmac.layer.context_for(nested.device)
            self.stats["rematerialize_s"] += self._clock.now - start
            placement = self.gmac.placement
            if placement is not None:
                for device in placement.dead:
                    self._lost.setdefault(
                        device, self._clock.now + self.readmit_after_s
                    )
            if guard is not None and watchdog.expired(guard):
                watchdog.trip(guard, "abort-recovery")
                raise RecoveryExhausted(
                    f"recovery of device {context.device_index} blew its "
                    f"{RECOVERY_DEADLINE_S:g}s recovery deadline",
                    attempts=self.stats["device_recoveries"],
                    last_error=error, timestamp=self._clock.now,
                    resource=error.resource,
                ) from error
        finally:
            self._recovering = False
            if guard is not None:
                watchdog.disarm(guard)

    def _rematerialize(self, context):
        """One rung: reset the lost device, re-place, re-flush from host.

        Fails over when the placement policy has a survivor, else revives
        the device in place.  A nested :class:`DeviceLostError` propagates.
        """
        gmac = self.gmac
        manager = gmac.manager
        placement = gmac.placement
        device = context.device_index
        failover = False
        dead = ()
        if placement is not None:
            placement.mark_dead(device)
            failover = bool(placement.alive_devices())
            if not failover:
                placement.mark_alive(device)
            dead = placement.dead
        # Pin down device bytes first: numerics launched before the loss
        # replay against the dying memory image (in the eager engine they
        # had already run), so recovery is engine-mode independent.
        gmac.layer.materialize_numerics()
        # Reset before re-homing: the lost device's memory is dropped
        # before survivors allocate, and an in-place revival starts empty.
        context.revive()
        if failover:
            # Quarantined until maybe_readmit brings it back.
            context.alive = False
            self.stats["failovers"] += 1
        self._backoff(
            DEVICE_RESET_S, label="failover" if failover else "device-reset"
        )
        regions = sorted(manager.regions(), key=lambda r: r.device_start)
        manager.note_coherence("protocol", detail="device-recovery")
        # Lost regions re-home onto survivors; those staying on the reset
        # device replay their allocation at the old address right before
        # their flush below.
        in_place = set()
        for region in regions:
            if region.owner != device and region.owner not in dead:
                continue
            target = device
            if failover:
                target = placement.pick_survivor(device, region.size)
            if target == region.owner:
                in_place.add(region)
                continue
            new_start = self.retry_alloc(
                lambda: gmac.layer.alloc(region.size, owner=target),
                gmac.protocol,
            )
            region.rehome(new_start, target)
        # Everything re-materialises from the host checkpoint — also the
        # survivors' regions, matching the device-recovery fiat the model
        # checker applies to the whole address space.
        for region in regions:
            if region in in_place:
                context.restore_allocation(region.device_start, region.size)
            for index in range(region.table.n_blocks):
                manager.flush_index(region, index, sync=True)
                self.stats["blocks_rematerialized"] += 1
        gmac.protocol.after_device_recovery(regions)

    # -- degradation -----------------------------------------------------------

    #: rolling -> lazy -> batch; each step trades performance for fewer,
    #: simpler (synchronous, whole-object) transfers under fault pressure.
    DEGRADATION_ORDER = ("rolling", "lazy", "batch")

    def maybe_degrade(self, at_rate=None):
        """Downgrade the protocol when the observed fault rate is too high.

        Called at call boundaries (a safe point: no fault handler or
        transfer is mid-flight).  After a switch the observation window
        resets, so each protocol stage is judged on its own traffic.
        """
        if self.transfer_attempts < self.degrade_min_attempts:
            return None
        rate = self.observed_fault_rate if at_rate is None else at_rate
        if rate <= self.degrade_threshold:
            return None
        current = self.gmac.protocol.name
        try:
            position = self.DEGRADATION_ORDER.index(current)
        except ValueError:
            return None
        if position + 1 >= len(self.DEGRADATION_ORDER):
            return None
        target = self.DEGRADATION_ORDER[position + 1]
        self._switch_protocol(current, target, rate)
        self.transfer_attempts = 0
        self.transfer_faults = 0
        return target

    def _switch_protocol(self, current, target, rate):
        from repro.core.protocols import PROTOCOLS
        from repro.core.blocks import BlockState
        from repro.os.paging import Prot

        gmac = self.gmac
        manager = gmac.manager
        replacement = PROTOCOLS[target](manager)
        if target == "batch":
            # Batch-update runs without protections and treats host copies
            # as always-canonical, so the host must be made whole first.
            with self._internal():
                for region in manager.regions():
                    manager.ensure_host_canonical(region, region.interval)
                    manager.set_region_blocks(region, BlockState.DIRTY, Prot.RW)
        gmac.protocol = replacement
        manager.protocol = replacement
        manager.note_coherence("protocol", detail=target)
        self.stats["degradations"].append(
            {"at": self._clock.now, "from": current, "to": target,
             "observed_rate": round(rate, 4)}
        )

    # -- I/O -------------------------------------------------------------------

    def note_short_read_resume(self):
        self.stats["short_read_resumes"] += 1
