"""The accelerator model.

A :class:`Gpu` owns its device memory and a single execution timeline
(kernels from one application serialize, as on the paper's G280).  Kernel
launches are asynchronous: the launch returns immediately with a
:class:`~repro.sim.resource.Completion` and the host pays the wait at
synchronization time — the behaviour `adsmSync`/`cudaThreadSynchronize`
relies on.

Asymmetry (the core ADSM premise) is enforced here: kernels receive numpy
views of *device* memory only; there is no path from device code to host
mappings.

**Deferred kernel numerics.**  Virtual time is charged per launch (in
:meth:`launch`, exactly as before), but the numpy evaluation of a kernel is
queued by :meth:`enqueue_numerics` and only replayed when something
observes device-memory *bytes* — the :class:`~repro.hw.memory.DeviceMemory`
``on_observe`` hook fires :meth:`materialize`.  Consecutive queued launches
of one kernel whose only differing arguments are in its ``batch_by`` set
are evaluated in a single ``batched_fn`` pass.  Because kernel functions
are pure functions of device bytes (they never touch the clock), deferral
cannot change any figure, trace, or chaos outcome; it only changes *when*
the host-side numpy work happens.  See DESIGN.md §9.
"""

import os

from repro.sim.resource import Resource
from repro.hw.memory import DeviceMemory

#: Process-wide default for deferral; ``Machine(defer_numerics=False)``
#: selects the eager engine (the equivalence golden suite's oracle).
DEFAULT_DEFER_NUMERICS = True

#: Process-wide default for the transfer ledger (DESIGN.md §14);
#: ``REPRO_EAGER_TRANSFERS=1`` restores eager byte-copying transfers
#: (used by the transfer-equivalence golden suite and the CI byte-identity
#: gate).  Engine configuration only — never part of a result cache key.
DEFAULT_DEFER_TRANSFERS = os.environ.get("REPRO_EAGER_TRANSFERS", "0") != "1"


class Gpu:
    """An accelerator: device memory + serialized execution engine."""

    def __init__(self, spec, clock, memory_base=None, trace=False,
                 defer_numerics=None, defer_transfers=None):
        self.spec = spec
        self.clock = clock
        if memory_base is None:
            memory = DeviceMemory(spec.memory_bytes)
        else:
            memory = DeviceMemory(spec.memory_bytes, base=memory_base)
        self._attach_memory(memory)
        self.engine = Resource(f"{spec.name} engine", clock, trace=trace)
        self.kernels_launched = 0
        if defer_numerics is None:
            defer_numerics = DEFAULT_DEFER_NUMERICS
        self.defer_numerics = defer_numerics
        if defer_transfers is None:
            defer_transfers = DEFAULT_DEFER_TRANSFERS
        #: Transfer-ledger mode: when True, D2H copies into bound shared
        #: mappings record ledger entries and H2D copies flush deltas
        #: (DESIGN.md §14).  When False every copy moves bytes eagerly and
        #: no plane is ever created, byte- and trace-identical to the
        #: pre-ledger engine.
        self.defer_transfers = defer_transfers
        #: Pending (kernel, args) numerics in launch order.
        self._queue = []
        #: True while replaying the queue (or running an eager kernel), so
        #: the kernel's own device views do not recursively re-materialize.
        self._replaying = False
        #: Throughput counters (see bench_hotpath's kernel_numerics block):
        #: launches whose numerics have executed, the subset that executed
        #: through a ``batched_fn``, and the number of materialization
        #: flush events.
        self.numerics_rounds = 0
        self.batched_rounds = 0
        self.numerics_flushes = 0

    #: Optional sanitizer hook, called (no arguments) whenever device bytes
    #: are observed outside a numerics replay — *before* materialization,
    #: so the kernel-window race detector sees the observation even if the
    #: materialization barrier itself were broken.  Lives on the Gpu (not
    #: the DeviceMemory) because device resets attach a fresh memory.
    observe_hook = None

    def _attach_memory(self, memory):
        """Install ``memory`` and wire its observation barrier to us."""
        memory.on_observe = self._memory_observed
        self.memory = memory

    def _memory_observed(self):
        if self._replaying:
            return
        if self.observe_hook is not None:
            self.observe_hook()
        self.materialize()

    def reset(self):
        """Device reset after a device-lost event.

        All on-board memory contents and allocations are gone; the caller
        (driver/recovery machinery) is responsible for replaying the
        allocations and re-materialising data from host-canonical state.
        The execution timeline survives — a reset does not rewrite history.

        Numerics queued before the loss replay against the *old* memory
        first: in the eager engine they had already executed at launch
        time, and recovery's host-canonical snapshot must not depend on
        the engine mode.
        """
        self.materialize()
        self._attach_memory(
            DeviceMemory(self.spec.memory_bytes, base=self.memory.base)
        )

    # -- numerics -----------------------------------------------------------

    @property
    def pending_numerics(self):
        """Number of launches whose numerics have not yet executed."""
        return len(self._queue)

    def enqueue_numerics(self, kernel, args):
        """Queue (or, in eager mode, run) one launch's numpy evaluation."""
        if self.defer_numerics:
            self._queue.append((kernel, args))
            return
        self._replaying = True
        try:
            kernel.execute(self, args)
        finally:
            self._replaying = False
        self.numerics_rounds += 1

    def materialize(self):
        """Replay all pending numerics, batching compatible runs."""
        if not self._queue:
            return
        queue, self._queue = self._queue, []
        self.numerics_flushes += 1
        self._replaying = True
        try:
            index, count = 0, len(queue)
            while index < count:
                kernel, args = queue[index]
                upto = index + 1
                if kernel.batched_fn is not None:
                    while (
                        upto < count
                        and queue[upto][0] is kernel
                        and kernel.batch_compatible(args, queue[upto][1])
                    ):
                        upto += 1
                    kernel.execute_batch(
                        self, [entry[1] for entry in queue[index:upto]]
                    )
                    self.batched_rounds += upto - index
                else:
                    kernel.execute(self, args)
                self.numerics_rounds += upto - index
                index = upto
        finally:
            self._replaying = False

    # -- timing -------------------------------------------------------------

    def launch(self, duration, label="kernel", earliest=None):
        """Schedule kernel execution time; returns a Completion."""
        self.kernels_launched += 1
        issue = self.spec.issue_overhead_s
        return self.engine.schedule(
            issue + duration, label=label, earliest=earliest
        )

    def kernel_seconds(self, work_units, bytes_touched=0):
        return self.spec.kernel_seconds(work_units, bytes_touched)

    def synchronize(self):
        """Block the host until all launched kernels have finished.

        Synchronization observes *completions* (virtual time), never device
        bytes, so it deliberately does **not** materialize pending
        numerics — that is what lets back-to-back launch/sync loops (pns)
        accumulate batchable queues.  Any actual byte access after the
        sync still flushes via the memory observation barrier.
        """
        return self.engine.drain()

    def view(self, address, dtype, count):
        """Device-memory numpy view handed to kernel functions."""
        return self.memory.view(address, dtype, count)
