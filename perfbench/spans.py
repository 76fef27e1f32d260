"""Span recording and layer instrumentation for the traced benchmark run.

The simulator itself carries no tracing hooks, so the traced run measures
each layer from outside: :class:`Instrumentation` replaces a fixed set of
public entry points (one per layer boundary, see :data:`SPAN_POINTS`) with
wrappers that record a span around the original call, and captures the
live ``Machine`` and protocol objects each spec builds so their counters
can be read once the spec finishes.  :meth:`Instrumentation.uninstall`
restores every original, so untraced passes run the unmodified code.

Spans live in memory as flat columns (:class:`SpanRecorder`) and are
written out once, when the run ends.  A layer's self time is a span's
duration minus the part of it covered by its child spans
(:func:`self_times`).
"""

import functools
import importlib
import os
import time
from array import array

#: (span name, module, class or None, attribute).  The span name's first
#: component is the layer (the ``repro`` package) it is charged to.
SPAN_POINTS = (
    ("workloads.kernel", "repro.hw.gpu", "Gpu", "materialize"),
    ("workloads.kernel", "repro.hw.gpu", "Gpu", "enqueue_numerics"),
    ("workloads.reference", "repro.experiments.pool", None,
     "rebuild_memoized_inputs"),
    # Both CUDA-mode (CudaRuntime) and GMAC launches pass through here.
    ("cuda.launch", "repro.cuda.driver", "DriverContext", "launch"),
    ("hw.copy_h2d", "repro.hw.memory", None, "copy_h2d"),
    ("hw.copy_d2h", "repro.hw.memory", None, "copy_d2h"),
    # recovery.py binds copy_d2h by name at import time.
    ("hw.copy_d2h", "repro.core.recovery", None, "copy_d2h"),
    ("os.segv", "repro.os.signals", "SignalDispatcher", "deliver"),
    ("os.mprotect", "repro.os.address_space", "AddressSpace", "mprotect"),
    ("util.avl_insert", "repro.util.avltree", "AvlTree", "insert"),
    ("util.avl_floor", "repro.util.avltree", "AvlTree", "floor_steps"),
    ("sim.resource", "repro.sim.resource", "Resource", "schedule"),
    ("sim.resource", "repro.sim.resource", "Resource", "schedule_many"),
    ("recovery.retry_transfer", "repro.core.recovery", "RecoveryPolicy",
     "retry_transfer"),
    ("recovery.recover_device_loss", "repro.core.recovery",
     "RecoveryPolicy", "recover_device_loss"),
)

SPEC_SPAN = "experiments.spec"
HANDLER_SPAN = "core.handler"

#: Machine constructors wrapped to capture each spec's live machines.
MACHINE_BUILDERS = ("reference_system", "multi_device_system",
                    "integrated_system")

_COLUMNS = (("name", "i"), ("parent", "i"), ("spec", "i"),
            ("start", "d"), ("end", "d"))


class SpanRecorder:
    """In-memory spans as parallel columns: name id, parent, spec, times.

    Spans are opened and closed in call order on one thread, so the open
    spans form a stack and the top of it is the parent of the next span.
    """

    def __init__(self):
        self.names = []
        self._ids = {}
        for column, code in _COLUMNS:
            setattr(self, column, array(code))
        self.spec_id = -1
        self._stack = []

    def __len__(self):
        return len(self.start)

    def name_id(self, name):
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.spec.append(self.spec_id)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def take(self, first):
        """Remove and return spans ``first..`` as a picklable payload."""
        payload = {"names": list(self.names)}
        for column, code in _COLUMNS:
            values = getattr(self, column)
            payload[column] = values[first:]
            del values[first:]
        return payload

    def extend(self, payload):
        """Append spans taken from another recorder (a pool worker)."""
        offset = len(self.start)
        remap = [self.name_id(name) for name in payload["names"]]
        self.name.extend(remap[n] for n in payload["name"])
        self.parent.extend(
            p + offset - payload["first"] if p >= payload["first"] else -1
            for p in payload["parent"]
        )
        self.spec.extend(payload["spec"])
        self.start.extend(payload["start"])
        self.end.extend(payload["end"])

    def save(self, path):
        """Write every span to ``path`` as numpy columns (``.npz``)."""
        import numpy as np

        np.savez(path, names=np.array(self.names), **{
            column: np.frombuffer(getattr(self, column), dtype=code)
            for column, code in (("name", "i4"), ("parent", "i4"),
                                 ("spec", "i4"), ("start", "f8"),
                                 ("end", "f8"))
        })


def self_times(start, end, parent):
    """Per-span self time: duration minus the union of child intervals.

    Child intervals are clipped to their parent's, and overlapping
    children are merged before subtracting, so time two children cover
    at once is subtracted once.
    """
    children = {}
    for index, owner in enumerate(parent):
        if owner >= 0:
            children.setdefault(owner, []).append(index)
    result = [e - s for s, e in zip(start, end)]
    for owner, kids in children.items():
        lo, hi = start[owner], end[owner]
        covered = 0.0
        run_lo = run_hi = None
        for kid_lo, kid_hi in sorted(
            (max(start[k], lo), min(end[k], hi)) for k in kids
        ):
            if kid_hi <= kid_lo:
                continue
            if run_hi is None or kid_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = kid_lo, kid_hi
            else:
                run_hi = max(run_hi, kid_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        result[owner] -= covered
    return result


def totals_by_name(recorder):
    """``{name: (calls, total seconds, self seconds)}`` over all spans."""
    own = self_times(recorder.start, recorder.end, recorder.parent)
    totals = {}
    for i, name_id in enumerate(recorder.name):
        name = recorder.names[name_id]
        calls, total, self_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, total + recorder.end[i] - recorder.start[i],
                        self_s + own[i])
    return totals


#: RecoveryPolicy.stats entries summed per spec.
RECOVERY_STATS = ("transfer_retries", "device_recoveries", "failovers",
                  "blocks_rematerialized", "backoff_s")


def spec_counters(machines, protocols, policies, ledger_before, ledger_after):
    """The live-object counters of one spec, as a flat dict of numbers."""
    from repro.hw.interconnect import Direction

    counts = {
        "numerics_rounds": 0, "batched_rounds": 0, "numerics_flushes": 0,
        "gpu_busy_s": 0.0, "link_transfers": 0, "link_busy_s": 0.0,
        "resource_ops": 0, "block_transitions": 0, "fault_events": 0,
        "evictions": 0, "eviction_stall_s": 0.0, "injected": 0,
    }
    for key in RECOVERY_STATS:
        counts["recovery." + key] = 0
    for policy in policies:
        for key in RECOVERY_STATS:
            counts["recovery." + key] += policy.stats[key]
    for machine in machines:
        for gpu in machine.gpus:
            counts["numerics_rounds"] += gpu.numerics_rounds
            counts["batched_rounds"] += gpu.batched_rounds
            counts["numerics_flushes"] += gpu.numerics_flushes
            counts["gpu_busy_s"] += gpu.engine.busy_time
            counts["resource_ops"] += gpu.engine.operation_count
        for link in machine.links:
            counts["link_transfers"] += sum(link.transfer_count.values())
            for direction in (Direction.H2D, Direction.D2H):
                resource = link.resource(direction)
                counts["link_busy_s"] += resource.busy_time
                counts["resource_ops"] += resource.operation_count
        counts["resource_ops"] += machine.disk.resource.operation_count
        counts["block_transitions"] += machine.accounting.block_transitions
        counts["fault_events"] += machine.accounting.fault_events
        if machine.faults is not None:
            counts["injected"] += machine.faults.injected_total
    for protocol in protocols:
        counts["evictions"] += getattr(protocol, "evictions", 0)
        counts["eviction_stall_s"] += getattr(protocol, "eviction_stall_s", 0.0)
    for key, value in ledger_after.items():
        if key != "elided_fraction":
            counts["ledger." + key] = value - ledger_before.get(key, 0)
    return counts


class Instrumentation:
    """Installs span wrappers on the layer boundaries; restores on exit.

    ``spec_index`` maps each spec to its position in the workload, which
    becomes the spec id of every span recorded while it executes.  Specs
    executed in a pool worker (a forked copy of this object) ship their
    spans and counters back on the outcome, under :data:`PAYLOAD_ATTR`,
    which :func:`repro.experiments.spec.SpecOutcome.canonical_bytes`
    ignores because it is not a dataclass field.
    """

    PAYLOAD_ATTR = "perfbench_trace"

    def __init__(self, recorder, spec_index):
        self.recorder = recorder
        self.spec_index = spec_index
        self.spec_counts = {}
        self.avl_steps = 0
        self._restore = []
        self._machines = []
        self._protocols = []
        self._policies = []
        self._handlers = {}
        self._pid = os.getpid()

    # -- install / uninstall ------------------------------------------------

    def install(self):
        for span, module_name, class_name, attr in SPAN_POINTS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr] if class_name else getattr(owner, attr)
            wrapper = (self._floor_wrapper if attr == "floor_steps"
                       else self._span_wrapper)(span, original)
            self._patch(owner, attr, original, wrapper)
        self._install_spec_wrapper()
        self._install_capture()
        self._install_handler_wrapper()
        return self

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        self._handlers.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, exc_type, exc, tb):
        self.uninstall()
        return False

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, span, original):
        recorder = self.recorder
        name_id = recorder.name_id(span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                return original(*args, **kwargs)
            finally:
                recorder.close(index)

        return wrapper

    def _floor_wrapper(self, span, original):
        """``AvlTree.floor_steps`` also counts the search steps it returns."""
        recorder = self.recorder
        name_id = recorder.name_id(span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = recorder.open(name_id)
            try:
                found = original(*args, **kwargs)
            finally:
                recorder.close(index)
            self.avl_steps += found[1]
            return found

        return wrapper

    def _install_spec_wrapper(self):
        from repro.experiments.spec import RunSpec
        from repro.hw.memory import ledger_counters

        original = RunSpec.__dict__["execute"]
        recorder = self.recorder
        name_id = recorder.name_id(SPEC_SPAN)

        @functools.wraps(original)
        def execute(spec):
            spec_id = self.spec_index.get(spec, -1)
            recorder.spec_id = spec_id
            first = len(recorder)
            self._machines, self._protocols, self._policies = [], [], []
            self._handlers.clear()
            self.avl_steps = 0
            before = ledger_counters()
            index = recorder.open(name_id)
            outcome = None
            try:
                outcome = original(spec)
                return outcome
            finally:
                recorder.close(index)
                counts = spec_counters(self._machines, self._protocols,
                                       self._policies, before,
                                       ledger_counters())
                counts["avl_search_steps"] = self.avl_steps
                self._machines, self._protocols, self._policies = [], [], []
                recorder.spec_id = -1
                if os.getpid() == self._pid:
                    self.spec_counts[spec_id] = counts
                elif outcome is not None:
                    payload = recorder.take(first)
                    payload["first"] = first
                    payload["counts"] = counts
                    payload["spec_id"] = spec_id
                    setattr(outcome, self.PAYLOAD_ATTR, payload)

        self._patch(RunSpec, "execute", original, execute)

    def absorb(self, outcome):
        """Merge the spans and counters a pool worker attached to ``outcome``."""
        payload = outcome.__dict__.pop(self.PAYLOAD_ATTR, None)
        if payload is None:
            return False
        self.recorder.extend(payload)
        self.spec_counts[payload["spec_id"]] = payload["counts"]
        return True

    def _install_capture(self):
        from repro.core.protocols.base import Protocol
        from repro.core.recovery import RecoveryPolicy
        from repro.hw import machine as machine_module

        for builder in MACHINE_BUILDERS:
            original = getattr(machine_module, builder)

            @functools.wraps(original)
            def build(*args, _original=original, **kwargs):
                built = _original(*args, **kwargs)
                self._machines.append(built)
                return built

            self._patch(machine_module, builder, original, build)

        for cls, captured in ((Protocol, "_protocols"),
                              (RecoveryPolicy, "_policies")):
            original_init = cls.__dict__["__init__"]

            @functools.wraps(original_init)
            def init(instance, *args, _original=original_init,
                     _captured=captured, **kwargs):
                _original(instance, *args, **kwargs)
                getattr(self, _captured).append(instance)

            self._patch(cls, "__init__", original_init, init)

    def _install_handler_wrapper(self):
        """Wrap each handler passed to ``SignalDispatcher.register``.

        The dispatcher deduplicates re-registrations by equality, so one
        wrapper is kept per handler and reused; ``unregister`` is mapped
        back to that wrapper.
        """
        from repro.os.signals import SignalDispatcher

        recorder = self.recorder
        name_id = recorder.name_id(HANDLER_SPAN)
        handlers = self._handlers
        original_register = SignalDispatcher.__dict__["register"]
        original_unregister = SignalDispatcher.__dict__["unregister"]

        def wrapped(handler):
            found = handlers.get(handler)
            if found is None:
                @functools.wraps(handler)
                def found(info):
                    index = recorder.open(name_id)
                    try:
                        return handler(info)
                    finally:
                        recorder.close(index)
                # The dispatcher's default registration name is derived
                # from ``__qualname__`` and ``__self__``; keep both.
                owner = getattr(handler, "__self__", None)
                if owner is not None:
                    found.__self__ = owner
                handlers[handler] = found
            return found

        @functools.wraps(original_register)
        def register(dispatcher, handler, name=None):
            original_register(dispatcher, wrapped(handler), name=name)
            return handler

        @functools.wraps(original_unregister)
        def unregister(dispatcher, handler):
            original_unregister(dispatcher, handlers.get(handler, handler))

        self._patch(SignalDispatcher, "register", original_register, register)
        self._patch(SignalDispatcher, "unregister", original_unregister,
                    unregister)
