"""End-to-end and per-layer metrics, computed from measured passes.

End-to-end metrics come from untraced passes only.  Host times are medians
over the run's samples; ``virtual_s`` and ``link_mb`` are exact (sums over
the specs that carry no fault plan, so a recovery fix that completes more
faulted specs does not move them).  Per-layer metrics come from one traced
pass; the layers are the ``repro`` packages, and every ``*_s`` host time
is self time (span duration minus what its child spans cover).  Simulated
(virtual) seconds carry the unit ``sim_sec``; host seconds carry ``s``.
Host-time shares that are zero by construction on some workloads (pool
dispatch on serial workloads, the recovery ladder on fault-free ones) are
reported as ratios of the time they are part of.  Names, units, bounds and
better-directions are declared once, in ``BENCHMARK.json``.
"""

import math
import statistics

from suite import gmac_slowdown, link_mb, virtual_s


def _breakdown_names():
    from repro.sim.tracing import Category

    return [(category, f"sim.breakdown.{category.name.lower()}_virtual_s")
            for category in Category]


def _ratio(part, whole):
    return part / whole if whole else 0.0


def end_to_end(setup_samples, passes, peak_rss_mb):
    """``{name: (value, samples)}``; ``samples`` lists host-time samples."""
    first = passes[0]
    walls = [p.wall_s for p in passes]
    cpus = [p.cpu_s for p in passes]
    return {
        "setup_s": (statistics.median(setup_samples), setup_samples),
        "sweep_s": (statistics.median(walls), walls),
        "cpu_s": (statistics.median(cpus), cpus),
        "peak_rss_mb": (peak_rss_mb, None),
        "virtual_s": (virtual_s(first), None),
        "link_mb": (link_mb(first), None),
    }


def failed_frac(result):
    return len(result.failed()) / len(result.outcomes)


def per_layer(untraced, traced, totals, spec_counts, spec_spans_s):
    """Per-layer metrics of one traced run.

    ``untraced`` and ``traced`` are the run's two passes over the same
    specs; ``totals`` maps span name to ``(calls, total_s, self_s)``;
    ``spec_counts`` maps spec id to the live-object counters read after it
    ran; ``spec_spans_s`` lists the traced ``RunSpec.execute`` durations.
    """

    def calls(*names):
        return sum(totals.get(name, (0, 0.0, 0.0))[0] for name in names)

    def self_s(*names):
        return math.fsum(totals.get(name, (0, 0.0, 0.0))[2] for name in names)

    def total_s(*names):
        return math.fsum(totals.get(name, (0, 0.0, 0.0))[1] for name in names)

    def count(key):
        found = [counts[key] for counts in spec_counts.values()]
        if any(isinstance(value, float) for value in found):
            return math.fsum(found)
        return sum(found)

    done = [o for o in traced.outcomes if o is not None]
    pool = untraced.pool_counters
    kernel_s = self_s("workloads.kernel")
    ledger_moved = (count("ledger.bytes_materialized")
                    + count("ledger.flush_bytes_copied"))
    # Same definition as repro.hw.memory.ledger_counters' elided_fraction,
    # summed over specs (pool workers keep their own process counters).
    ledger_offered = (count("ledger.bytes_deferred")
                      + count("ledger.flush_bytes_copied")
                      + count("ledger.flush_bytes_skipped"))
    faulted = [i for i, counts in spec_counts.items() if counts["injected"]]
    survived = [i for i in faulted if traced.outcomes[i] is not None
                and traced.outcomes[i].verified]
    all_virtual = math.fsum(o.elapsed for o in done)
    values = {
        "experiments.spec_ms": (
            statistics.median(spec_spans_s) * 1e3 if spec_spans_s else 0.0
        ),
        "experiments.pool.dispatch_frac": _ratio(
            pool.get("dispatch_overhead_us", 0) / 1e6,
            untraced.jobs * untraced.wall_s),
        "experiments.pool.busy_frac": _ratio(
            math.fsum(untraced.spec_s), untraced.jobs * untraced.wall_s),
        "experiments.pool.respawns": pool.get("worker_respawns", 0),
        "experiments.pool.inline_fallbacks": pool.get(
            "plane_inline_fallbacks", 0),
        "experiments.failed_frac": failed_frac(untraced),
        "workloads.kernel_s": kernel_s,
        "workloads.kernel_share": _ratio(kernel_s, math.fsum(spec_spans_s)),
        "workloads.reference_s": total_s("workloads.reference"),
        "cuda.launches": calls("cuda.launch"),
        "cuda.launch_s": self_s("cuda.launch"),
        "cuda.numerics_rounds": count("numerics_rounds"),
        "cuda.batched_frac": _ratio(count("batched_rounds"),
                                    count("numerics_rounds")),
        "cuda.numerics_flushes": count("numerics_flushes"),
        "hw.copy_h2d": calls("hw.copy_h2d"),
        "hw.copy_d2h": calls("hw.copy_d2h"),
        "hw.copy_s": self_s("hw.copy_h2d", "hw.copy_d2h"),
        "hw.ledger.elided_frac": (
            1.0 - ledger_moved / ledger_offered if ledger_offered else 0.0
        ),
        "hw.ledger.bytes_materialized": count("ledger.bytes_materialized"),
        "hw.ledger.cow_snapshots": count("ledger.cow_snapshots"),
        "hw.ledger.flush_bytes_copied": count("ledger.flush_bytes_copied"),
        "hw.link.transfers": count("link_transfers"),
        "hw.link.busy_virtual_s": count("link_busy_s"),
        "hw.gpu.busy_virtual_s": count("gpu_busy_s"),
        "os.segv": calls("os.segv"),
        "os.segv_s": self_s("os.segv"),
        "os.mprotect": calls("os.mprotect"),
        "os.mprotect_s": self_s("os.mprotect"),
        "core.faults": count("fault_events"),
        "core.block_transitions": count("block_transitions"),
        "core.evictions": count("evictions"),
        "core.eviction_stall_virtual_s": count("eviction_stall_s"),
        "core.handler_s": self_s("core.handler"),
        "core.bytes_to_accelerator": sum(o.bytes_to_accelerator for o in done),
        "core.bytes_to_host": sum(o.bytes_to_host for o in done),
        "util.avl_inserts": calls("util.avl_insert"),
        "util.avl_search_steps": count("avl_search_steps"),
        "util.avl_s": self_s("util.avl_insert", "util.avl_floor"),
        "sim.resource_ops": count("resource_ops"),
        "sim.resource_s": self_s("sim.resource"),
        "sim.host_s_per_virtual_s": _ratio(untraced.wall_s, all_virtual),
        "sim.gmac_slowdown": gmac_slowdown(traced),
    }
    for category, name in _breakdown_names():
        values[name] = math.fsum(o.breakdown.get(str(category), 0.0)
                                 for o in done)
    values.update({
        "faults.injected": count("injected"),
        "recovery.transfer_retries": count("recovery.transfer_retries"),
        "recovery.device_recoveries": count("recovery.device_recoveries"),
        "recovery.failovers": count("recovery.failovers"),
        "recovery.blocks_rematerialized": count(
            "recovery.blocks_rematerialized"),
        "recovery.backoff_virtual_s": count("recovery.backoff_s"),
        "recovery.ladder_frac": _ratio(
            self_s("recovery.retry_transfer", "recovery.recover_device_loss"),
            math.fsum(spec_spans_s)),
        "recovery.survived_frac": _ratio(len(survived), len(faulted)),
        "trace.overhead_frac": traced.wall_s / untraced.wall_s - 1.0,
    })
    return values
