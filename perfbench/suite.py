"""Workloads, measured passes and metrics of the paper-scale benchmark.

A *pass* executes every spec of a workload once, after pass isolation
(:func:`isolate`).  Serial workloads call ``RunSpec.execute`` per spec and
count a spec that raises, or returns ``verified=False``, as failed; the
pooled workload primes the specs through ``ExperimentExecutor`` with a
throwaway ``ResultCache``.  Every pass hashes the specs' canonical bytes
(:meth:`PassResult.digest`), which must agree across the passes of a run.
"""

import dataclasses
import gc
import hashlib
import math
import os
import shutil
import sys
import time

#: Registry inputs seed: workload constructors default to it, so the
#: default benchmark seed reproduces the registry's specs unchanged.
DEFAULT_SEED = 7

#: The six paper figures with spec hooks (fig7..fig12).
PAPER_FIGURES = ("fig7", "fig8", "fig9", "fig10", "fig11", "fig12")


@dataclasses.dataclass(frozen=True)
class Workload:
    """A workload's specs and how they run; why it was chosen is recorded
    with its name in ``BENCHMARK.json``."""

    name: str
    experiments: tuple
    pooled: bool


WORKLOADS = {
    w.name: w for w in (
        Workload("paper-sweep", PAPER_FIGURES, False),
        Workload("fault-storm", ("fig11", "fig12"), False),
        Workload("recovery", ("failover", "chaos"), False),
        Workload("pooled-sweep", PAPER_FIGURES, True),
    )
}


def expand_specs(workload, seed):
    """The workload's paper-scale specs, with inputs re-seeded to ``seed``.

    The registry's fault-plan seeds are left alone: only the workload
    inputs change with the seed.
    """
    from repro.experiments.executor import expand

    specs = expand(list(workload.experiments))
    if seed == DEFAULT_SEED:
        return specs
    reseeded = []
    for spec in specs:
        params = dict(spec.params)
        params["seed"] = seed
        reseeded.append(
            dataclasses.replace(spec, params=tuple(sorted(params.items())))
        )
    return reseeded


def set_up(specs):
    """Build the memoized inputs and reference outputs the specs use.

    Also retains freed buffers in the malloc arena first, as the
    experiments CLI does before any sweep.
    """
    from repro.experiments.pool import distinct_configs, rebuild_memoized_inputs
    from repro.util.hostalloc import retain_arena

    retain_arena()
    return rebuild_memoized_inputs(distinct_configs(specs))


def clear_value_memos():
    """Forget every kernel-evaluation memo, so each pass computes afresh.

    The memos are keyed by input bytes, so a later pass over the same
    specs would otherwise skip the kernel numerics the first one ran.
    """
    from repro.workloads.base import ValueMemo

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.workloads") and module is not None:
            for value in vars(module).values():
                if isinstance(value, ValueMemo):
                    value.clear()


def isolate():
    """Pass isolation: no state from an earlier pass reaches the next."""
    from repro.experiments import common
    from repro.hw.memory import reset_ledger_counters

    common.clear_cache()
    reset_ledger_counters()
    clear_value_memos()
    gc.collect()


@dataclasses.dataclass
class PassResult:
    """One pass: per-spec outcomes (or error names) and its host costs."""

    outcomes: list            # SpecOutcome, or None where the spec raised
    errors: list              # exception type name, or None
    spec_s: list              # per-spec host seconds
    wall_s: float
    cpu_s: float
    pool_counters: dict = dataclasses.field(default_factory=dict)
    jobs: int = 1

    def failed(self):
        """Indexes of specs that raised or returned ``verified=False``."""
        return [
            i for i, (outcome, error) in enumerate(zip(self.outcomes,
                                                       self.errors))
            if error is not None or not outcome.verified
        ]

    def _canonical(self):
        for outcome, error in zip(self.outcomes, self.errors):
            yield (outcome.canonical_bytes() if outcome is not None
                   else f"raised:{error}".encode())

    def spec_digests(self):
        return [hashlib.sha256(data).hexdigest() for data in self._canonical()]

    def digest(self):
        """sha256 of the pass's concatenated canonical outcome bytes."""
        digest = hashlib.sha256()
        for data in self._canonical():
            digest.update(data)
        return digest.hexdigest()


def _cpu_seconds():
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_serial_pass(specs):
    outcomes, errors, spec_s = [], [], []
    cpu = _cpu_seconds()
    started = time.perf_counter()
    for spec in specs:
        begun = time.perf_counter()
        try:
            outcomes.append(spec.execute())
            errors.append(None)
        except Exception as error:  # a failing spec is counted, not fatal
            outcomes.append(None)
            errors.append(type(error).__name__)
        spec_s.append(time.perf_counter() - begun)
    wall = time.perf_counter() - started
    return PassResult(outcomes, errors, spec_s, wall, _cpu_seconds() - cpu)


def run_pooled_pass(specs, cache_dir, jobs, absorb=None):
    """One pass on the persistent pool with a fresh private result cache.

    ``absorb`` receives each outcome in the parent (the traced run uses it
    to collect what the workers recorded).
    """
    from repro.experiments import common
    from repro.experiments.cache import ResultCache
    from repro.experiments.executor import ExperimentExecutor

    shutil.rmtree(cache_dir, ignore_errors=True)
    cpu = _cpu_seconds()
    started = time.perf_counter()
    error = None
    executor = ExperimentExecutor(jobs=jobs, cache_dir=cache_dir,
                                  pool="persistent")
    try:
        with executor.cache_context():
            try:
                executor.prime(specs)
            except Exception as raised:  # the pass failed; count its specs
                error = type(raised).__name__
            outcomes = [common.peek(spec) for spec in specs]
    finally:
        executor.close()
    wall = time.perf_counter() - started
    cpu = _cpu_seconds() - cpu
    timings = ResultCache(cache_dir).timings()
    spec_s = [timings.get(ResultCache.timing_key(spec), 0.0) for spec in specs]
    shutil.rmtree(cache_dir, ignore_errors=True)
    if absorb is not None:
        for outcome in outcomes:
            if outcome is not None:
                absorb(outcome)
    errors = [error if outcome is None else None for outcome in outcomes]
    return PassResult(outcomes, errors, spec_s, wall, cpu,
                      pool_counters=executor.counters.snapshot(), jobs=jobs)


# -- exact metrics from outcomes ----------------------------------------------


def fault_free(result):
    """Completed outcomes of specs that carry no fault plan."""
    return [o for o in result.outcomes
            if o is not None and o.spec.fault_plan is None]


def virtual_s(result):
    return math.fsum(o.elapsed for o in fault_free(result))


def link_mb(result):
    return sum(
        sum(o.link_bytes_moved.values()) for o in fault_free(result)
    ) / 1e6


def gmac_slowdown(result):
    """Geometric mean of GMAC-rolling over CUDA elapsed (Fig. 7), or 0.

    Pairs a CUDA spec with the default GMAC rolling spec of the same
    workload configuration; 0 when the workload holds no such pair.
    """
    cuda, gmac = {}, {}
    for outcome in result.outcomes:
        if outcome is None:
            continue
        spec = outcome.spec
        key = (spec.workload, spec.params)
        if spec.mode == "cuda":
            cuda[key] = outcome.elapsed
        elif (spec.mode == "gmac" and spec.protocol == "rolling"
              and spec.layer == "runtime" and not spec.protocol_options
              and spec.fault_plan is None and spec.devices == 1
              and not spec.peer_dma and spec.machine == "reference"):
            gmac[key] = outcome.elapsed
    ratios = [gmac[key] / cuda[key] for key in sorted(cuda) if key in gmac]
    if not ratios:
        return 0.0
    return math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios))


# -- host-time summaries --------------------------------------------------------

#: Percentiles considered for the tail report, highest last.
_TAIL_PERCENTILES = (50, 90, 99, 99.9)


def tail(samples):
    """``(percentile, value)``: the highest percentile with >= 10 samples
    beyond it, or None when there are too few samples for any."""
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for percentile in _TAIL_PERCENTILES:
        beyond = n - math.ceil(n * percentile / 100)
        if beyond >= 10:
            best = (percentile, ordered[math.ceil(n * percentile / 100) - 1])
    return best

