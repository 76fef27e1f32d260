"""pns — Petri Net Simulation (Table 2).

The structure that matters for Figure 7: two large device-resident objects
(the marking vector and the transition structure) that the CPU writes once
and then never touches, iterated over by *many* kernel calls, with a small
statistics object the CPU samples occasionally.  The hand-tuned CUDA code
performs no per-iteration transfers at all; lazy- and rolling-update match
it because only the small statistics region ever faults back.  Batch-update
re-transfers both large objects in both directions around every call —
the source of the paper's 65.18x slow-down, the largest in Figure 7.
"""

import numpy as np

from repro.util.units import MB
from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input

CPU_STREAM_RATE = 4.0e9

#: Deterministic update constants for the abstract firing rule.
FIRE_MULTIPLIER = np.int32(1103515245 & 0x7FFF)
FIRE_INCREMENT = np.int32(12345)
TOKEN_LIMIT = np.int32(255)


def oracle_round(state, transition_seed):
    """One synchronous firing round on ``uint8`` residues (the reference's).

    The int32 rule is ``(x * M + left + INC + seed) & 0x7FFFFFFF & 255``;
    the two masks are just ``& 255`` and int32 wrap-around is consistent
    mod 256, so the round is exact on residues with every constant reduced
    mod 256.  Written apart from :func:`fire_sweep` on purpose: it rotates
    with ``np.roll`` and returns a fresh array, so a slip in the kernel's
    in-place neighbour update is not shared by the oracle that checks it.
    """
    multiplier = np.uint8(int(FIRE_MULTIPLIER) % 256)
    increment = np.uint8((int(FIRE_INCREMENT) + int(transition_seed)) % 256)
    return state * multiplier + np.roll(state, 1) + increment


def fire_sweep(marking, seeds):
    """``len(seeds)`` firing rounds computed exactly in ``uint8``.

    Byte-for-byte the low bytes of iterating the int32 firing rule with
    each seed in turn: every round is
    ``(x * (M mod 256) + left + ((INC + seed) mod 256)) mod 256`` on the
    residues alone.  The unsafe ``astype`` narrowing wraps mod 256,
    so any int32 marking is a valid input.  Rounds ping-pong between two
    ``uint8`` buffers (a quarter of the int32 memory traffic); the final
    residues are returned for the caller to widen where it stores them.
    """
    multiplier = np.uint8(int(FIRE_MULTIPLIER) & 0xFF)
    increments = (
        (int(FIRE_INCREMENT) + np.asarray(seeds, dtype=np.int64)) & 0xFF
    ).astype(np.uint8)
    state = marking.astype(np.uint8)
    spare = np.empty_like(state)
    for increment in increments:
        mixed = np.multiply(state, multiplier, out=spare)
        mixed[1:] += state[:-1]
        # A slice, not a 0-d scalar: scalar ``+=`` warns on uint8 overflow.
        mixed[:1] += state[-1:]
        mixed += increment
        state, spare = mixed, state
    return state


def _write_stats(counters, marking, iteration):
    counters[0] = np.int32(iteration + 1)
    counters[1] = np.int32(int(marking[:256].sum()) & 0x7FFFFFFF)
    counters[2] = np.int32(int(marking.max()))


def _pns_fn(gpu, places, transitions, stats, n_places, iteration):
    # The transition structure enters the firing rule through a per-round
    # seed; the cost model charges the full streaming traffic.
    _fire_rounds(
        gpu.view(places, "i4", n_places),
        gpu.view(transitions, "i4", n_places),
        gpu.view(stats, "i4", 16),
        [iteration],
    )


#: Byte-exact reuse of whole batched sweeps: figure sweeps run the same
#: marking trajectory once per mode/protocol/figure, so each (input
#: marking, seed vector) recurs many times.  Keyed by sweep length so the
#: flush-per-iteration protocols (length-1 sweeps) cannot churn the
#: entries of the deep-queue ones.
_SWEEP_MEMO = ValueMemo(max_entries=12)


def _fire_rounds(marking, weights, stats, iterations):
    """Fire one round per entry of ``iterations``; store the final state.

    Seeds for every round are gathered in one vectorized lookup, the
    rounds run as one :func:`fire_sweep`, and only the *final* marking
    and statistics are stored.
    """
    iterations = np.asarray(iterations, dtype=np.int64)
    # Bit-identical to np.int32(int(w) & 0xFFFF) per round: the mask keeps
    # every value non-negative and well inside int32.
    seeds = weights[iterations % 1024] & np.int32(0xFFFF)
    key = (marking.shape[0], len(iterations))
    inputs = (marking, seeds, iterations)
    cached = _SWEEP_MEMO.lookup(key, inputs)
    if cached is None:
        final = fire_sweep(marking, seeds)
        # ``final`` is a fresh buffer, so the memo (which snapshots the
        # inputs first) may keep it as is; the writeback widens it.
        cached = _SWEEP_MEMO.store(key, inputs, (final,))
    marking[:] = cached[0]
    _write_stats(stats, cached[0], int(iterations[-1]))


def _pns_batched(gpu, launches):
    """K deferred firing rounds in one sweep.

    The transition structure is constant across the batch — it is not in
    ``batch_by``, and any host write to it would have flushed the queue —
    and intermediate device states are unobservable between
    materialization barriers by construction, so the resulting device
    bytes are identical to running ``_pns_fn`` K times while skipping K-1
    full-vector stat reductions and writebacks.
    """
    first = launches[0]
    n_places = first["n_places"]
    _fire_rounds(
        gpu.view(first["places"], "i4", n_places),
        gpu.view(first["transitions"], "i4", n_places),
        gpu.view(first["stats"], "i4", 16),
        [launch["iteration"] for launch in launches],
    )


#: ~8 integer ops per place per round; markings stay in on-chip shared
#: memory, so off-chip traffic is a fraction of the marking size.
PNS_KERNEL = Kernel(
    "pns",
    _pns_fn,
    cost=lambda places, transitions, stats, n_places, iteration: (
        8 * n_places,
        2 * n_places,
    ),
    writes=("places", "stats"),
    batched_fn=_pns_batched,
    batch_by=("iteration",),
)


@access_modes(places="rw", transitions="ro", stats="rw")
class PetriNet(Workload):
    name = "pns"
    description = "generic Petri net simulation, many short kernel calls"

    def __init__(self, n_places=(8 * MB) // 4, iterations=160,
                 sample_interval=16, seed=7):
        super().__init__(seed=seed)
        self.n_places = n_places
        self.iterations = iterations
        self.sample_interval = sample_interval
        def build():
            rng = np.random.default_rng(seed)
            initial = rng.integers(0, 64, size=n_places, dtype=np.int32)
            transitions = rng.integers(
                0, 1 << 16, size=n_places, dtype=np.int32
            )
            return initial, transitions

        self.initial, self.transitions = memoized_input(
            ("pns", n_places, seed), build
        )

    @property
    def places_bytes(self):
        return 4 * self.n_places

    STATS_BYTES = 64

    def _seed_for(self, iteration):
        return np.int32(int(self.transitions[iteration % 1024]) & 0xFFFF)

    def reference(self):
        # The initial marking lies in [0, 64), so its residues are itself.
        marking = self.initial.astype(np.uint8)
        samples = []
        for iteration in range(self.iterations):
            marking = oracle_round(marking, self._seed_for(iteration))
            if (iteration + 1) % self.sample_interval == 0:
                samples.append(int(marking[:256].sum()) & 0x7FFFFFFF)
        return {
            "samples": np.asarray(samples, dtype=np.int64),
            "final_marking": marking.astype(np.int32),
        }

    def _sample(self, app, raw_stats):
        counters = np.frombuffer(raw_stats, dtype=np.int32)
        app.machine.cpu.stream(
            self.STATS_BYTES, CPU_STREAM_RATE, label="sample"
        )
        return int(counters[1])

    def run_cuda(self, app):
        cuda = app.cuda()
        host_places = app.process.malloc(self.places_bytes)
        host_stats = app.process.malloc(self.STATS_BYTES)
        dev_places = cuda.cuda_malloc(self.places_bytes)
        dev_transitions = cuda.cuda_malloc(self.places_bytes)
        dev_stats = cuda.cuda_malloc(self.STATS_BYTES)
        host_places.write_array(self.initial)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        cuda.cuda_memcpy_h2d(dev_places, host_places, self.places_bytes)
        host_places.write_array(self.transitions)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        cuda.cuda_memcpy_h2d(dev_transitions, host_places, self.places_bytes)
        samples = []
        for iteration in range(self.iterations):
            cuda.launch(
                PNS_KERNEL,
                places=dev_places,
                transitions=dev_transitions,
                stats=dev_stats,
                n_places=self.n_places,
                iteration=iteration,
            )
            cuda.cuda_thread_synchronize()
            if (iteration + 1) % self.sample_interval == 0:
                cuda.cuda_memcpy_d2h(host_stats, dev_stats, self.STATS_BYTES)
                samples.append(
                    self._sample(app, host_stats.read_bytes(self.STATS_BYTES))
                )
        cuda.cuda_thread_synchronize()
        cuda.cuda_memcpy_d2h(host_places, dev_places, self.places_bytes)
        final = host_places.read_array("i4", self.n_places)
        return {
            "samples": np.asarray(samples, dtype=np.int64),
            "final_marking": final,
        }

    def run_gmac(self, app, gmac):
        places = gmac.alloc(self.places_bytes, name="places")
        transitions = gmac.alloc(self.places_bytes, name="transitions")
        stats = gmac.alloc(self.STATS_BYTES, name="stats")
        places.write_array(self.initial)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        transitions.write_array(self.transitions)
        app.machine.cpu.stream(self.places_bytes, CPU_STREAM_RATE, label="init")
        samples = []
        for iteration in range(self.iterations):
            gmac.call(
                PNS_KERNEL,
                places=places,
                transitions=transitions,
                stats=stats,
                n_places=self.n_places,
                iteration=iteration,
            )
            gmac.sync()
            if (iteration + 1) % self.sample_interval == 0:
                samples.append(
                    self._sample(app, stats.read_bytes(self.STATS_BYTES))
                )
        final = places.read_array("i4", self.n_places)
        return {
            "samples": np.asarray(samples, dtype=np.int64),
            "final_marking": final,
        }
