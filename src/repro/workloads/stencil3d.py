"""The Figure 9 workload: an iterative 3D-Stencil computation.

Section 5.1: "The 3D-Stencil computation requires introducing a source on
the target volume on each time-step ... the CPU executes the code that
performs the source introduction.  Lazy-update requires transferring the
entire volume prior to introducing the source, while rolling-update only
requires transferring the few memory blocks that are actually modified by
the CPU."  The computation also "requires writing to disk the output volume
every certain number of iterations", where *large* blocks win because big
transfers use the interconnect and disk bandwidth efficiently — the two
opposing forces whose balance Figure 9 sweeps across volume and block
sizes.

Structure per time-step: the CPU adds a point source at the volume centre
(a read-modify-write of a few bytes), the accelerator applies a 7-point
stencil into the ping-pong buffer, and every ``dump_interval`` steps the
current volume is written to disk through ``write()`` (which GMAC's
interposition performs in block-sized chunks).
"""

import numpy as np

from repro.analysis.contracts import access_modes
from repro.cuda.kernels import Kernel
from repro.workloads.base import Workload, ValueMemo, memoized_input

#: Stencil coefficients: centre and face weights of the 7-point operator.
CENTER_WEIGHT = np.float32(0.4)
FACE_WEIGHT = np.float32(0.1)

#: CPU rate for the source-introduction arithmetic.
CPU_STREAM_RATE = 2.0e9


#: z-planes of the interior per slab: a slab's two scratch buffers stay
#: cache-resident while its seven stencil terms accumulate into them.
SLAB_PLANES = 4


def stencil_reference_step(volume, out=None):
    """One 7-point stencil step (pure numpy; boundary cells pass through).

    ``out`` (which must not alias ``volume``) receives the result in
    place, saving the full-volume allocation.  The interior is computed
    slab by slab, accumulating in place into two slab-sized scratch
    buffers: per element this is exactly
    ``CENTER * c + FACE * (((((zm + zp) + ym) + yp) + xm) + xp)``, the
    same operations in the same order as the whole-volume expression
    (IEEE addition and multiplication are commutative), so the result is
    bit-identical while the temporaries stay small.
    """
    if out is None:
        out = np.empty_like(volume)
    for face in (np.s_[0], np.s_[-1], np.s_[:, 0], np.s_[:, -1],
                 np.s_[:, :, 0], np.s_[:, :, -1]):
        out[face] = volume[face]
    faces = np.empty_like(volume[1:-1, 1:-1, 1:-1][:SLAB_PLANES])
    centre = np.empty_like(faces)
    n_z = volume.shape[0]
    for z0 in range(1, n_z - 1, SLAB_PLANES):
        z1 = min(z0 + SLAB_PLANES, n_z - 1)
        acc = faces[:z1 - z0]
        np.add(volume[z0 - 1:z1 - 1, 1:-1, 1:-1],
               volume[z0 + 1:z1 + 1, 1:-1, 1:-1], out=acc)
        acc += volume[z0:z1, :-2, 1:-1]
        acc += volume[z0:z1, 2:, 1:-1]
        acc += volume[z0:z1, 1:-1, :-2]
        acc += volume[z0:z1, 1:-1, 2:]
        acc *= FACE_WEIGHT
        weighted = np.multiply(volume[z0:z1, 1:-1, 1:-1], CENTER_WEIGHT,
                               out=centre[:z1 - z0])
        np.add(weighted, acc, out=out[z0:z1, 1:-1, 1:-1])
    return out


#: Figure 9 sweeps block/volume sizes over the *same* per-step volume
#: trajectory, so each step's input volume recurs across many specs; one
#: entry per step state (max_entries covers a full quick run's steps).
_STEP_MEMO = ValueMemo(max_entries=24)


def _stencil_fn(gpu, vin, vout, n):
    volume = gpu.view(vin, "f4", n ** 3).reshape(n, n, n)
    result = gpu.view(vout, "f4", n ** 3).reshape(n, n, n)
    cached = _STEP_MEMO.lookup(n, (volume,))
    if cached is None:
        # vin and vout are distinct ping-pong allocations, so the step can
        # write the device view directly (identical bytes, one copy fewer).
        stencil_reference_step(volume, out=result)
        if _STEP_MEMO.admits(volume.nbytes + result.nbytes):
            _STEP_MEMO.store(n, (volume,), (result.copy(),))
    else:
        np.copyto(result, cached[0])


def _stencil_batched(gpu, launches):
    """Replay deferred steps in order.

    ``batch_by`` admits the alternating ping-pong pointers, so a run of
    steps whose intervening source-introductions happened on already-host-
    canonical blocks (no device fetch between launches) replays here in
    one flush.
    """
    for args in launches:
        _stencil_fn(gpu, **args)


#: ~8 flops and two 4-byte streams per cell.
STENCIL = Kernel(
    "stencil3d",
    _stencil_fn,
    cost=lambda vin, vout, n: (8 * n ** 3, 8 * n ** 3),
    writes=("vout",),
    batched_fn=_stencil_batched,
    batch_by=("vin", "vout"),
)


@access_modes(**{"volume-a": "rw", "volume-b": "rw"})
class Stencil3D(Workload):
    """Iterative stencil with CPU source introduction and periodic dumps."""

    name = "3d-stencil"
    description = "7-point stencil with per-step CPU source introduction"

    def __init__(self, n=64, steps=20, dump_interval=10, source_value=5.0,
                 seed=7):
        super().__init__(seed=seed)
        self.n = n
        self.steps = steps
        self.dump_interval = dump_interval
        self.source_value = np.float32(source_value)
        self.initial = memoized_input(
            ("stencil3d", n, seed),
            lambda: np.random.default_rng(seed)
            .random((n, n, n))
            .astype(np.float32),
        )

    @property
    def volume_bytes(self):
        return 4 * self.n ** 3

    def _dump_path(self, step):
        return f"stencil-{self.n}-{step}.out"

    def reference(self):
        volume = self.initial.copy()
        spare = np.empty_like(volume)
        outputs = {}
        centre = self.n // 2
        for step in range(self.steps):
            volume[centre, centre, centre] += self.source_value
            volume, spare = stencil_reference_step(volume, out=spare), volume
            if (step + 1) % self.dump_interval == 0:
                outputs[self._dump_path(step + 1)] = volume.copy()
        return outputs

    def _collect_dumps(self, app):
        outputs = {}
        for step in range(self.steps):
            if (step + 1) % self.dump_interval == 0:
                path = self._dump_path(step + 1)
                raw = app.fs.data_of(path)
                outputs[path] = np.frombuffer(raw, dtype=np.float32).reshape(
                    self.n, self.n, self.n
                )
        return outputs

    def _source_offset(self):
        centre = self.n // 2
        index = (centre * self.n + centre) * self.n + centre
        return 4 * index

    def run_cuda(self, app):
        cuda = app.cuda()
        nbytes = self.volume_bytes
        n = self.n
        host_volume = app.process.malloc(nbytes)
        cell = app.process.malloc(4)
        dev_a = cuda.cuda_malloc(nbytes)
        dev_b = cuda.cuda_malloc(nbytes)
        host_volume.write_array(self.initial)
        cuda.cuda_memcpy_h2d(dev_a, host_volume, nbytes)
        offset = self._source_offset()
        current, scratch = dev_a, dev_b
        for step in range(self.steps):
            # Hand-tuned source introduction: move only the source cell.
            cuda.cuda_memcpy_d2h(cell, current + offset, 4)
            value = np.frombuffer(cell.read_bytes(4), dtype=np.float32)[0]
            app.machine.cpu.stream(64, CPU_STREAM_RATE, label="source")
            cell.write_array(np.array([value + self.source_value], "f4"))
            cuda.cuda_memcpy_h2d(current + offset, cell, 4)
            cuda.launch(STENCIL, vin=current, vout=scratch, n=n)
            cuda.cuda_thread_synchronize()
            current, scratch = scratch, current
            if (step + 1) % self.dump_interval == 0:
                cuda.cuda_memcpy_d2h(host_volume, current, nbytes)
                with app.fs.open(self._dump_path(step + 1), "w") as handle:
                    app.libc.write(handle, int(host_volume), nbytes)
        return self._collect_dumps(app)

    def run_gmac(self, app, gmac):
        nbytes = self.volume_bytes
        n = self.n
        volume_a = gmac.alloc(nbytes, name="volume-a")
        volume_b = gmac.alloc(nbytes, name="volume-b")
        volume_a.write_array(self.initial)
        app.machine.cpu.stream(nbytes, CPU_STREAM_RATE, label="init")
        offset = self._source_offset()
        current, scratch = volume_a, volume_b
        for step in range(self.steps):
            # Source introduction: plain CPU loads/stores; the coherence
            # protocol decides how much data actually moves.
            value = np.frombuffer(
                current.read_bytes(4, offset=offset), dtype=np.float32
            )[0]
            app.machine.cpu.stream(64, CPU_STREAM_RATE, label="source")
            current.write_array(
                np.array([value + self.source_value], "f4"), offset=offset
            )
            gmac.call(STENCIL, vin=current, vout=scratch, n=n)
            gmac.sync()
            current, scratch = scratch, current
            if (step + 1) % self.dump_interval == 0:
                with app.fs.open(self._dump_path(step + 1), "w") as handle:
                    app.libc.write(handle, int(current), nbytes)
        return self._collect_dumps(app)
