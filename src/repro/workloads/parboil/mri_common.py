"""Shared math for the two MRI reconstruction benchmarks (mri-fhd, mri-q).

Both compute sums over k-space samples of sin/cos phase terms against voxel
coordinates in non-Cartesian 3D MRI reconstruction; mri-fhd weights them by
the image-specific data (phiR, phiI), mri-q by the scanner configuration
magnitude (Table 2).
"""

import numpy as np

TWO_PI = np.float32(2.0 * np.pi)


class PhaseScratch:
    """Reusable float32 work buffers for the (samples x voxels) phase grid.

    The two MRI kernels allocate three dense (n_samples, n_voxels) arrays
    per evaluation (phase, cos, sin) — the dominant allocation cost of the
    whole hot path.  One scratch object hands out named buffers keyed by
    shape; all operations write with ``out=``, so results stay bit-identical
    to the allocating path.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape):
        buffer = self._buffers.get((name, shape))
        if buffer is None:
            buffer = np.empty(shape, dtype=np.float32)
            self._buffers[(name, shape)] = buffer
        return buffer


#: Shared scratch for the simulated kernels (the oracle paths allocate
#: fresh arrays: they run once per configuration and are memoized).
KERNEL_SCRATCH = PhaseScratch()


def phase_matrix(k_coords, voxels, out=None):
    """arg[k, v] = 2*pi * (k . x) for sample rows and voxel rows."""
    # copy=False: the inputs are float32 already on every call path; the
    # astype is a dtype guarantee, not a defensive copy (the product
    # writes to ``out`` or allocates fresh output regardless).
    product = np.matmul(
        k_coords.astype(np.float32, copy=False),
        voxels.astype(np.float32, copy=False).T,
        out=out,
    )
    return np.multiply(product, TWO_PI, out=product)


def _phase_terms(k_coords, voxels, scratch):
    """(cos(arg), sin(arg)) of the phase grid, via scratch when given."""
    if scratch is None:
        arg = phase_matrix(k_coords, voxels)
        return np.cos(arg), np.sin(arg)
    shape = (k_coords.shape[0], voxels.shape[0])
    arg = phase_matrix(k_coords, voxels, out=scratch.take("arg", shape))
    return (
        np.cos(arg, out=scratch.take("cos", shape)),
        np.sin(arg, out=scratch.take("sin", shape)),
    )


def fhd_reference(k_coords, phi_r, phi_i, voxels, scratch=None):
    """(rFhD, iFhD) per voxel."""
    cos_arg, sin_arg = _phase_terms(k_coords, voxels, scratch)
    r_fhd = phi_r @ cos_arg + phi_i @ sin_arg
    i_fhd = phi_i @ cos_arg - phi_r @ sin_arg
    return (
        r_fhd.astype(np.float32, copy=False),
        i_fhd.astype(np.float32, copy=False),
    )


def q_reference(k_coords, phi_magnitude, voxels, scratch=None):
    """(rQ, iQ) per voxel for the scanner-configuration matrix Q."""
    cos_arg, sin_arg = _phase_terms(k_coords, voxels, scratch)
    r_q = phi_magnitude @ cos_arg
    i_q = phi_magnitude @ sin_arg
    return (
        r_q.astype(np.float32, copy=False),
        i_q.astype(np.float32, copy=False),
    )


def make_samples(rng, count):
    """Random k-space sample rows (kx, ky, kz, phiR, phiI)."""
    samples = rng.random((count, 5)).astype(np.float32)
    samples[:, :3] = samples[:, :3] * 2.0 - 1.0
    return samples


def make_voxels(rng, count):
    """Random voxel coordinate rows (x, y, z)."""
    return (rng.random((count, 3)).astype(np.float32) * 2.0 - 1.0)
