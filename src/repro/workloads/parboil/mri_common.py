"""Shared math for the two MRI reconstruction benchmarks (mri-fhd, mri-q).

Both compute sums over k-space samples of sin/cos phase terms against voxel
coordinates in non-Cartesian 3D MRI reconstruction; mri-fhd weights them by
the image-specific data (phiR, phiI), mri-q by the scanner configuration
magnitude (Table 2).
"""

import numpy as np

TWO_PI = np.float32(2.0 * np.pi)


def phase_matrix(k_coords, voxels):
    """arg[k, v] = 2*pi * (k . x) for sample rows and voxel rows."""
    # copy=False: the inputs are float32 already on every call path; the
    # astype is a dtype guarantee, not a defensive copy (the product
    # allocates fresh output regardless).
    product = np.matmul(
        k_coords.astype(np.float32, copy=False),
        voxels.astype(np.float32, copy=False).T,
    )
    return np.multiply(product, TWO_PI, out=product)


def _phase_terms(k_coords, voxels):
    """(cos(arg), sin(arg)) of the phase grid, two grids live at a time.

    ``sin`` reads the phase grid into a fresh grid, then ``cos`` overwrites
    the phase grid in place: the same elementwise results as three
    separate grids, for two thirds of the memory.
    """
    arg = phase_matrix(k_coords, voxels)
    sin_arg = np.sin(arg)
    return np.cos(arg, out=arg), sin_arg


def fhd_reference(k_coords, phi_r, phi_i, voxels):
    """(rFhD, iFhD) per voxel."""
    cos_arg, sin_arg = _phase_terms(k_coords, voxels)
    r_fhd = phi_r @ cos_arg + phi_i @ sin_arg
    i_fhd = phi_i @ cos_arg - phi_r @ sin_arg
    return (
        r_fhd.astype(np.float32, copy=False),
        i_fhd.astype(np.float32, copy=False),
    )


def q_reference(k_coords, phi_magnitude, voxels):
    """(rQ, iQ) per voxel for the scanner-configuration matrix Q."""
    cos_arg, sin_arg = _phase_terms(k_coords, voxels)
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
