"""In-place numerics engines are bit-identical to the plain expressions.

The stencil step, the Rys Horner term, the two-grid MRI phase terms and
the mri-q oracle each compute the same operations in the same order as
the whole-array expressions they replace, just with fewer and smaller
temporaries.  These tests keep the plain expressions as fixtures and
compare bytes.
"""

import numpy as np
import pytest

from repro.experiments.common import PAPER_PARAMS, QUICK_PARAMS
from repro.workloads.parboil.mri_common import (
    fhd_reference, phase_matrix, q_reference,
)
from repro.workloads.parboil.mrifhd import MriFhd
from repro.workloads.parboil.mriq import MriQ
from repro.workloads.parboil.rpes import RysPolynomial, rys_term
from repro.workloads.stencil3d import (
    CENTER_WEIGHT, FACE_WEIGHT, stencil_reference_step,
)


def plain_stencil_step(volume):
    """The whole-volume 7-point expression (boundary cells pass through)."""
    out = volume.copy()
    out[1:-1, 1:-1, 1:-1] = CENTER_WEIGHT * volume[1:-1, 1:-1, 1:-1] + (
        FACE_WEIGHT * (
            volume[:-2, 1:-1, 1:-1] + volume[2:, 1:-1, 1:-1]
            + volume[1:-1, :-2, 1:-1] + volume[1:-1, 2:, 1:-1]
            + volume[1:-1, 1:-1, :-2] + volume[1:-1, 1:-1, 2:]
        )
    )
    return out


def allocating_horner(params, root):
    p0, p1, p2, p3 = params.reshape(4, -1)
    t = np.float32(root)
    return (p0 + t * (p1 + t * (p2 + t * p3))).astype(np.float32)


class TestSlabStencil:
    # n - 2 is not always a multiple of the slab, so the last slab varies.
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 48, 64, 96, 128])
    def test_bit_identical_to_plain_expression(self, n):
        volume = np.random.default_rng(n).random((n, n, n)).astype(np.float32)
        expected = plain_stencil_step(volume)
        fresh = stencil_reference_step(volume)
        assert fresh.dtype == np.float32
        assert fresh.tobytes() == expected.tobytes()
        # A stale out= buffer is overwritten everywhere, boundary included.
        out = np.full_like(volume, np.nan)
        assert stencil_reference_step(volume, out=out) is out
        assert out.tobytes() == expected.tobytes()

    def test_input_volume_is_not_modified(self):
        volume = np.random.default_rng(0).random((9, 9, 9)).astype(np.float32)
        volume.setflags(write=False)
        stencil_reference_step(volume)


class TestInPlaceHorner:
    def test_paper_roots_bit_identical(self):
        workload = RysPolynomial(**PAPER_PARAMS["rpes"])
        assert len(workload.roots) == 64
        for root in workload.roots:
            term = rys_term(workload.params, root)
            assert term.dtype == np.float32
            assert term.tobytes() == allocating_horner(
                workload.params, root).tobytes()


def three_grid_terms(k_coords, voxels):
    """cos and sin of the phase grid, each in a fresh grid of its own."""
    arg = phase_matrix(k_coords, voxels)
    return np.cos(arg), np.sin(arg)


SCALES = pytest.mark.parametrize("scale", [QUICK_PARAMS, PAPER_PARAMS],
                                 ids=["quick", "paper"])


class TestMriQOracle:
    @SCALES
    def test_matches_full_q_reference_prefix(self, scale):
        workload = MriQ(**scale["mri-q"])
        prefix = workload._prefix_voxels
        produced = workload.reference()[MriQ.OUTPUT]
        r_q, _ = q_reference(workload.k_coords, workload.phi_mag,
                             workload.voxels)
        expected = np.abs(r_q[:prefix])
        assert produced.dtype == expected.dtype == np.float32
        assert produced.tobytes() == expected.tobytes()


class TestTwoGridPhaseTerms:
    @SCALES
    def test_q_reference_bit_identical(self, scale):
        workload = MriQ(**scale["mri-q"])
        phi = workload.phi_mag
        cos_arg, sin_arg = three_grid_terms(workload.k_coords,
                                            workload.voxels)
        produced = q_reference(workload.k_coords, phi, workload.voxels)
        for value, expected in zip(produced, (phi @ cos_arg, phi @ sin_arg)):
            assert value.dtype == expected.dtype == np.float32
            assert value.tobytes() == expected.tobytes()

    @SCALES
    def test_fhd_reference_bit_identical(self, scale):
        workload = MriFhd(**scale["mri-fhd"])
        coords = workload.samples[:, :3]
        phi_r, phi_i = workload.samples[:, 3], workload.samples[:, 4]
        cos_arg, sin_arg = three_grid_terms(coords, workload.voxels)
        produced = fhd_reference(coords, phi_r, phi_i, workload.voxels)
        expected = (phi_r @ cos_arg + phi_i @ sin_arg,
                    phi_i @ cos_arg - phi_r @ sin_arg)
        for value, plain in zip(produced, expected):
            assert value.dtype == plain.dtype == np.float32
            assert value.tobytes() == plain.tobytes()
