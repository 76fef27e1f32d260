"""The pns residue sweep: exact against int32, and checked by an independent oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.machine import reference_system
from repro.workloads.base import ValueMemo
from repro.workloads.parboil import pns
from repro.workloads.parboil.pns import PetriNet, fire_step, fire_sweep

INT32 = st.integers(-(2 ** 31), 2 ** 31 - 1)


def _int32_rounds(marking, seeds):
    """K iterations of the int32 firing rule (the reference's loop)."""
    state = marking
    with np.errstate(over="ignore"):
        for seed in seeds:
            state = fire_step(state, np.int32(seed))
    return state


class TestResidueSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        marking=st.lists(INT32, min_size=1, max_size=40),
        seeds=st.lists(INT32, min_size=1, max_size=12),
    )
    @example(marking=[-1], seeds=[2 ** 31 - 1])
    @example(marking=[2 ** 31 - 1, -(2 ** 31)], seeds=[-(2 ** 31), -1])
    @example(marking=[300, -300], seeds=[65535])
    def test_matches_int32_fire_step(self, marking, seeds):
        marking = np.asarray(marking, dtype=np.int32)
        seeds = np.asarray(seeds, dtype=np.int32)
        residues = fire_sweep(marking, seeds)
        assert residues.dtype == np.uint8
        expected = _int32_rounds(marking, seeds)
        assert residues.astype(np.int32).tobytes() == expected.tobytes()

    def test_input_marking_is_not_modified(self):
        marking = np.arange(-5, 5, dtype=np.int32)
        before = marking.copy()
        fire_sweep(marking, np.asarray([3, 4], dtype=np.int32))
        assert np.array_equal(marking, before)

    def test_no_overflow_warning(self):
        marking = np.full(4, 255, dtype=np.int32)
        with np.errstate(all="raise"):
            fire_sweep(marking, np.asarray([2 ** 16 - 1] * 3, dtype=np.int32))


def _sweep_without_wraparound(marking, seeds):
    """A plausible kernel bug: the first place never sees its left neighbour."""
    multiplier = np.uint8(int(pns.FIRE_MULTIPLIER) & 0xFF)
    state = marking.astype(np.uint8)
    for seed in seeds:
        nxt = state * multiplier
        nxt[1:] += state[:-1]
        nxt += np.uint8((int(pns.FIRE_INCREMENT) + int(seed)) & 0xFF)
        state = nxt
    return state


class TestOracleIndependence:
    """The int32 reference still rejects a wrong residue kernel."""

    @pytest.fixture(autouse=True)
    def _buggy_sweep(self, monkeypatch):
        monkeypatch.setattr(pns, "fire_sweep", _sweep_without_wraparound)
        # A fresh memo: no correct stored sweep may mask the bug.
        monkeypatch.setattr(pns, "_SWEEP_MEMO", ValueMemo(max_entries=12))

    @pytest.mark.parametrize("protocol", ["lazy", "batch"])
    @pytest.mark.parametrize("deferred", [True, False])
    def test_buggy_sweep_is_not_verified(self, protocol, deferred):
        workload = PetriNet(n_places=4096, iterations=8, sample_interval=4)
        result = workload.execute(
            protocol=protocol,
            machine=reference_system(defer_numerics=deferred),
        )
        assert result.verified is False

    def test_correct_sweep_is_verified(self, monkeypatch):
        monkeypatch.setattr(pns, "fire_sweep", fire_sweep)
        workload = PetriNet(n_places=4096, iterations=8, sample_interval=4)
        assert workload.execute(protocol="lazy").verified is True
