"""The pns residue engines: exact against int32, and checked by an independent oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw.machine import reference_system
from repro.workloads.base import ValueMemo
from repro.workloads.parboil import pns
from repro.workloads.parboil.pns import (
    FIRE_INCREMENT, FIRE_MULTIPLIER, TOKEN_LIMIT, PetriNet, fire_sweep,
    oracle_round,
)

INT32 = st.integers(-(2 ** 31), 2 ** 31 - 1)


def fire_step(places, transition_seed):
    """One synchronous firing round over the marking vector (int32).

    The firing rule as first written, the ground truth both residue
    engines are tested against.  In-place update chain: int32 addition
    wraps mod 2^32 and is associative, so folding the scalar terms and
    reusing one buffer gives the naive expression's markings.
    """
    rotated = np.empty_like(places)
    rotated[0] = places[-1]
    rotated[1:] = places[:-1]
    mixed = places * FIRE_MULTIPLIER
    mixed += rotated
    mixed += FIRE_INCREMENT + transition_seed
    mixed &= 0x7FFFFFFF
    # TOKEN_LIMIT + 1 is a power of two, so the modulo is a mask.
    mixed &= TOKEN_LIMIT
    return mixed


def _int32_rounds(marking, seeds):
    """K iterations of the int32 firing rule."""
    state = marking
    with np.errstate(over="ignore"):
        for seed in seeds:
            state = fire_step(state, np.int32(seed))
    return state


def _oracle_rounds(marking, seeds):
    """K iterations of the reference's residue round."""
    state = marking.astype(np.uint8)
    for seed in seeds:
        state = oracle_round(state, np.int32(seed))
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
        expected = _int32_rounds(marking, seeds).tobytes()
        for engine in (fire_sweep, _oracle_rounds):
            residues = engine(marking, seeds)
            assert residues.dtype == np.uint8
            assert residues.astype(np.int32).tobytes() == expected

    def test_input_marking_is_not_modified(self):
        marking = np.arange(-5, 5, dtype=np.int32)
        before = marking.copy()
        fire_sweep(marking, np.asarray([3, 4], dtype=np.int32))
        assert np.array_equal(marking, before)

    def test_no_overflow_warning(self):
        marking = np.full(4, 255, dtype=np.int32)
        with np.errstate(all="raise"):
            fire_sweep(marking, np.asarray([2 ** 16 - 1] * 3, dtype=np.int32))
            _oracle_rounds(marking, [2 ** 16 - 1] * 3)


def test_paper_size_reference_matches_int32_trajectory():
    """The paper preset's reference, byte for byte against int32 rounds."""
    workload = PetriNet()
    assert (workload.n_places, workload.iterations,
            workload.sample_interval) == (2_097_152, 160, 16)
    marking = workload.initial.copy()
    samples = []
    for iteration in range(workload.iterations):
        marking = fire_step(marking, workload._seed_for(iteration))
        if (iteration + 1) % workload.sample_interval == 0:
            samples.append(int(marking[:256].sum()) & 0x7FFFFFFF)
    expected = {
        "samples": np.asarray(samples, dtype=np.int64),
        "final_marking": marking,
    }
    produced = workload.reference()
    assert produced.keys() == expected.keys()
    for name, array in expected.items():
        assert produced[name].dtype == array.dtype
        assert produced[name].shape == array.shape
        assert produced[name].tobytes() == array.tobytes()


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
