"""The workload harness itself."""

import numpy as np
import pytest

from repro.util.errors import ReproError
from repro.workloads import stencil3d
from repro.workloads.base import ValueMemo, Workload, WorkloadResult
from repro.workloads.vecadd import VectorAdd


class TestWorkloadResult:
    def _result(self, **overrides):
        values = dict(
            workload="demo", mode="gmac", protocol="rolling", elapsed=1.0,
            breakdown={}, bytes_to_accelerator=0, bytes_to_host=0,
            faults=0, signals=0, verified=True,
        )
        values.update(overrides)
        return WorkloadResult(**values)

    def test_gmac_label(self):
        assert self._result().label == "GMAC rolling"

    def test_cuda_label(self):
        assert self._result(mode="cuda", protocol="-").label == "CUDA"


class TestVerification:
    class Lying(Workload):
        name = "lying"

        def run_cuda(self, app):
            return {"out": np.zeros(4)}

        def run_gmac(self, app, gmac):
            return {"out": np.zeros(4)}

        def reference(self):
            return {"out": np.ones(4)}

    class Incomplete(Lying):
        name = "incomplete"

        def reference(self):
            return {"out": np.zeros(4), "missing": np.zeros(2)}

    class Misshapen(Lying):
        name = "misshapen"

        def reference(self):
            return {"out": np.zeros(8)}

    class OneUlpOff(Lying):
        name = "one-ulp-off"

        def run_cuda(self, app):
            out = np.linspace(0.5, 2.0, 4, dtype=np.float32)
            out[2] = np.nextafter(out[2], np.float32(np.inf))
            return {"out": out}

        def reference(self):
            return {"out": np.linspace(0.5, 2.0, 4, dtype=np.float32)}

    class Widened(OneUlpOff):
        name = "widened"

        def run_cuda(self, app):
            return {"out": self.reference()["out"].astype(np.float64)}

    class Exact(OneUlpOff):
        name = "exact"

        def run_cuda(self, app):
            return {"out": self.reference()["out"].copy()}

    def test_wrong_values_fail_verification(self):
        assert self.Lying().execute(mode="cuda").verified is False

    def test_one_ulp_difference_fails_verification(self):
        assert self.OneUlpOff().execute(mode="cuda").verified is False

    def test_equal_values_of_another_dtype_fail_verification(self):
        assert self.Widened().execute(mode="cuda").verified is False

    def test_byte_equal_result_verifies(self):
        assert self.Exact().execute(mode="cuda").verified is True

    def test_missing_output_fails(self):
        assert self.Incomplete().execute(mode="cuda").verified is False

    def test_shape_mismatch_fails(self):
        assert self.Misshapen().execute(mode="cuda").verified is False

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            self.Lying().execute(mode="vulkan")


class TestRepeatedExecution:
    def test_stats_over_varied_seeds(self):
        workload = VectorAdd(elements=32 * 1024)
        stats, results = workload.execute_stats(runs=3)
        assert stats.count == 3
        assert stats.mean > 0
        # Different seeds, same structure: elapsed times are near-equal.
        assert stats.relative_stdev < 0.05
        assert all(result.verified for result in results)
        seeds = {id(result) for result in results}
        assert len(seeds) == 3

    def test_repeat_params_preserve_sizes(self):
        workload = VectorAdd(elements=32 * 1024, seed=11)
        params = workload._repeat_params(2)
        assert params["elements"] == 32 * 1024
        assert params["seed"] == 13

    def test_zero_runs_rejected(self):
        with pytest.raises(ReproError):
            VectorAdd(elements=1024).execute_stats(runs=0)

    def test_failed_verification_raises(self):
        workload = TestVerification.Lying()
        with pytest.raises(ReproError):
            workload.execute_stats(runs=1, mode="cuda")


class TestValueMemoAdmission:
    def test_admits_up_to_the_cap(self):
        memo = ValueMemo(max_entry_bytes=64)
        assert memo.admits(64)
        assert not memo.admits(65)

    def test_over_cap_store_retains_nothing(self):
        memo = ValueMemo(max_entry_bytes=64)
        inputs = (np.zeros(8, dtype=np.int32),)
        outputs = (np.ones(16, dtype=np.int32),)
        assert memo.store("key", inputs, outputs) is outputs
        assert memo.lookup("key", inputs) is None

    def test_under_cap_store_is_found(self):
        memo = ValueMemo(max_entry_bytes=64)
        inputs = (np.zeros(4, dtype=np.int32),)
        outputs = (np.ones(4, dtype=np.int32),)
        memo.store("key", inputs, outputs)
        assert memo.lookup("key", (np.zeros(4, dtype=np.int32),)) is outputs


class _RecordingMemo(ValueMemo):
    """A ValueMemo that records the output snapshots handed to ``store``."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.stored = []

    def store(self, key, inputs, outputs):
        self.stored.append(outputs)
        return super().store(key, inputs, outputs)


class TestStencilStepSnapshots:
    """The stencil copies a step's result only when the memo keeps it."""

    def _run(self, monkeypatch, max_entry_bytes):
        memo = _RecordingMemo(max_entries=24, max_entry_bytes=max_entry_bytes)
        monkeypatch.setattr(stencil3d, "_STEP_MEMO", memo)
        result = stencil3d.Stencil3D(n=16, steps=2, dump_interval=2).execute(
            protocol="lazy"
        )
        assert result.verified
        return memo

    def test_over_cap_steps_take_no_copy(self, monkeypatch):
        # One step's input plus output is 2 * 16**3 * 4 bytes.
        memo = self._run(monkeypatch, max_entry_bytes=2 * 16 ** 3 * 4 - 1)
        assert memo.stored == []
        assert memo._entries == {}

    def test_admitted_steps_are_stored(self, monkeypatch):
        memo = self._run(monkeypatch, max_entry_bytes=2 * 16 ** 3 * 4)
        assert len(memo.stored) == 2
        assert sum(len(entries) for entries in memo._entries.values()) == 2
