"""Self-tests of the benchmark: span arithmetic, failure counting, exactness.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import metrics  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


# -- self time ------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0,10] > a [1,4] > b [2,3]; root > c [6,7]
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 3.0, 7.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [6.0, 2.0, 1.0, 1.0]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # Children [1,4] and [3,6] overlap on [3,4]; [8,12] runs past the
    # parent's end and only [8,10] counts.
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 4.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = spans.self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1:] == [3.0, 3.0, 4.0]


def test_recorder_links_parents_and_ships_spans_between_recorders():
    worker = spans.SpanRecorder()
    outer, inner = worker.name_id("outer"), worker.name_id("inner")
    worker.open(outer)  # an earlier spec's span, not shipped
    worker.close(0)
    first = len(worker)
    root = worker.open(outer)
    child = worker.open(inner)
    worker.close(child)
    worker.close(root)
    assert list(worker.parent) == [-1, -1, root]
    payload = worker.take(first)
    payload["first"] = first
    assert len(worker) == first

    parent = spans.SpanRecorder()
    parent.name_id("other")
    parent.open(0)
    parent.close(0)
    parent.extend(payload)
    assert [parent.names[n] for n in parent.name] == ["other", "outer", "inner"]
    assert list(parent.parent) == [-1, -1, 1]


# -- failure counting -------------------------------------------------------------


class _Outcome:
    def __init__(self, verified):
        self.verified = verified

    def canonical_bytes(self):
        return b"verified" if self.verified else b"unverified"


class _Spec:
    def __init__(self, behaviour):
        self.behaviour = behaviour

    def execute(self):
        if self.behaviour == "raise":
            raise RuntimeError("device lost")
        return _Outcome(self.behaviour == "ok")


def test_raising_and_unverified_specs_count_as_failed():
    result = suite.run_serial_pass(
        [_Spec("raise"), _Spec("unverified"), _Spec("ok")]
    )
    assert result.failed() == [0, 1]
    assert result.errors == ["RuntimeError", None, None]
    assert metrics.failed_frac(result) == pytest.approx(2 / 3)
    again = suite.run_serial_pass(
        [_Spec("raise"), _Spec("unverified"), _Spec("ok")]
    )
    assert again.digest() == result.digest()
    summary = run.verdict(["a", "b", "c"], [result, again])
    assert summary == {"correct": False, "attempted": 6, "failed": 4}


def test_tail_needs_ten_samples_beyond_the_percentile():
    assert suite.tail(list(range(10))) is None
    assert suite.tail(list(range(20)))[0] == 50
    assert suite.tail(list(range(100)))[0] == 90


# -- exactness over two passes ------------------------------------------------------


def _small_specs():
    from repro.experiments.executor import expand

    parboil = [s for s in expand(["fig7"], quick=True) if s.workload == "cp"]
    return parboil + expand(["fig11"], quick=True)[:2]


def _traced_pass(specs):
    recorder = spans.SpanRecorder()
    instrumentation = spans.Instrumentation(
        recorder, {spec: index for index, spec in enumerate(specs)})
    suite.isolate()
    with instrumentation:
        result = suite.run_serial_pass(specs)
    return result, instrumentation.spec_counts, spans.totals_by_name(recorder)


def test_exact_metrics_repeat_bit_for_bit_over_two_passes():
    specs = _small_specs()
    suite.set_up(specs)
    first, first_counts, first_totals = _traced_pass(specs)
    second, second_counts, second_totals = _traced_pass(specs)
    assert first.failed() == []
    assert first.digest() == second.digest()
    assert first_counts == second_counts
    assert ({name: calls for name, (calls, _, _) in first_totals.items()}
            == {name: calls for name, (calls, _, _) in second_totals.items()})
    for exact in (suite.virtual_s, suite.link_mb, suite.gmac_slowdown):
        assert exact(first) == exact(second)
    assert suite.gmac_slowdown(first) > 0
    # Instrumentation is fully removed again: an untraced pass matches.
    suite.isolate()
    assert suite.run_serial_pass(specs).digest() == first.digest()


def test_reseeding_changes_inputs_but_not_fault_plans():
    workload = suite.WORKLOADS["recovery"]
    default = suite.expand_specs(workload, suite.DEFAULT_SEED)
    reseeded = suite.expand_specs(workload, 3)
    assert len(default) == len(reseeded)
    for before, after in zip(default, reseeded):
        assert dict(after.params)["seed"] == 3
        assert after.fault_plan == before.fault_plan

