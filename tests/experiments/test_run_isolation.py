"""Run isolation: a spec's outcome must not depend on what ran before it.

Module globals (the transfer ledger's counters and version map, the
workloads' ``ValueMemo`` caches, memoized inputs) live for the whole
process.  Executing the full quick sweep twice in one process — the second
pass in a shuffled order — and comparing every spec's canonical bytes
catches any state that leaks from one run into the next.
"""

import random

from repro.experiments.executor import expand
from repro.experiments.registry import REGISTRY

#: Fixed so a failure reproduces with the same second-pass order.
SHUFFLE_SEED = 20100313


def _outcome_or_error(spec):
    """Canonical bytes of one cache-free execution, or the exception type
    it raised (a spec that fails must fail the same way every time)."""
    try:
        return spec.execute().canonical_bytes()
    except Exception as exc:
        return type(exc)


def test_quick_sweep_is_order_independent():
    specs = expand(sorted(REGISTRY), quick=True)
    first = {spec: _outcome_or_error(spec) for spec in specs}
    shuffled = list(specs)
    random.Random(SHUFFLE_SEED).shuffle(shuffled)
    second = {spec: _outcome_or_error(spec) for spec in shuffled}
    diverged = [spec.key() for spec in specs if first[spec] != second[spec]]
    assert not diverged, f"outcomes depend on run order: {diverged}"
