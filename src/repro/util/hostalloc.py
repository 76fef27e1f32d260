"""Host allocator tuning for repeated simulation runs.

Every simulated machine allocates tens of megabytes of numpy backing
stores (mapping backings, device heaps, staging buffers) and frees them
when the run ends.  glibc serves buffers this large via ``mmap`` and
returns them to the kernel on ``free``, so every run re-pays minor page
faults for its whole working set — measured at ~20 ms per vector-add
run, the single largest host-time cost in the hot-path benchmark.

:func:`retain_arena` flips the allocator to keep those pages resident:
``mallopt(M_MMAP_MAX, 0)`` routes large allocations through the main
arena and ``mallopt(M_TRIM_THRESHOLD, INT_MAX)`` stops the arena top
from being trimmed back.  After the first run warms the arena, repeat
runs touch only warm pages.  The switch is process-wide, idempotent,
inherited by forked workers, and silently unavailable off glibc.
"""

import ctypes

# glibc mallopt parameter numbers (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_MAX = -4

_applied = False


def arena_retained():
    """Whether the retained-arena tuning is in effect in this process.

    Forked pool workers inherit the parent's already-tuned allocator (the
    mallopt switches are process state), so this reads True there without
    a further call; spawned workers start cold and must call
    :func:`retain_arena` themselves.  Benchmark environment stamps record
    this so timings are comparable only against like configurations.
    """
    return _applied


def retain_arena():
    """Keep freed large buffers in the malloc arena (glibc only).

    Returns True when the tuning is (already) in effect, False when it
    is unavailable on this platform.  Safe to call any number of times.
    """
    global _applied
    if _applied:
        return True
    try:
        libc = ctypes.CDLL(None)
        ok_trim = libc.mallopt(_M_TRIM_THRESHOLD, ctypes.c_int(2**31 - 1))
        ok_mmap = libc.mallopt(_M_MMAP_MAX, 0)
    except (OSError, AttributeError):
        return False
    _applied = bool(ok_trim) and bool(ok_mmap)
    return _applied
