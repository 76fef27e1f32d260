"""Shared utility substrate for the GMAC/ADSM reproduction.

This package holds the pieces that every other subsystem leans on:

* :mod:`repro.util.errors` -- the exception hierarchy,
* :mod:`repro.util.units` -- byte/time unit helpers (``KB``, ``MB``, ...),
* :mod:`repro.util.intervals` -- half-open address intervals and range maps,
* :mod:`repro.util.avltree` -- the paper's balanced block tree, kept as
  the shared-memory manager's fault-cost oracle,
* :mod:`repro.util.stats` -- summary statistics over repeated runs,
* :mod:`repro.util.tables` -- ASCII rendering of experiment tables/series.
"""

from repro.util.errors import (
    ReproError,
    AddressError,
    AllocationError,
    ProtectionError,
    SegmentationFault,
    IoError,
    CudaError,
    GmacError,
)
from repro.util.units import KB, MB, GB, parse_size, format_size, format_time
from repro.util.intervals import Interval, RangeMap
from repro.util.avltree import AvlTree
from repro.util.stats import RunStats, summarize

__all__ = [
    "ReproError",
    "AddressError",
    "AllocationError",
    "ProtectionError",
    "SegmentationFault",
    "IoError",
    "CudaError",
    "GmacError",
    "KB",
    "MB",
    "GB",
    "parse_size",
    "format_size",
    "format_time",
    "Interval",
    "RangeMap",
    "AvlTree",
    "RunStats",
    "summarize",
]
