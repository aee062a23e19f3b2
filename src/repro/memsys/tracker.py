"""Baseline/peak/incremental memory bookkeeping.

The paper reports, per workload: *incremental peak memory* (peak during
the run minus the pre-model-load baseline) and occasionally the model
load footprint.  This tracker layers that accounting over the allocator
plus any non-allocator usage (OS, frameworks).
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigError
from repro.memsys.allocator import CachingAllocator


class MemoryTracker:
    """Tracks the jtop-style memory milestones of one experiment run.

    Lifecycle::

        tracker.mark_baseline()     # before model load
        ... load model ...
        tracker.mark_model_loaded()
        ... run workload ...
        tracker.finish()

    ``incremental_peak_bytes`` then equals peak-during-workload minus the
    post-load level, and ``model_bytes`` the load footprint — matching
    the paper's reporting.
    """

    def __init__(self, allocator: CachingAllocator, base_system_bytes: int = 0):
        if base_system_bytes < 0:
            raise ConfigError("base system bytes must be >= 0")
        self.allocator = allocator
        self.base_system_bytes = base_system_bytes
        self._baseline: Optional[int] = None
        self._after_load: Optional[int] = None
        self._peak: Optional[int] = None

    def _reading(self) -> int:
        return self.base_system_bytes + self.allocator.reserved_bytes

    def mark_baseline(self) -> None:
        """Record the pre-model-load level and reset peaks."""
        self.allocator.reset_peaks()
        self._baseline = self._reading()

    def mark_model_loaded(self) -> None:
        """Record the level right after weights are resident."""
        if self._baseline is None:
            raise ConfigError("mark_model_loaded() before mark_baseline()")
        self._after_load = self._reading()
        self.allocator.reset_peaks()

    def finish(self) -> None:
        """Capture the workload peak."""
        if self._after_load is None:
            raise ConfigError("finish() before mark_model_loaded()")
        self._peak = self.base_system_bytes + self.allocator.stats.peak_reserved

    @property
    def model_bytes(self) -> int:
        """Model load footprint (post-load minus baseline)."""
        if self._baseline is None or self._after_load is None:
            raise ConfigError("model_bytes before load markers")
        return self._after_load - self._baseline

    @property
    def incremental_peak_bytes(self) -> int:
        """Workload peak minus post-load level (the paper's main metric)."""
        if self._peak is None or self._after_load is None:
            raise ConfigError("incremental_peak_bytes before finish()")
        return max(0, self._peak - self._after_load)

    @property
    def total_peak_bytes(self) -> int:
        """Workload peak minus pre-load baseline (the appendix 'RAM' column)."""
        if self._peak is None or self._baseline is None:
            raise ConfigError("total_peak_bytes before finish()")
        return self._peak - self._baseline
