"""Energy and power statistics over sampled traces (the paper's §2 math)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigError
from repro.telemetry.sampler import PowerSample


def trapezoid_energy_j(samples: Sequence[PowerSample]) -> float:
    """Total energy via trapezoidal integration of the power trace.

    "For total energy usage, we perform trapezoidal numerical
    integration over time for a batch with power sampled every 2s" — §2.
    """
    if len(samples) == 0:
        raise ConfigError("cannot integrate an empty power trace")
    if len(samples) == 1:
        return 0.0
    t = np.array([s.time_s for s in samples])
    p = np.array([s.power_w for s in samples])
    if (np.diff(t) < 0).any():
        raise ConfigError("power samples must be time-ordered")
    return float(np.trapezoid(p, t))


def median_power_w(
    samples: Sequence[PowerSample], active_only: bool = True
) -> float:
    """Median power across the trace.

    With ``active_only`` (the paper reports the median *across
    batches*, i.e. while work is running) idle-phase samples are
    excluded unless the whole trace is idle.
    """
    if len(samples) == 0:
        raise ConfigError("cannot take the median of an empty power trace")
    vals = [s.power_w for s in samples if not active_only or s.phase != "idle"]
    if not vals:
        vals = [s.power_w for s in samples]
    return float(np.median(vals))
