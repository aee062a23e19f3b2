"""Telemetry: power sampling, energy integration, metric computation.

Mirrors the paper's measurement methodology: power is sampled every 2 s
with jtop, the median across batches is reported as the power load, and
energy is the trapezoidal integral of the sampled trace (§2).
"""

from repro.telemetry.sampler import FleetSampler, PowerSample, PowerSampler
from repro.telemetry.energy import median_power_w, trapezoid_energy_j
from repro.telemetry.metrics import (
    latency_seconds,
    throughput_tokens_per_s,
)

__all__ = [
    "FleetSampler",
    "PowerSample",
    "PowerSampler",
    "latency_seconds",
    "median_power_w",
    "throughput_tokens_per_s",
    "trapezoid_energy_j",
]
