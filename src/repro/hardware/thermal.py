"""First-order thermal model with throttling (extension beyond the paper).

The paper runs short batched workloads and does not report throttling,
but sustained serving on a passively cooled Orin will hit thermal limits.
This lumped-RC model lets the harness study that regime: junction
temperature follows a single-pole response to dissipated power, and when
it crosses ``throttle_temp_c`` the device is stepped down to
``throttle_freq_ratio`` of its clocks until it cools below the
hysteresis point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError


@dataclass
class ThermalModel:
    """Lumped thermal RC node with throttle hysteresis.

    Attributes
    ----------
    ambient_c:
        Ambient temperature in Celsius.
    r_thermal_c_per_w:
        Junction-to-ambient thermal resistance (C/W).
    tau_s:
        Thermal time constant in seconds.
    throttle_temp_c / resume_temp_c:
        Throttle entry and exit temperatures.
    throttle_freq_ratio:
        Clock multiplier applied while throttled.
    """

    ambient_c: float = 25.0
    r_thermal_c_per_w: float = 1.15
    tau_s: float = 90.0
    throttle_temp_c: float = 92.0
    resume_temp_c: float = 85.0
    throttle_freq_ratio: float = 0.6
    temp_c: float = field(default=0.0)
    throttled: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.tau_s <= 0 or self.r_thermal_c_per_w <= 0:
            raise ConfigError("thermal constants must be positive")
        if self.resume_temp_c >= self.throttle_temp_c:
            raise ConfigError("resume temperature must be below throttle temperature")
        if not (0.0 < self.throttle_freq_ratio <= 1.0):
            raise ConfigError("throttle_freq_ratio must be in (0, 1]")
        if self.temp_c == 0.0:
            self.temp_c = self.ambient_c

    def steady_state_c(self, power_w: float) -> float:
        """Equilibrium temperature at constant ``power_w``."""
        return self.ambient_c + power_w * self.r_thermal_c_per_w

    def advance(self, power_w: float, dt_s: float) -> float:
        """Advance the RC node by ``dt_s`` seconds at ``power_w`` dissipation.

        Returns the new junction temperature and updates the throttle
        state with hysteresis.
        """
        if dt_s < 0:
            raise ConfigError("dt must be non-negative")
        self.temp_c, self.throttled = self.fold(self.temp_c, self.throttled,
                                                power_w, dt_s)
        return self.temp_c

    def fold(self, temp_c: float, throttled: bool, power_w: float,
             dt_s: float) -> tuple:
        """One :meth:`advance` step from ``(temp_c, throttled)`` as a pure
        function: returns the next ``(temp_c, throttled)`` and leaves the
        model untouched (planners fold a trajectory ahead of time)."""
        target = self.steady_state_c(power_w)
        alpha = math.exp(-dt_s / self.tau_s)
        temp_c = target + (temp_c - target) * alpha
        if throttled:
            if temp_c <= self.resume_temp_c:
                throttled = False
        elif temp_c >= self.throttle_temp_c:
            throttled = True
        return temp_c, throttled

    @property
    def freq_multiplier(self) -> float:
        """Clock multiplier the device should apply right now."""
        return self.throttle_freq_ratio if self.throttled else 1.0
