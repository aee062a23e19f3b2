"""Dynamic voltage and frequency scaling curves.

CMOS dynamic power is ``P = C * f * V(f)^2``.  Voltage rises roughly
linearly with frequency between a floor (near-threshold) and the maximum
operating voltage, which is why halving the clock cuts power by much more
than half — the effect the paper's power modes A/B exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class DvfsCurve:
    """Linear-in-frequency voltage model between a floor and a peak.

    ``v(f) = v_min + (v_max - v_min) * (f - f_min) / (f_max - f_min)``
    clamped to ``[v_min, v_max]``.

    Attributes
    ----------
    f_min_hz / f_max_hz:
        Frequency range of the domain.
    v_min / v_max:
        Rail voltage at the range endpoints (volts).
    """

    f_min_hz: float
    f_max_hz: float
    v_min: float = 0.62
    v_max: float = 1.05

    def __post_init__(self) -> None:
        if self.f_min_hz <= 0 or self.f_max_hz <= self.f_min_hz:
            raise ConfigError("DVFS curve needs 0 < f_min < f_max")
        if self.v_min <= 0 or self.v_max < self.v_min:
            raise ConfigError("DVFS curve needs 0 < v_min <= v_max")
        # The normaliser of dynamic_power_ratio depends only on the
        # (frozen) curve, so it is computed once, not on every call.
        object.__setattr__(self, "_top",
                           self.f_max_hz * self.voltage(self.f_max_hz) ** 2)

    def voltage(self, freq_hz: float) -> float:
        """Rail voltage at ``freq_hz`` (clamped to the curve's range)."""
        if freq_hz <= self.f_min_hz:
            return self.v_min
        if freq_hz >= self.f_max_hz:
            return self.v_max
        frac = (freq_hz - self.f_min_hz) / (self.f_max_hz - self.f_min_hz)
        return self.v_min + (self.v_max - self.v_min) * frac

    def dynamic_power_ratio(self, freq_hz: float) -> float:
        """``f * V(f)^2`` normalised to its value at ``f_max``.

        This is the factor by which a domain's *dynamic* power shrinks
        when clocked down, independent of the absolute capacitance.
        """
        return (freq_hz * self.voltage(freq_hz) ** 2) / self._top
