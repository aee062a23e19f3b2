"""Carbon-aware serving and SLM cascades (``repro.sustain``).

The sustainability layer treats *where* and *with what model* a token
is generated as first-class levers, on top of the paper's *how fast
and at what wattage* measurements:

- :class:`~repro.sustain.trace.CarbonTrace` — stepwise grid carbon
  intensity (g CO₂/kWh) and price ($/kWh) series on the DES clock, with
  seeded diurnal / duck-curve generators and CSV loading;
- :class:`~repro.cluster.router.CarbonAwareRouter` (policy name
  ``carbon-aware``) — routes each request to the node with the lowest
  marginal gCO₂/token = predicted J/token × regional intensity now;
- :class:`~repro.sustain.cascade.CascadeSpec` — SLM-first serving with
  a deterministic escalation gate derived from the calibrated
  quantisation-quality machinery;
- :class:`~repro.sustain.sweep.SustainSpec` / :func:`run_sustain` —
  the ``repro sustain`` sweep over trace scenario × router × cascade ×
  power mode, conservation-checked and bit-reproducible.
"""

from repro.sustain.cascade import (LLM_TIER, SLM_TIER, CascadeSpec,
                                   served_by_tier)
from repro.sustain.sweep import TRACE_SCENARIOS, SustainSpec, run_sustain
from repro.sustain.trace import (SUSTAIN_VERSION, CarbonTrace,
                                 carbon_from_samples, defer_arrivals)

__all__ = [
    "CarbonTrace",
    "CascadeSpec",
    "LLM_TIER",
    "SLM_TIER",
    "SUSTAIN_VERSION",
    "SustainSpec",
    "TRACE_SCENARIOS",
    "carbon_from_samples",
    "defer_arrivals",
    "run_sustain",
    "served_by_tier",
]
