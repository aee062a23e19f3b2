"""``PlanSpec`` and the capacity search behind ``repro plan``.

One frozen spec describes the question an operator asks before buying
or re-flashing hardware: *this model, this traffic, this SLO — what do
I deploy?*  :func:`plan` answers it analytically: for every candidate
(runtime, precision, power mode) it solves the fluid steady state at
increasing node counts until the SLO holds with headroom, then ranks
the feasible configurations by node count and fleet watts.  A full
search over the default axes answers in well under a second — the
whole point of the analytic tier — and every number it emits comes
from the same calibrated :class:`~repro.engine.kernels.StepTimer`
costs the DES replays, so ``repro plan --validate`` can hold it to a
measured error budget.  The candidate walk runs on
:mod:`repro.core.grid`, one row per (runtime, precision, power mode).

The engine-probing feasibility searches are methods here too
(:meth:`PlanSpec.feasibility`, :meth:`PlanSpec.max_batch_size`,
:meth:`PlanSpec.max_seq_len`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.grid import GridReport, run_grid, versioned_key
from repro.errors import ConfigError
from repro.plan.fluid import FluidEstimate, steady_state
from repro.plan.rates import ServiceRates

#: Bump when the fluid model's semantics change (folded into cache keys
#: so committed artifacts never silently mix model generations).
PLAN_VERSION = 1


@dataclass(frozen=True)
class PlanSpec:
    """One capacity-planning question (frozen, content-addressable)."""

    model: str = "llama3.1-8b"
    device: str = "jetson-orin-agx-64gb"
    # -- traffic ---------------------------------------------------------
    rate_per_s: float = 2.0
    input_tokens: int = 64
    output_tokens: int = 64
    # -- SLO targets (None disables a dimension) -------------------------
    slo_ttft_s: Optional[float] = 10.0
    slo_tpot_s: Optional[float] = 1.0
    slo_e2e_s: Optional[float] = None
    # -- candidate axes the search ranges over ---------------------------
    runtimes: Tuple[str, ...] = ("hf-transformers", "paged", "gguf")
    precisions: Tuple[str, ...] = ("fp16",)
    power_modes: Tuple[str, ...] = ("MAXN",)
    max_nodes: int = 8
    max_batch: int = 8
    #: Refuse operating points busier than this (stochastic queueing the
    #: fluid model cannot see blows up near saturation).
    max_utilization: float = 0.9
    #: Optional carbon objective (``repro.sustain``): the deployment
    #: region's grid intensity in g CO₂/kWh.  When set, every row gains
    #: a ``g_per_token`` column and the winner ranking appends it after
    #: nodes and watts; when None (the default) the plan is byte-for-
    #: byte what it always was.
    carbon_gco2_per_kwh: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.backends import get_backend
        from repro.hardware import get_device
        from repro.models import get_model
        from repro.power.modes import get_power_mode
        from repro.quant.dtypes import Precision

        get_model(self.model)        # typed error on unknown names,
        get_device(self.device)      # each listing the known set
        if not self.runtimes or not self.precisions or not self.power_modes:
            raise ConfigError("candidate axes must be non-empty")
        for rt in self.runtimes:
            get_backend(rt)
        for prec in self.precisions:
            Precision.parse(prec)
        for mode in self.power_modes:
            get_power_mode(mode)
        if self.rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive")
        if self.input_tokens < 1 or self.output_tokens < 1:
            raise ConfigError("token counts must be >= 1")
        if self.max_nodes < 1 or self.max_batch < 1:
            raise ConfigError("max_nodes and max_batch must be >= 1")
        if not 0.0 < self.max_utilization <= 1.0:
            raise ConfigError("max_utilization must be in (0, 1]")
        for name in ("slo_ttft_s", "slo_tpot_s", "slo_e2e_s"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ConfigError(f"{name} must be positive")
        if (self.carbon_gco2_per_kwh is not None
                and self.carbon_gco2_per_kwh <= 0):
            raise ConfigError("carbon_gco2_per_kwh must be positive")

    def cache_key(self) -> str:
        """Content address folding the fluid-model version."""
        return versioned_key(self, "plan_version", PLAN_VERSION)

    # -- engine-probing feasibility ---------------------------------------
    def max_batch_size(self, upper: int = 4096) -> Optional[int]:
        """Largest engine-feasible batch at this spec's request shape."""
        from repro.engine.request import GenerationSpec
        from repro.plan.feasibility import probe_max_batch
        from repro.quant.dtypes import Precision

        return probe_max_batch(
            self.model, Precision.parse(self.precisions[0]), self.device,
            GenerationSpec(self.input_tokens, self.output_tokens), upper)

    def max_seq_len(self, batch_size: int = 32,
                    input_fraction: float = 0.25,
                    upper: int = 65536) -> Optional[int]:
        """Longest engine-feasible total sequence at ``batch_size``."""
        from repro.plan.feasibility import probe_max_seq_len
        from repro.quant.dtypes import Precision

        return probe_max_seq_len(
            self.model, Precision.parse(self.precisions[0]), self.device,
            batch_size, input_fraction, upper)

    def feasibility(self, upper_batch: int = 4096, batch_size: int = 32,
                    input_fraction: float = 0.25,
                    upper_seq: int = 65536):
        """Both OOM boundaries in one :class:`FeasibilityEnvelope`."""
        from repro.plan.feasibility import FeasibilityEnvelope

        bs = self.max_batch_size(upper=upper_batch)
        sl = (self.max_seq_len(batch_size=batch_size,
                               input_fraction=input_fraction,
                               upper=upper_seq)
              if bs is not None else None)
        return FeasibilityEnvelope(max_batch_size=bs, max_seq_len=sl)


class PlanReport(GridReport):
    """Capacity-search outcome: one row per candidate."""

    @property
    def chosen(self) -> Optional[Dict]:
        """The feasible row with the fewest nodes (fleet watts, then
        g/token when a carbon objective is set, breaking ties); ``None``
        when nothing inside the axes meets the SLO."""
        winners = [r for r in self.rows if r["slo_ok"]]
        if not winners:
            return None

        def rank(r: Dict):
            key = [r["nodes"], r["watts"]]
            if self.spec.carbon_gco2_per_kwh is not None:
                g = r["g_per_token"]
                key.append(math.inf if g == "inf" else g)
            return tuple(key)

        return min(winners, key=rank)


def _fin(value: float, digits: int) -> object:
    """Round finite values; render unbounded ones as ``inf``."""
    return "inf" if math.isinf(value) else round(value, digits)


def _meets_slo(spec: PlanSpec, est: FluidEstimate) -> bool:
    if not est.stable or est.utilization > spec.max_utilization:
        return False
    if spec.slo_ttft_s is not None and est.ttft_s > spec.slo_ttft_s:
        return False
    if spec.slo_tpot_s is not None and est.tpot_s > spec.slo_tpot_s:
        return False
    if spec.slo_e2e_s is not None and est.latency_s > spec.slo_e2e_s:
        return False
    return True


def _candidate(spec: PlanSpec, runtime: str, precision: str,
               mode: str) -> Dict:
    """Walk node counts upward; the first fleet meeting the SLO wins.

    Candidates that never fit (weights exceed the board) or never
    stabilise inside ``max_nodes`` keep ``slo_ok=False`` at
    ``max_nodes`` so the table still shows *why* they lost.
    """
    rates = ServiceRates(spec.model, precision, runtime,
                         device=spec.device, power_mode=mode)
    feasible = False
    for nodes in range(1, spec.max_nodes + 1):
        est = steady_state(rates, spec.rate_per_s, spec.input_tokens,
                           spec.output_tokens, nodes=nodes,
                           max_batch=spec.max_batch)
        if _meets_slo(spec, est):
            feasible = True
            break
    row = {
        "runtime": runtime,
        "precision": precision,
        "power_mode": mode,
        "nodes": est.nodes,
        "slo_ok": feasible,
        "stable": est.stable,
        "batch": round(est.batch, 2),
        "utilization": round(est.utilization, 3),
        "throughput_tok_s": round(est.throughput_tok_s, 1),
        "capacity_tok_s": round(est.capacity_tok_s, 1),
        "ttft_s": _fin(est.ttft_s, 3),
        "tpot_s": _fin(est.tpot_s, 4),
        "latency_s": _fin(est.latency_s, 2),
        "watts": round(est.watts, 1),
        "j_per_token": _fin(est.j_per_token, 4),
        "kv_tokens": round(est.kv_tokens, 1),
        "kv_cap_tokens": est.kv_capacity_tokens,
        "throttle_risk": est.throttle_risk,
    }
    if spec.carbon_gco2_per_kwh is not None:
        from repro.sustain.trace import J_PER_KWH

        row["g_per_token"] = _fin(
            est.j_per_token / J_PER_KWH * spec.carbon_gco2_per_kwh, 6)
    return row


def plan(spec: PlanSpec) -> PlanReport:
    """Run the capacity search over the spec's candidate axes.

    One row per (runtime, precision, power mode), each the smallest
    fleet that meets the SLO with utilization headroom.
    """
    return PlanReport(spec, run_grid(spec, {
        "runtime": spec.runtimes,
        "precision": spec.precisions,
        "mode": spec.power_modes,
    }, _candidate))
