"""The ``repro sustain`` sweep: trace × router × cascade × power mode.

One spec describes a small geo-distributed fleet serving one workload;
the sweep replays the *same* deterministic arrival stream under every
combination of carbon-trace scenario, routing policy, cascade mode and
power mode, so the rows differ only in what the sustainability levers
changed.  The headline comparisons the committed bench pins:

- ``carbon-aware`` vs ``energy-aware`` routing on the ``two-region``
  scenario (an efficient device on a dirty grid, a less efficient one
  on a clean grid): at equal goodput the carbon-aware rows burn fewer
  total grams, because the router weights J/token by each region's
  intensity *now* instead of chasing joules alone;
- cascade ``on`` vs ``off``: the SLM-first tier serves most traffic at
  a fraction of the J/token, escalating the calibrated-quality-gap
  share to the LLM tier, for a bounded quality-proxy regression.

Every row's token books are conservation-checked
(:func:`~repro.fairness.accounting.check_books`); the grid runs on
:mod:`repro.core.grid` and is content-addressed
(:func:`SustainSpec.cache_key` folds
:data:`~repro.sustain.trace.SUSTAIN_VERSION`) and bit-reproducible —
the CI smoke job runs the sweep twice and diffs the CSV byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.grid import GridReport, run_grid, versioned_key
from repro.errors import ConfigError
from repro.sustain.cascade import LLM_TIER, SLM_TIER, CascadeSpec
from repro.sustain.trace import SUSTAIN_VERSION, CarbonTrace, defer_arrivals


def _scenario_uniform(seed: int) -> Tuple[Tuple[str, CarbonTrace], ...]:
    """Every region rides one grid: carbon-aware == energy-aware."""
    return (("global", CarbonTrace.diurnal(seed=seed, name="diurnal")),)


def _scenario_two_region(seed: int) -> Tuple[Tuple[str, CarbonTrace], ...]:
    """A dirty grid and a clean one, declared dirty-first.

    Devices round-robin over the regions in declared order, so the
    fleet's *first* (most efficient) device lands on the dirty grid —
    the placement where energy-aware routing is carbon-blind and
    carbon-aware routing visibly pays off.
    """
    dirty = CarbonTrace.diurnal(base_gco2=520.0, swing=0.25,
                                base_usd=0.16, seed=seed, name="dirty")
    clean = CarbonTrace.duck_curve(base_gco2=110.0, solar_dip=0.5,
                                   evening_ramp=0.3, base_usd=0.08,
                                   seed=seed + 1, name="clean")
    return (("dirty", dirty), ("clean", clean))


#: Named region→trace scenarios (ordered: devices round-robin over the
#: declared region order).
TRACE_SCENARIOS: Dict[str, Callable] = {
    "uniform": _scenario_uniform,
    "two-region": _scenario_two_region,
}

#: Cascade-axis values.
CASCADE_MODES = ("off", "on")


@dataclass(frozen=True)
class SustainSpec:
    """One sustainability sweep configuration (frozen, content-addressable)."""

    #: Device order matters: devices round-robin over the scenario's
    #: regions in declared order, so this default lands the efficient
    #: Orin 64GB on the dirty grid and the 32GB on the clean one — the
    #: placement where energy-aware and carbon-aware routing disagree.
    devices: Tuple[str, ...] = ("jetson-orin-agx-64gb",
                                "jetson-orin-agx-32gb",
                                "jetson-xavier-agx-32gb")
    model: str = "llama"
    precision: str = "fp16"
    slm_model: str = "phi2"
    slm_precision: str = "int8"
    scenarios: Tuple[str, ...] = ("uniform", "two-region")
    routers: Tuple[str, ...] = ("energy-aware", "carbon-aware")
    cascades: Tuple[str, ...] = ("off", "on")
    power_modes: Tuple[str, ...] = ("MAXN",)
    #: Cascade gate strictness (see :class:`~repro.sustain.cascade.CascadeSpec`).
    gate: float = 0.5
    quality_dataset: str = "wikitext2"
    rate_per_s: float = 0.5
    n_requests: int = 24
    input_tokens: int = 48
    output_tokens: int = 96
    #: Deferral knob: latency-slack arrivals may wait up to this long
    #: for a below-threshold carbon step (0 disables deferral).
    defer_max_s: float = 0.0
    defer_threshold_frac: float = 0.95
    max_batch: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        from repro.cluster.router import list_policies
        from repro.hardware import get_device
        from repro.power.modes import get_power_mode

        if not self.devices:
            raise ConfigError("sweep needs at least one device")
        for d in self.devices:
            get_device(d)  # typed error on unknown names
        if (not self.scenarios or not self.routers or not self.cascades
                or not self.power_modes):
            raise ConfigError("sweep axes must be non-empty")
        for s in self.scenarios:
            if s not in TRACE_SCENARIOS:
                raise ConfigError(
                    f"unknown trace scenario {s!r}; "
                    f"known: {', '.join(sorted(TRACE_SCENARIOS))}")
        known = list_policies()
        for r in self.routers:
            if r not in known:
                raise ConfigError(
                    f"unknown routing policy {r!r}; known: {', '.join(known)}")
        for c in self.cascades:
            if c not in CASCADE_MODES:
                raise ConfigError(
                    f"cascade mode must be one of {CASCADE_MODES}, got {c!r}")
        for pm in self.power_modes:
            get_power_mode(pm)  # typed error on unknown names
        if self.rate_per_s <= 0 or self.n_requests < 1:
            raise ConfigError("need a positive rate and >= 1 request")
        if self.defer_max_s < 0:
            raise ConfigError("defer_max_s must be >= 0")
        # Validated in full by CascadeSpec; fail early and typed here.
        self.cascade_spec()

    def cascade_spec(self) -> CascadeSpec:
        """The cascade operating point this sweep escalates with."""
        return CascadeSpec(
            slm_model=self.slm_model, slm_precision=self.slm_precision,
            llm_model=self.model, llm_precision=self.precision,
            gate=self.gate, dataset=self.quality_dataset, seed=self.seed)

    def cache_key(self) -> str:
        """Content address folding the sustainability semantics version."""
        return versioned_key(self, "sustain_version", SUSTAIN_VERSION)


def _fleet_for(spec: SustainSpec, scenario: str, router: str,
               cascade: str, power_mode: str):
    """The FleetSpec one sweep point serves with."""
    from repro.cluster import FleetSpec, NodeSpec

    regions = TRACE_SCENARIOS[scenario](spec.seed)
    names = [r for r, _ in regions]
    nodes: List[NodeSpec] = []
    for i, device in enumerate(spec.devices):
        region = names[i % len(names)]
        if cascade == "on" and len(spec.devices) == 1:
            # A single site hosts both tiers: an SLM node takes the
            # first-pass traffic, an LLM node takes the escalations.
            nodes.append(NodeSpec(device, max_batch=spec.max_batch,
                                  region=region, model=spec.slm_model,
                                  precision=spec.slm_precision,
                                  tier=SLM_TIER))
            nodes.append(NodeSpec(device, max_batch=spec.max_batch,
                                  region=region, tier=LLM_TIER))
        elif cascade == "on":
            # Alternate tiers across the fleet (SLM first), keeping the
            # node count — and so the fleet's idle power — identical to
            # the cascade-off rows: the J/token column then isolates
            # what the SLM-first serving itself buys.
            tier = SLM_TIER if i % 2 == 0 else LLM_TIER
            nodes.append(NodeSpec(
                device, max_batch=spec.max_batch, region=region,
                model=spec.slm_model if tier == SLM_TIER else None,
                precision=spec.slm_precision if tier == SLM_TIER else None,
                tier=tier))
        else:
            nodes.append(NodeSpec(device, max_batch=spec.max_batch,
                                  region=region))
    return FleetSpec.of(nodes, model=spec.model, precision=spec.precision,
                        policy=router, traces=dict(regions))


def _run_point(spec: SustainSpec, scenario: str, power_mode: str,
               cascade: str, router: str) -> Dict:
    from repro.cluster import EdgeCluster
    from repro.cluster.workload import as_cluster_requests, poisson_workload
    from repro.fairness.accounting import check_books
    from repro.sustain.cascade import served_by_tier

    fleet = _fleet_for(spec, scenario, router, cascade, power_mode)
    cluster = EdgeCluster.of(fleet)
    # Heterogeneous fleets share one mode ladder; clamp each rung into
    # the device envelope like the autoscaler does (a Xavier cannot
    # bring MAXN's 12 cores online, it runs the rung's clamped twin).
    from repro.cluster.autoscale import clamp_mode_to_device
    from repro.power.modes import get_power_mode

    mode = get_power_mode(power_mode)
    for n in cluster.nodes:
        n.apply_mode(clamp_mode_to_device(mode, n.device))
    requests = as_cluster_requests(poisson_workload(
        spec.rate_per_s, spec.n_requests,
        input_tokens=spec.input_tokens, output_tokens=spec.output_tokens,
        seed=spec.seed))
    deferred = 0
    if spec.defer_max_s > 0:
        # Defer against the dirtiest grid in play: its below-threshold
        # steps are the cleaner hours worth waiting for.
        regions = TRACE_SCENARIOS[scenario](spec.seed)
        ref = max(regions, key=lambda rt: (rt[1].mean_intensity(), rt[0]))[1]
        deferred = defer_arrivals(requests, ref, spec.defer_max_s,
                                  spec.defer_threshold_frac)
    if cascade == "on":
        cas = spec.cascade_spec()
        report = cluster.run_cascade(
            requests, lambda r: cas.should_escalate(r.req_id))
        tiers = served_by_tier(cluster.last_requests)
        quality_delta = cas.quality_delta_pct(tiers[SLM_TIER],
                                              tiers[LLM_TIER])
    else:
        report = cluster.run(requests)
        quality_delta = 0.0
    check_books(cluster.last_requests,
                sum(n.served_tokens for n in cluster.nodes))
    return {
        "scenario": scenario,
        "router": router,
        "cascade": cascade,
        "power_mode": power_mode,
        "requests": report.n_requests,
        "completed": report.completed,
        "escalations": report.escalations,
        "deferred": deferred,
        "goodput_rps": round(report.goodput_rps, 4),
        "p99_ttft_s": round(report.p99_ttft_s, 3),
        "fleet_energy_j": round(report.fleet_energy_j, 1),
        "j_per_token": round(report.j_per_token, 4),
        "carbon_g": round(report.carbon_g, 4),
        "g_per_token": round(report.g_per_token, 6),
        "energy_cost_usd": round(report.energy_cost_usd, 6),
        "quality_delta_pct": round(quality_delta, 3),
    }


def run_sustain(spec: SustainSpec) -> GridReport:
    """Run the scenario × power-mode × cascade × router grid."""
    return GridReport(spec, run_grid(spec, {
        "scenario": spec.scenarios,
        "power_mode": spec.power_modes,
        "cascade": spec.cascades,
        "router": spec.routers,
    }, _run_point))
