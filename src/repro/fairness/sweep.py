"""The ``repro fairness`` sweep: scheduler × mix × runtime × kv × power.

One spec describes a contended multi-turn serving scenario; the sweep
replays the *same* deterministic session workload under every queue
discipline, tenant mix, runtime backend, KV lifecycle policy and
nvpmodel power mode, so the rows differ only in what the policy axes
changed.  The power-mode axis answers the fairness × power question:
fair-share guarantees are *relative* (who gets the tokens), so
down-clocking the node shrinks everyone's tokens without breaking the
shares — ``jain_tokens`` should hold under a downshifted mode.  The adversarial
``flood`` mix is the FairServe stress case: one tenant issues far more
than its entitlement while equally-weighted polite tenants trickle in —
FCFS lets the flood starve them, VTC/WSC do not, and the per-tenant
``jain_tokens`` column shows the gap.

Every row's token books are conservation-checked
(:func:`~repro.fairness.accounting.check_books`); the grid runs on
:mod:`repro.core.grid` and is content-addressed
(:func:`FairnessSpec.cache_key` folds
:data:`~repro.fairness.scheduler.FAIRNESS_VERSION`) and
bit-reproducible — the CI smoke job runs the sweep twice and diffs the
CSV byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.grid import GridReport, run_grid, versioned_key
from repro.errors import ConfigError
from repro.fairness.scheduler import FAIRNESS_VERSION, get_fair_scheduler

#: Named tenant mixes the sweep draws sessions from.  Profile weights
#: set *arrival* share; for most mixes the sweep grants tenants *equal*
#: fairness entitlement, so the ``flood`` tenant's 8x arrival share is
#: exactly the over-issuing adversary fair schedulers exist to contain.
#: Mixes listed in :data:`WEIGHTED_ENTITLEMENT_MIXES` instead carry
#: their profile weights into the schedulers as entitlements.
TENANT_MIXES: Dict[str, Tuple] = {}

#: Mixes whose profile weights are fairness *entitlements* too: VTC/WSC
#: should serve these tenants tokens in proportion to their weights,
#: not equally.
WEIGHTED_ENTITLEMENT_MIXES = frozenset({"weighted"})


def _init_mixes() -> None:
    from repro.cluster.workload import TenantProfile

    TENANT_MIXES["balanced"] = (
        TenantProfile("chat", weight=1.0, mean_input_tokens=48,
                      mean_output_tokens=96, cv_input=0.6, cv_output=0.7),
        TenantProfile("summarize", weight=1.0, mean_input_tokens=256,
                      mean_output_tokens=48, cv_input=0.4, cv_output=0.4),
        TenantProfile("analytics", weight=1.0, mean_input_tokens=384,
                      mean_output_tokens=128, cv_input=0.3, cv_output=0.3),
    )
    TENANT_MIXES["flood"] = (
        TenantProfile("flood", weight=8.0, mean_input_tokens=192,
                      mean_output_tokens=160, cv_input=0.2, cv_output=0.2),
        TenantProfile("polite-a", weight=1.0, mean_input_tokens=48,
                      mean_output_tokens=64, cv_input=0.5, cv_output=0.5),
        TenantProfile("polite-b", weight=1.0, mean_input_tokens=48,
                      mean_output_tokens=64, cv_input=0.5, cv_output=0.5),
    )
    # Premium pays for a 3x entitlement and issues many small requests;
    # standard issues a third as many sessions at 3x the token shapes,
    # so the two tenants *demand* roughly equal tokens.  Under
    # contention a weight-honoring scheduler should serve premium ~3x
    # standard's tokens; FCFS, blind to weights, serves demand (~1:1).
    TENANT_MIXES["weighted"] = (
        TenantProfile("premium", weight=3.0, mean_input_tokens=48,
                      mean_output_tokens=48, cv_input=0.3, cv_output=0.3),
        TenantProfile("standard", weight=1.0, mean_input_tokens=144,
                      mean_output_tokens=144, cv_input=0.3, cv_output=0.3),
    )


@dataclass(frozen=True)
class FairnessSpec:
    """One fairness sweep configuration (frozen, content-addressable)."""

    device: str = "jetson-orin-agx-64gb"
    model: str = "llama3.1-8b"
    precision: str = "fp16"
    runtimes: Tuple[str, ...] = ("hf-transformers",)
    kv_policies: Tuple[str, ...] = ("sacrifice",)
    schedulers: Tuple[str, ...] = ("fcfs", "vtc", "wsc")
    mixes: Tuple[str, ...] = ("balanced", "flood")
    #: nvpmodel operating points the grid replays under — does fair
    #: scheduling hold when the whole node is downshifted?
    power_modes: Tuple[str, ...] = ("MAXN",)
    routing: str = "round-robin"
    rate_per_s: float = 3.0
    n_interactions: int = 24
    mean_turns: float = 3.0
    max_turns: int = 6
    mean_think_time_s: float = 1.0
    #: Small on purpose: fairness only matters while work is queued.
    max_batch: int = 2
    #: Per-tenant token budget (tokens/s); 0 disables the throttle.
    throttle_rate: float = 0.0
    throttle_burst_s: float = 4.0
    #: SLO deadlines the ``jain_tokens`` good-share metric scores by.
    #: The TTFT deadline sits between the queue-jump TTFT a fair
    #: scheduler buys a polite tenant (~10 s under the flood mix) and
    #: the full-queue wait FCFS imposes (minutes), so the good-share
    #: columns actually separate the disciplines.
    slo_ttft_s: float = 30.0
    slo_tpot_s: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.runtimes or not self.kv_policies:
            raise ConfigError("sweep axes must be non-empty")
        if not self.schedulers or not self.mixes or not self.power_modes:
            raise ConfigError("sweep axes must be non-empty")
        from repro.power.modes import get_power_mode

        for pm in self.power_modes:
            get_power_mode(pm)  # typed error on unknown names
        for s in self.schedulers:
            get_fair_scheduler(s)  # typed error on unknown names
        from repro.kvtier.policy import get_kv_policy

        for p in self.kv_policies:
            get_kv_policy(p)  # typed error likewise
        if not TENANT_MIXES:
            _init_mixes()
        for m in self.mixes:
            if m not in TENANT_MIXES:
                raise ConfigError(
                    f"unknown tenant mix {m!r}; "
                    f"known: {', '.join(sorted(TENANT_MIXES))}")
        if self.throttle_rate < 0:
            raise ConfigError("throttle_rate must be >= 0")

    def cache_key(self) -> str:
        """Content address folding the fairness semantics version."""
        return versioned_key(self, "fairness_version", FAIRNESS_VERSION)


def _weight_fidelity(requests, weights: Dict[str, float]) -> float:
    """How faithfully service tracked the entitlements (1.0 = perfect).

    Weighted fair queueing promises service *rates* proportional to the
    weights only while every tenant is backlogged, so the metric scores
    the contended window: ``T*`` is the instant the first tenant drains
    (its last completion), and each tenant's output tokens completed by
    ``T*`` are normalised by its weight.  The worst/best ratio of those
    per-entitlement token counts is the fidelity.  Cumulative served
    tokens over the whole run cannot separate schedulers — the
    simulation drains every request eventually, so lifetime service
    always equals demand; what a weight-honoring scheduler changes is
    the *order*, which the drain-time cutoff converts into tokens.
    """
    done: Dict[str, List] = {}
    for r in requests:
        if r.finish_s is not None:
            done.setdefault(r.tenant, []).append(r)
    if set(done) != set(weights) or not weights:
        return 0.0  # a tenant never completed anything: no fair window
    t_star = min(max(r.finish_s for r in reqs) for reqs in done.values())
    per_weight = [
        sum(r.output_tokens for r in reqs if r.finish_s <= t_star)
        / weights[tenant]
        for tenant, reqs in done.items()
    ]
    return min(per_weight) / max(per_weight) if max(per_weight) > 0 else 0.0


def _run_point(spec: FairnessSpec, mix: str, runtime: str, kv_policy: str,
               power_mode: str, scheduler: str) -> Dict:
    from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
    from repro.cluster.slo import SLOSpec
    from repro.fairness.accounting import check_books
    from repro.fairness.session import session_workload
    from repro.fairness.throttle import TokenThrottle

    tenants = TENANT_MIXES[mix]
    if mix in WEIGHTED_ENTITLEMENT_MIXES:
        weights = {t.name: float(t.weight) for t in tenants}
    else:
        weights = {t.name: 1.0 for t in tenants}
    throttle = None
    if spec.throttle_rate > 0:
        throttle = TokenThrottle(spec.throttle_rate,
                                 burst_s=spec.throttle_burst_s)
    fleet = FleetSpec.of(
        [NodeSpec(spec.device, power_mode=power_mode,
                  max_batch=spec.max_batch, runtime=runtime,
                  kv_policy=kv_policy, scheduler=scheduler)],
        model=spec.model, precision=spec.precision, policy=spec.routing)
    cluster = EdgeCluster.of(
        fleet,
        slo=SLOSpec(ttft_s=spec.slo_ttft_s, tpot_s=spec.slo_tpot_s),
        throttle=throttle, tenant_weights=weights,
    )
    interactions = session_workload(
        spec.rate_per_s, spec.n_interactions, tenants=tenants,
        mean_turns=spec.mean_turns, max_turns=spec.max_turns,
        mean_think_time_s=spec.mean_think_time_s, seed=spec.seed,
    )
    report = cluster.run_interactions(interactions)
    abandoned = frozenset(i.interaction_id for i in interactions
                          if i.abandoned)
    check_books(cluster.last_requests,
                sum(sum(n.tenant_served_tokens.values())
                    for n in cluster.nodes),
                abandoned, slo_met=cluster.slo.met, weights=weights)
    fidelity = _weight_fidelity(cluster.last_requests, weights)
    return {
        "scheduler": scheduler,
        "mix": mix,
        "runtime": runtime,
        "kv_policy": kv_policy,
        "power_mode": power_mode,
        "interactions": report.interactions,
        "abandoned": report.abandoned_interactions,
        "completed": report.completed,
        "throttled": report.throttled,
        "jain": round(report.jains_index, 3),
        "jain_tokens": round(report.jain_tokens, 3),
        "weight_fidelity": round(fidelity, 3),
        "goodput_rps": round(report.goodput_rps, 4),
        "p99_ttft_s": round(report.p99_ttft_s, 3),
        "wasted_tokens": report.wasted_tokens,
        "throttled_tokens": report.throttled_tokens,
        "prefix_hit_rate": round(report.prefix_hit_rate, 3),
        "j_per_token": round(report.j_per_token, 4),
    }


def run_fairness(spec: FairnessSpec) -> GridReport:
    """Run the mix × runtime × kv × power × scheduler grid."""
    return GridReport(spec, run_grid(spec, {
        "mix": spec.mixes,
        "runtime": spec.runtimes,
        "kv_policy": spec.kv_policies,
        "power_mode": spec.power_modes,
        "scheduler": spec.schedulers,
    }, _run_point))
