"""The ``repro kvtier`` sweep: policy × trigger × prefix-share-ratio.

One spec describes a memory-pressured single-node serving scenario; the
sweep replays the *same* deterministic workload under every combination
of KV lifecycle policy, trigger threshold and shared-prefix ratio, so
the rows differ only in what the policy axis changed.  The grid runs
on :mod:`repro.core.grid`; everything is content-addressed
(:func:`KvTierSpec.cache_key` folds
:data:`~repro.kvtier.policy.KV_TIER_VERSION`) and bit-reproducible —
the CI smoke job runs the sweep twice and diffs the CSV byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.core.grid import GridReport, run_grid, versioned_key
from repro.errors import ConfigError
from repro.kvtier.policy import KV_TIER_VERSION, get_kv_policy


@dataclass(frozen=True)
class KvTierSpec:
    """One kvtier sweep configuration (frozen, content-addressable)."""

    device: str = "jetson-orin-agx-64gb"
    model: str = "llama3.1-8b"
    precision: str = "fp16"
    runtime: str = "paged"
    power_mode: str = "MAXN"
    rate_per_s: float = 4.0
    n_requests: int = 40
    prefix_tokens: int = 128
    unique_tokens: int = 32
    output_tokens: int = 64
    max_batch: int = 8
    #: Fraction of the node's natural KV budget kept.  The default
    #: workload barely dents a 64 GB board's natural budget, so the
    #: default keeps ~0.5% of it — enough pressure that the preemption
    #: path the sweep exists to compare actually fires.
    kv_budget_frac: float = 0.005
    policies: Tuple[str, ...] = ("sacrifice", "swap-lifo", "swap-lru")
    triggers: Tuple[float, ...] = (1.0, 0.85)
    share_ratios: Tuple[float, ...] = (0.0, 0.5)
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.policies or not self.triggers or not self.share_ratios:
            raise ConfigError("sweep axes must be non-empty")
        if not 0.0 < self.kv_budget_frac <= 1.0:
            raise ConfigError("kv_budget_frac must be in (0, 1]")
        for p in self.policies:
            get_kv_policy(p)  # typed error on unknown names
        for t in self.triggers:
            if not 0.0 < t <= 1.0:
                raise ConfigError("triggers must be in (0, 1]")
        for s in self.share_ratios:
            if not 0.0 <= s <= 1.0:
                raise ConfigError("share_ratios must be in [0, 1]")

    def cache_key(self) -> str:
        """Content address folding the kvtier semantics version."""
        return versioned_key(self, "kv_tier_version", KV_TIER_VERSION)


def _run_point(spec: KvTierSpec, share_ratio: float, policy_name: str,
               trigger: float) -> Dict:
    from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
    from repro.cluster.workload import shared_prefix_workload

    fleet = FleetSpec.of(
        [NodeSpec(spec.device, power_mode=spec.power_mode,
                  max_batch=spec.max_batch, runtime=spec.runtime,
                  kv_policy=policy_name, kv_trigger=trigger)],
        model=spec.model, precision=spec.precision,
    )
    cluster = EdgeCluster.of(fleet)
    node = cluster.nodes[0]
    node._kv_budget_base = max(
        1, int(node._kv_budget_base * spec.kv_budget_frac))
    node._explicit_kv_budget = True
    workload = shared_prefix_workload(
        spec.rate_per_s, spec.n_requests,
        prefix_tokens=spec.prefix_tokens,
        share_ratio=share_ratio,
        unique_tokens=spec.unique_tokens,
        output_tokens=spec.output_tokens,
        seed=spec.seed,
    )
    report = cluster.run(workload)
    policy = node.kv_policy
    row = {
        "policy": policy.label,
        "trigger": trigger,
        "share_ratio": share_ratio,
        "completed": report.completed,
        "goodput_rps": round(report.goodput_rps, 4),
        "p50_ttft_s": round(report.p50_ttft_s, 3),
        "p99_ttft_s": round(report.p99_ttft_s, 3),
        "lost_tokens": report.lost_tokens,
        "swap_outs": report.swap_outs,
        "swap_ins": report.swap_ins,
        "sacrifices": report.sacrifices,
        "swapped_gb": round(report.swapped_gb, 4),
        "prefix_hit_rate": round(report.prefix_hit_rate, 3),
        "prefix_hit_tokens": report.prefix_hit_tokens,
        "j_per_token": round(report.j_per_token, 4),
    }
    return row


def run_kvtier(spec: KvTierSpec) -> GridReport:
    """Run the full share-ratio × policy × trigger grid (deterministic)."""
    return GridReport(spec, run_grid(spec, {
        "share_ratio": spec.share_ratios,
        "policy_name": spec.policies,
        "trigger": spec.triggers,
    }, _run_point))
