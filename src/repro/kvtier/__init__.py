"""repro.kvtier — the KV lifecycle subsystem.

Owns what happens to KV caches under memory pressure: the
:class:`~repro.kvtier.policy.KvLifecyclePolicy` axis (sacrifice vs.
host-swap preemption, LIFO/FIFO/LRU victims, conservative vs.
aggressive triggers), the bounded host
:class:`~repro.kvtier.swap.HostSwapSpace` with bandwidth-modelled
transfers, and the shared-prefix
:class:`~repro.kvtier.radix.RadixPrefixCache` for the paged backend.
``repro kvtier`` (see :mod:`repro.kvtier.sweep`) sweeps the whole
design space deterministically.
"""

from repro.kvtier.policy import (
    AGGRESSIVE_TRIGGER,
    KV_TIER_VERSION,
    VICTIM_ORDERS,
    KvLifecyclePolicy,
    SacrificePolicy,
    SwapPolicy,
    get_kv_policy,
    list_kv_policies,
)
from repro.kvtier.radix import RadixPrefixCache, RadixStats
from repro.kvtier.swap import (
    HostSwapSpace,
    SwapStats,
    swap_bandwidth_bytes_s,
)
from repro.kvtier.sweep import KvTierSpec, run_kvtier

__all__ = [
    "AGGRESSIVE_TRIGGER",
    "KV_TIER_VERSION",
    "VICTIM_ORDERS",
    "KvLifecyclePolicy",
    "SacrificePolicy",
    "SwapPolicy",
    "get_kv_policy",
    "list_kv_policies",
    "RadixPrefixCache",
    "RadixStats",
    "HostSwapSpace",
    "SwapStats",
    "swap_bandwidth_bytes_s",
    "KvTierSpec",
    "run_kvtier",
]
