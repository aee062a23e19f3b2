"""Pluggable request-routing policies for the edge cluster.

A router sees the live node states (queue depth, KV pressure, operating
point) and picks a node for each arriving request.  All policies are
deterministic: scores tie-break on ``node_id``, so a fixed seed gives a
bit-identical simulation.

Policies
--------
- :class:`RoundRobinRouter` — cycle over nodes regardless of state.
- :class:`JoinShortestQueueRouter` — fewest outstanding requests.
- :class:`LeastKVPressureRouter` — lowest committed-KV fraction.
- :class:`EnergyAwareRouter` — lowest predicted J/token at the node's
  *current* power mode (from the calibrated power model), inflated by a
  load penalty so a single efficient node does not melt under queueing.
- :class:`CarbonAwareRouter` — lowest marginal gCO₂/token: the energy-
  aware estimate weighted by each node's regional grid intensity *now*
  (its bound carbon trace on the DES clock).
- :class:`PrefixAffinityRouter` — multi-turn session turns follow their
  shared prefix: route to the node whose radix cache already holds the
  longest whole-block match (falling back to session stickiness, then
  least-KV), so turn k+1 reuses turn k's context instead of
  recomputing it.
- :class:`SplitwiseRouter` — prefill/decode disaggregation: prompts go
  to compute-strong prefill nodes, decode to the rest, with the KV
  handed over across a link (see :mod:`repro.engine.splitwise` for the
  two-device steady-state analysis this generalises).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.cluster.workload import ClusterRequest
from repro.errors import ConfigError


class Router:
    """Base policy: pick one node from the eligible set."""

    name = "base"
    #: True for policies that split prefill and decode across nodes.
    disaggregated = False

    def assign_roles(self, nodes: Sequence[ClusterNode]) -> None:
        """Called once before serving starts (override to set roles)."""

    def choose(self, request: ClusterRequest,
               nodes: Sequence[ClusterNode]) -> Optional[ClusterNode]:
        """Pick a node for the request, or None if nothing can take it."""
        raise NotImplementedError

    @staticmethod
    def eligible(request: ClusterRequest,
                 nodes: Sequence[ClusterNode]) -> List[ClusterNode]:
        """Nodes that will take the request right now.

        ``accepts`` already folds in the health check, so crashed nodes
        are ejected from every policy's candidate set here and readmit
        themselves the moment ``restart`` flips them healthy — no
        routing-table state to reconcile.
        """
        return [n for n in nodes if n.accepts(request)]


class RoundRobinRouter(Router):
    """Cycle over the fleet, skipping nodes that refuse admission."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def choose(self, request, nodes):
        for i in range(len(nodes)):
            node = nodes[(self._next + i) % len(nodes)]
            if node.accepts(request):
                self._next = (self._next + i + 1) % len(nodes)
                return node
        return None


class JoinShortestQueueRouter(Router):
    """Fewest outstanding (queued + running) requests wins."""

    name = "jsq"

    def choose(self, request, nodes):
        ok = self.eligible(request, nodes)
        if not ok:
            return None
        return min(ok, key=lambda n: (n.depth, n.node_id))


class LeastKVPressureRouter(Router):
    """Lowest committed KV fraction (running + queued) wins.

    Differs from JSQ on heterogeneous fleets: a big-memory node absorbs
    long-context requests that would saturate a small one's KV budget
    long before its queue fills.
    """

    name = "least-kv"

    def choose(self, request, nodes):
        ok = self.eligible(request, nodes)
        if not ok:
            return None
        return min(ok, key=lambda n: (n.kv_pressure, n.depth, n.node_id))


class EnergyAwareRouter(Router):
    """Route to the node with the lowest predicted marginal J/token.

    The prediction runs the calibrated cost + power models at each
    node's current operating point (so an autoscaler down-clocking a
    node changes its score).  A multiplicative load penalty
    ``(1 + load_weight * depth)`` stops the policy from piling the
    whole fleet's traffic onto one efficient node.
    """

    name = "energy-aware"

    def __init__(self, load_weight: float = 0.15,
                 batch_size: int = 4, context: int = 256) -> None:
        if load_weight < 0:
            raise ConfigError("load_weight must be >= 0")
        self.load_weight = load_weight
        self.batch_size = batch_size
        self.context = context

    def score(self, node: ClusterNode) -> float:
        j = node.predicted_j_per_token(self.batch_size, self.context)
        return j * (1.0 + self.load_weight * node.depth)

    def choose(self, request, nodes):
        ok = self.eligible(request, nodes)
        if not ok:
            return None
        return min(ok, key=lambda n: (self.score(n), n.node_id))


class CarbonAwareRouter(EnergyAwareRouter):
    """Route to the node with the lowest marginal gCO₂ per token.

    The score is the energy-aware J/token estimate converted to grams
    through the node's *regional* grid intensity right now (its bound
    :class:`~repro.sustain.trace.CarbonTrace`, read at the DES clock),
    with the same multiplicative load penalty.  Nodes without a trace
    score with a dimensionless intensity of 1 — so on a fleet where
    every region shares one trace (or none), the common factor cancels
    and the policy picks exactly the energy-aware node (the fallback
    equality pinned in ``tests/sustain/test_carbon_router.py``).
    """

    name = "carbon-aware"

    def score(self, node: ClusterNode) -> float:
        from repro.sustain.trace import J_PER_KWH

        j = node.predicted_j_per_token(self.batch_size, self.context)
        trace = getattr(node, "carbon_trace", None)
        if trace is not None:
            j = j / J_PER_KWH * trace.intensity_at(node.env.now)
        return j * (1.0 + self.load_weight * node.depth)


class PrefixAffinityRouter(Router):
    """Send a session's turns to the node already holding its prefix.

    Turn ``k+1``'s prompt extends turn ``k``'s prompt + output, so the
    node that served turn ``k`` holds (in its radix cache, on the paged
    runtime) exactly the KV this turn needs — any other placement
    recomputes the whole context.  Scoring, in order:

    1. largest whole-block radix hit on the request's ``prompt_ids``
       (probed side-effect-free via
       :meth:`~repro.kvtier.radix.RadixPrefixCache.peek`);
    2. the node that last served this interaction, when no cache can
       prove a hit (restarted or non-paged nodes);
    3. least KV pressure, for session-less or first-turn requests.

    Ties break on ``node_id``; the affinity map is per-router state, so
    a fixed seed stays bit-reproducible.
    """

    name = "prefix-affinity"

    def __init__(self) -> None:
        #: interaction_id -> node_id of the last placement.
        self._session_node: Dict[int, int] = {}

    def _hit_tokens(self, request: ClusterRequest, node: ClusterNode) -> int:
        if node.radix is None or request.prompt_ids is None:
            return 0
        matched = node.radix.peek(request.prompt_ids)
        return node.radix.block_hit_tokens(matched)

    def choose(self, request, nodes):
        ok = self.eligible(request, nodes)
        if not ok:
            return None
        iid = getattr(request, "interaction_id", None)
        hit, best = max(((self._hit_tokens(request, n), n) for n in ok),
                        key=lambda p: (p[0], -p[1].node_id))
        if hit <= 0:
            best = None
            if iid is not None and iid in self._session_node:
                home = self._session_node[iid]
                best = next((n for n in ok if n.node_id == home), None)
            if best is None:
                best = min(ok, key=lambda n: (n.kv_pressure, n.depth,
                                              n.node_id))
        if iid is not None:
            self._session_node[iid] = best.node_id
        return best


class SplitwiseRouter(Router):
    """Prefill/decode disaggregation across the fleet.

    ``prefill_nodes`` of the fleet (by descending FP16 peak compute, the
    Splitwise placement rule: prefill is compute-bound) serve prompts
    only; the rest decode only.  ``choose`` places arrivals on the
    least-loaded prefill node; :meth:`choose_decode` places the
    prefilled request (after its KV transfer) on the least-KV decode
    node.
    """

    name = "splitwise"
    disaggregated = True

    def __init__(self, prefill_nodes: int = 1,
                 link_bytes_per_s: float = 10e9 / 8) -> None:
        if prefill_nodes < 1:
            raise ConfigError("need at least one prefill node")
        if link_bytes_per_s <= 0:
            raise ConfigError("link bandwidth must be positive")
        self.prefill_nodes = prefill_nodes
        self.link_bytes_per_s = link_bytes_per_s
        self._prefill: List[ClusterNode] = []
        self._decode: List[ClusterNode] = []

    def assign_roles(self, nodes):
        if len(nodes) < 2:
            raise ConfigError("splitwise needs >= 2 nodes")
        if self.prefill_nodes >= len(nodes):
            raise ConfigError("splitwise needs >= 1 decode node")
        ranked = sorted(
            nodes,
            key=lambda n: (-n.device.gpu.effective_flops(n.precision),
                           n.node_id),
        )
        self._prefill = ranked[: self.prefill_nodes]
        self._decode = ranked[self.prefill_nodes:]
        for n in self._prefill:
            n.role = "prefill"
        for n in self._decode:
            n.role = "decode"

    def choose(self, request, nodes):
        ok = [n for n in self._prefill if n.accepts(request)]
        if not ok:
            return None
        return min(ok, key=lambda n: (n.depth, n.node_id))

    def choose_decode(self, request: ClusterRequest) -> Optional[ClusterNode]:
        ok = [n for n in self._decode if n.accepts(request)]
        if not ok:
            return None
        return min(ok, key=lambda n: (n.kv_pressure, n.depth, n.node_id))

    def transfer_seconds(self, request: ClusterRequest,
                         node: ClusterNode) -> float:
        """KV handover time for the prefilled prompt."""
        kv_bytes = node.arch.kv_cache_spec().bytes_total(
            1, request.input_tokens
        )
        return kv_bytes / self.link_bytes_per_s


_ROUTERS: Dict[str, type] = {
    RoundRobinRouter.name: RoundRobinRouter,
    JoinShortestQueueRouter.name: JoinShortestQueueRouter,
    LeastKVPressureRouter.name: LeastKVPressureRouter,
    EnergyAwareRouter.name: EnergyAwareRouter,
    CarbonAwareRouter.name: CarbonAwareRouter,
    PrefixAffinityRouter.name: PrefixAffinityRouter,
    SplitwiseRouter.name: SplitwiseRouter,
}


def list_policies() -> List[str]:
    return sorted(_ROUTERS)


def get_router(name: str, **kwargs) -> Router:
    """Instantiate a routing policy by name.

    Raises :class:`~repro.errors.ConfigError` (never ``KeyError`` /
    ``AttributeError``) on unknown or non-string names, listing the
    valid policies in the message.
    """
    if not isinstance(name, str):
        raise ConfigError(
            f"routing policy must be a string, got {type(name).__name__}; "
            f"known: {', '.join(list_policies())}"
        )
    cls = _ROUTERS.get(name.strip().lower())
    if cls is None:
        raise ConfigError(
            f"unknown routing policy {name!r}; known: {', '.join(list_policies())}"
        )
    return cls(**kwargs)
