"""Pluggable per-queue fair schedulers (FCFS / VTC / WSC).

A :class:`FairScheduler` decides, at every admission opportunity, which
queued request a serving loop should admit next.  The interface is three
hooks on the request lifecycle:

- :meth:`~FairScheduler.on_arrival` — a request entered the queue;
- :meth:`~FairScheduler.on_tokens_served` — the serving loop billed
  prefill or decode tokens to a running request;
- :meth:`~FairScheduler.select_next` — pick the queue index to admit.

``fcfs`` is a bit-identical extraction of the historical head-of-queue
discipline (``select_next`` always returns 0 and the counters are
no-ops), so wiring a scheduler into an existing loop changes nothing
until a non-default policy is selected — the parity tests pin that.

``vtc`` is Virtual Token Counter fair queueing (Sheng et al., FairServe
lineage): each tenant accumulates a counter of weighted service
(``w_p * prefill + w_d * decode``, divided by the tenant's weight) and
the scheduler always admits the backlogged tenant with the smallest
counter.  A tenant arriving to an empty backlog is *lifted* to the
minimum live counter so idle time is not bankable as future priority.

``wsc`` is the plain weighted-service-counter variant: the same
min-counter rule with unit token costs and no lift, so long-idle
tenants may burst until their counter catches up.

Schedulers keep per-tenant state only (floats and ints keyed by tenant
name); selection scans the queue in order and tie-breaks on queue
position, so a fixed seed gives a bit-identical simulation regardless
of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ConfigError

#: Bump when scheduler/throttle/session semantics change: cache keys of
#: fairness sweeps fold this constant, so stale artifacts never collide.
FAIRNESS_VERSION = "fairness-1"


class FairScheduler:
    """Base queue-scheduler: FCFS-compatible no-op hooks.

    ``weights`` maps tenant name to service weight (missing tenants get
    1.0); only the counter-based policies consult it.
    """

    name = "base"
    #: Whether :meth:`on_tokens_served` does anything.  Serving loops
    #: skip the per-token hook when False; a subclass that overrides
    #: the hook must set this True.
    meters_service = False

    def __init__(self, weights: Optional[Mapping[str, float]] = None):
        self.weights: Dict[str, float] = dict(weights or {})
        for tenant, w in self.weights.items():
            if w <= 0:
                raise ConfigError(
                    f"scheduler weight for tenant {tenant!r} must be positive")

    def weight_of(self, tenant: str) -> float:
        return float(self.weights.get(tenant, 1.0))

    @staticmethod
    def tenant_of(request) -> str:
        return getattr(request, "tenant", "tenant0")

    # -- lifecycle hooks (no-ops in the base/FCFS discipline) ---------------
    def on_arrival(self, request, now: float) -> None:
        """A request joined the queue at simulation time ``now``."""

    def on_dequeue(self, request) -> None:
        """The serving loop admitted ``request`` out of the queue."""

    def on_tokens_served(self, request, prefill_tokens: int = 0,
                         decode_tokens: int = 0) -> None:
        """Service was billed to ``request``'s tenant."""

    def on_flush(self) -> None:
        """The queue was wiped wholesale (node crash)."""

    def select_next(self, queue: Sequence) -> int:
        """Index of the queued request to admit next (queue non-empty)."""
        raise NotImplementedError

    def counter_snapshot(self) -> Dict[str, float]:
        """Per-tenant service counters (empty for stateless policies)."""
        return {}


class FCFSScheduler(FairScheduler):
    """Head-of-queue admission: the historical discipline, extracted.

    Every hook is inherited as a no-op and ``select_next`` is constant
    0, so a loop driven by this scheduler pops exactly the requests the
    pre-scheduler code popped — bit-identical, parity-tested.
    """

    name = "fcfs"

    def select_next(self, queue: Sequence) -> int:
        return 0


class _CounterScheduler(FairScheduler):
    """Shared machinery of the min-counter policies (VTC / WSC)."""

    meters_service = True

    #: Relative cost of one prefill / one decode token.
    prefill_weight = 1.0
    decode_weight = 1.0
    #: Lift a tenant arriving to an empty backlog up to the minimum
    #: live counter (VTC's no-banking rule).
    lift_on_arrival = False

    def __init__(self, weights: Optional[Mapping[str, float]] = None):
        super().__init__(weights)
        self.counters: Dict[str, float] = {}
        self._backlog: Dict[str, int] = {}

    def on_arrival(self, request, now: float) -> None:
        tenant = self.tenant_of(request)
        if self.lift_on_arrival and not self._backlog.get(tenant):
            # Counters of tenants with queued work are "live"; an idle
            # tenant re-entering cannot undercut them with banked idle
            # time.  With nothing backlogged, any known counter works
            # as the floor (value-min: hash order cannot matter).
            live = [self.counters[t] for t, n in self._backlog.items() if n]
            floor = min(live) if live else min(self.counters.values(),
                                               default=0.0)
            self.counters[tenant] = max(self.counters.get(tenant, 0.0), floor)
        self.counters.setdefault(tenant, 0.0)
        self._backlog[tenant] = self._backlog.get(tenant, 0) + 1

    def on_dequeue(self, request) -> None:
        tenant = self.tenant_of(request)
        if self._backlog.get(tenant, 0) > 0:
            self._backlog[tenant] -= 1

    def on_tokens_served(self, request, prefill_tokens: int = 0,
                         decode_tokens: int = 0) -> None:
        tenant = self.tenant_of(request)
        cost = (self.prefill_weight * prefill_tokens
                + self.decode_weight * decode_tokens)
        if cost:
            self.counters[tenant] = (self.counters.get(tenant, 0.0)
                                     + cost / self.weight_of(tenant))

    def on_flush(self) -> None:
        self._backlog.clear()

    def select_next(self, queue: Sequence) -> int:
        """Earliest-queued request of the min-counter tenant.

        Scans the queue in arrival order and keys on (counter, queue
        position): within a tenant FCFS order is preserved, and ties
        between tenants resolve to the earlier arrival — deterministic
        with no dependence on dict iteration order.
        """
        best, best_key = 0, None
        for idx, r in enumerate(queue):
            key = (self.counters.get(self.tenant_of(r), 0.0), idx)
            if best_key is None or key < best_key:
                best, best_key = idx, key
        return best

    def counter_snapshot(self) -> Dict[str, float]:
        return dict(sorted(self.counters.items()))


class VTCScheduler(_CounterScheduler):
    """Virtual Token Counter fair queueing over prefill+decode tokens.

    Decode tokens cost twice a prefill token (the FairServe/VTC
    convention: decode occupies an iteration per token, prefill
    amortises), counters divide by tenant weight, and arrivals to an
    empty backlog are lifted to the live minimum.
    """

    name = "vtc"
    prefill_weight = 1.0
    decode_weight = 2.0
    lift_on_arrival = True


class WSCScheduler(_CounterScheduler):
    """Weighted service counters: tokens/weight, min-counter, no lift."""

    name = "wsc"
    prefill_weight = 1.0
    decode_weight = 1.0
    lift_on_arrival = False


_SCHEDULERS: Dict[str, type] = {
    FCFSScheduler.name: FCFSScheduler,
    VTCScheduler.name: VTCScheduler,
    WSCScheduler.name: WSCScheduler,
}


def list_fair_schedulers() -> List[str]:
    return sorted(_SCHEDULERS)


def get_fair_scheduler(name=None,
                       weights: Optional[Mapping[str, float]] = None
                       ) -> FairScheduler:
    """Resolve a queue scheduler by name (or pass an instance through).

    ``None`` resolves to FCFS — the historical discipline — so every
    call site that predates the scheduler axis keeps its behaviour.
    Raises :class:`~repro.errors.ConfigError` (never ``KeyError``) on
    unknown or non-string names, listing the valid policies.
    """
    if name is None:
        return FCFSScheduler()
    if isinstance(name, FairScheduler):
        return name
    if not isinstance(name, str):
        raise ConfigError(
            f"fair scheduler must be a string or FairScheduler, got "
            f"{type(name).__name__}; known: "
            f"{', '.join(list_fair_schedulers())}"
        )
    cls = _SCHEDULERS.get(name.strip().lower())
    if cls is None:
        raise ConfigError(
            f"unknown fair scheduler {name!r}; known: "
            f"{', '.join(list_fair_schedulers())}"
        )
    return cls(weights)
