"""Wasted-token accounting: a per-tenant conservation ledger.

Every decode token a node produces is billed somewhere — the question
fair serving asks is *to whom, usefully?*  :func:`build_ledger` folds a
run's requests into one :class:`TenantLedger` per tenant with an exact
conservation identity:

``produced_tokens == served_tokens + wasted_tokens``

- *produced* — every decode token generated for the tenant, including
  tokens later thrown away (``generated + lost_tokens``; this matches
  the nodes' ``served_tokens`` meters, which count production);
- *served* — tokens delivered by completed requests whose session was
  not abandoned (useful work);
- *wasted* — replayed tokens (preemption sacrifice, crash KV loss),
  tokens of requests that never finished, tokens served to turns of
  interactions later abandoned (the FairServe waste notion: the
  conversation died, so its context tokens bought nothing), and tokens
  an SLM generated for requests the cascade's quality gate escalated
  (``repro.sustain``: the answer was re-served by the LLM, so the
  small model's draft bought nothing).

Throttled requests are rejected before placement and must satisfy
``produced == 0``; their turned-away demand lands in
``throttled_tokens``, closing the books: demand in equals service out
plus waste plus throttled-away, per tenant.
:func:`conservation_violations` checks all of it;
:func:`check_books` raises on any violation and is what the fairness
and sustain sweeps call after every run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError

FrozenIds = frozenset


@dataclass
class TenantLedger:
    """One tenant's token books for a run (conservation-checked)."""

    tenant: str
    weight: float = 1.0
    injected: int = 0
    completed: int = 0
    rejected: int = 0
    throttled: int = 0
    #: Total demand (prompt + requested output) over injected requests.
    demand_tokens: int = 0
    #: Demand turned away by the throttle (subset of ``demand_tokens``).
    throttled_tokens: int = 0
    #: Requested output tokens over non-throttled injected requests —
    #: the denominator of the SLO-good share.
    admitted_output_tokens: int = 0
    #: Decode tokens produced for this tenant (``generated + lost``).
    produced_tokens: int = 0
    #: Tokens delivered by completed, non-abandoned requests.
    served_tokens: int = 0
    #: Produced minus served: replays, unfinished, abandoned sessions.
    wasted_tokens: int = 0
    #: Served tokens of requests that met every SLO deadline.
    good_tokens: int = 0

    @property
    def slo_good_share(self) -> float:
        """SLO-attained fraction of the tenant's admitted output demand."""
        if self.admitted_output_tokens <= 0:
            return 0.0
        return self.good_tokens / self.admitted_output_tokens

    def as_row(self) -> Dict:
        return {
            "tenant": self.tenant,
            "weight": self.weight,
            "injected": self.injected,
            "completed": self.completed,
            "rejected": self.rejected,
            "throttled": self.throttled,
            "demand_tokens": self.demand_tokens,
            "throttled_tokens": self.throttled_tokens,
            "produced_tokens": self.produced_tokens,
            "served_tokens": self.served_tokens,
            "wasted_tokens": self.wasted_tokens,
            "good_tokens": self.good_tokens,
            "slo_good_share": round(self.slo_good_share, 4),
        }


def build_ledger(
    requests: Sequence,
    abandoned_interactions: FrozenIds = frozenset(),
    slo_met: Optional[Callable] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> Dict[str, TenantLedger]:
    """Fold request outcomes into per-tenant ledgers (sorted by tenant).

    ``abandoned_interactions`` holds the interaction IDs whose sessions
    were abandoned: even *completed* turns of those sessions count as
    wasted (their context died with the conversation).  ``slo_met`` is
    a predicate over completed requests (typically ``SLOSpec.met``);
    without it ``good_tokens`` equals ``served_tokens``.
    """
    ledgers: Dict[str, TenantLedger] = {}
    for r in requests:
        tenant = getattr(r, "tenant", "tenant0")
        led = ledgers.setdefault(tenant, TenantLedger(tenant=tenant))
        if weights and tenant in weights:
            led.weight = float(weights[tenant])
        demand = r.input_tokens + r.output_tokens
        led.injected += 1
        led.demand_tokens += demand
        if getattr(r, "throttled", False):
            led.throttled += 1
            led.throttled_tokens += demand
            # Throttled before placement: nothing was produced.  A
            # violation here means the throttle ran after serving
            # started — conservation_violations flags it.
            led.produced_tokens += r.generated + r.lost_tokens
            continue
        led.admitted_output_tokens += r.output_tokens
        if getattr(r, "rejected", False):
            led.rejected += 1
        produced = r.generated + r.lost_tokens
        led.produced_tokens += produced
        in_dead_session = (
            getattr(r, "interaction_id", None) in abandoned_interactions)
        finished = r.finish_s is not None
        if getattr(r, "escalated", False):
            # The cascade gate failed this SLM draft: everything it
            # produced is waste, the LLM twin carries the service.
            if finished:
                led.completed += 1
            led.wasted_tokens += produced
        elif finished and not in_dead_session:
            led.completed += 1
            led.served_tokens += r.generated
            led.wasted_tokens += r.lost_tokens
            if slo_met is None or slo_met(r):
                led.good_tokens += r.generated
        else:
            if finished:
                led.completed += 1
            led.wasted_tokens += produced
    return dict(sorted(ledgers.items()))


def conservation_violations(
    ledgers: Mapping[str, TenantLedger],
    node_served_tokens: Optional[int] = None,
) -> List[str]:
    """Check the token books; returns human-readable violations (empty
    list = balanced).

    Per tenant: ``produced == served + wasted`` and throttled requests
    produced nothing (``throttled > 0`` with all demand throttled away
    implies ``produced == 0``).  Fleet-wide, when the caller passes the
    nodes' production meter sum: ``sum(produced) == node_served_tokens``.
    """
    out: List[str] = []
    for tenant, led in ledgers.items():
        if led.produced_tokens != led.served_tokens + led.wasted_tokens:
            out.append(
                f"{tenant}: produced {led.produced_tokens} != served "
                f"{led.served_tokens} + wasted {led.wasted_tokens}")
        if led.throttled == led.injected and led.produced_tokens != 0:
            out.append(
                f"{tenant}: fully throttled but produced "
                f"{led.produced_tokens} tokens")
        if led.throttled_tokens > led.demand_tokens:
            out.append(
                f"{tenant}: throttled_tokens {led.throttled_tokens} exceeds "
                f"demand {led.demand_tokens}")
    if node_served_tokens is not None:
        produced = sum(l.produced_tokens for l in ledgers.values())
        if produced != node_served_tokens:
            out.append(
                f"fleet: ledger production {produced} != node production "
                f"meters {node_served_tokens}")
    return out


def check_books(
    requests: Sequence,
    node_served_tokens: int,
    abandoned_interactions: FrozenIds = frozenset(),
    slo_met: Optional[Callable] = None,
    weights: Optional[Mapping[str, float]] = None,
) -> None:
    """Build the ledgers; raise unless every book balances.

    The arguments are those of :func:`build_ledger`, plus the fleet's
    production meter sum for the fleet-wide check.  Raises
    :class:`~repro.errors.ExperimentError` listing every violation.
    """
    ledgers = build_ledger(requests, abandoned_interactions,
                           slo_met=slo_met, weights=weights)
    violations = conservation_violations(
        ledgers, node_served_tokens=node_served_tokens)
    if violations:
        raise ExperimentError(
            "token books do not balance: " + "; ".join(violations))
