"""Request-trace generators for single-device and cluster serving.

Real edge deployments see anything but fixed-shape Poisson arrivals.
This module is the single workload API both the paper's static-batch
scheduler and the cluster layer draw from, and it defines the request
records they serve (:class:`ServeRequest`, :class:`ClusterRequest`):

- :func:`poisson_workload` — the memoryless stream with fixed-shape
  requests.
- :func:`bursty_workload` — a two-state Markov-modulated Poisson
  process (MMPP-2): calm and burst phases with exponential sojourns,
  the standard parsimonious model of flash-crowd traffic.
- :func:`diurnal_workload` — a sinusoidal day/night rate profile
  sampled by thinning (non-homogeneous Poisson).
- :func:`multi_tenant_workload` — a weighted mix of tenants, each with
  its own prompt/output-length profile (optionally estimated from the
  prompt pools in :mod:`repro.datasets`).

Every generator is deterministic under its ``seed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ExperimentError, WorkloadError


@dataclass
class ServeRequest:
    """One inference request in the arrival stream."""

    req_id: int
    arrival_s: float
    input_tokens: int
    output_tokens: int
    first_token_s: Optional[float] = None
    finish_s: Optional[float] = None
    generated: int = 0
    #: Decode tokens thrown away by preemption or KV-state loss; each
    #: one was produced (and billed) once already and must be redone.
    lost_tokens: int = 0
    #: How many times this request restarted from scratch.
    replays: int = 0
    #: Token-ID prompt (optional).  When present on the paged backend,
    #: the radix prefix cache can share KV blocks with other requests
    #: whose prompts start identically.
    prompt_ids: Optional[tuple] = None
    #: Sim time of the most recent decode token (LRU victim selection).
    last_token_s: Optional[float] = None
    #: Prompt tokens served from the shared-prefix cache (block-aligned).
    prefix_cached_tokens: int = 0

    def reset_for_replay(self) -> None:
        """Drop in-flight state after preemption / KV loss.

        The recompute-style discipline: generated tokens are discarded
        (counted in ``lost_tokens``), the request re-prefills wherever
        it lands next, and the first-token clock keeps its *original*
        value if a token was already streamed — the client saw it.
        """
        if self.generated:
            self.lost_tokens += self.generated
            self.replays += 1
        self.generated = 0
        self.finish_s = None

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def latency_s(self) -> Optional[float]:
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def tpot_s(self) -> Optional[float]:
        """Time per output token after the first."""
        if self.finish_s is None or self.first_token_s is None or self.output_tokens < 2:
            return None
        return (self.finish_s - self.first_token_s) / (self.output_tokens - 1)


@dataclass
class ClusterRequest(ServeRequest):
    """A :class:`ServeRequest` with multi-tenant and routing bookkeeping."""

    tenant: str = "tenant0"
    #: Node the router placed the request on (set by the cluster).
    node_id: Optional[int] = None
    #: True once admission control gave up on the request.
    rejected: bool = False
    #: True when the per-tenant token throttle turned the request away
    #: before placement (a rejected-with-reason subset of ``rejected``).
    throttled: bool = False
    #: Multi-turn session membership (``repro.fairness``): the owning
    #: interaction and this request's turn index within it.
    interaction_id: Optional[int] = None
    turn: int = 0
    #: Placement attempts that found no node with capacity.
    retries: int = 0
    #: Times the request was re-placed after losing its node (crash).
    requeues: int = 0
    #: Busy energy attributed to this request's tokens (J).
    energy_j: float = 0.0
    #: Simulated time the prefill finished (set by prefill/decode split).
    prefill_end_s: Optional[float] = None
    #: Open observability span ids (``repro.obs``): the request-lifetime
    #: span and the current queue-wait span.  ``-1`` (``NO_SPAN``) when
    #: observability is off or the span is closed.
    obs_span: int = -1
    queue_span: int = -1
    #: Transient: evicted under KV pressure, awaiting re-admission.
    evicted: bool = False
    #: KV lifecycle state (``repro.kvtier``): ``resident`` while the
    #: request's KV lives on-device, ``swapped`` while preserved host-
    #: side awaiting re-admission, ``sacrificed`` after a drop.
    kv_state: str = "resident"
    #: Bytes currently preserved in the host swap tier (0 unless
    #: ``kv_state == "swapped"``).
    swapped_kv_bytes: int = 0
    #: Lifetime swap-out / swap-in counts for this request.
    swaps: int = 0
    swap_ins: int = 0
    #: Cascade stage (``repro.sustain``): requests carrying a tier are
    #: only admitted by nodes labelled with it (None = any node).
    tier: Optional[str] = None
    #: True once the cascade's quality gate escalated this (SLM-tier)
    #: request — its generated tokens are booked as waste.
    escalated: bool = False
    #: The SLM request this LLM-tier twin re-serves (-1 = original).
    escalated_from: int = -1


def poisson_workload(
    rate_per_s: float,
    n_requests: int,
    input_tokens: int = 32,
    output_tokens: int = 64,
    seed: int = 0,
) -> List[ServeRequest]:
    """Seeded Poisson arrival stream with fixed-shape requests."""
    if rate_per_s <= 0 or n_requests < 1:
        raise ExperimentError("need positive rate and >= 1 request")
    rng = np.random.default_rng(seed)
    t = 0.0
    out = []
    for i in range(n_requests):
        t += float(rng.exponential(1.0 / rate_per_s))
        out.append(ServeRequest(req_id=i, arrival_s=t,
                                input_tokens=input_tokens,
                                output_tokens=output_tokens))
    return out


def bursty_workload(
    rate_calm_per_s: float,
    rate_burst_per_s: float,
    n_requests: int,
    input_tokens: int = 32,
    output_tokens: int = 64,
    mean_calm_s: float = 30.0,
    mean_burst_s: float = 10.0,
    seed: int = 0,
) -> List[ClusterRequest]:
    """Two-state MMPP: calm/burst phases with exponential sojourns.

    The process alternates between a calm state (arrival rate
    ``rate_calm_per_s``) and a burst state (``rate_burst_per_s``); the
    time spent in each state is exponential with the given means.
    """
    if min(rate_calm_per_s, rate_burst_per_s) <= 0 or n_requests < 1:
        raise WorkloadError("need positive rates and >= 1 request")
    if rate_burst_per_s < rate_calm_per_s:
        raise WorkloadError("burst rate must be >= calm rate")
    if min(mean_calm_s, mean_burst_s) <= 0:
        raise WorkloadError("state sojourn means must be positive")
    rng = np.random.default_rng(seed)
    t = 0.0
    burst = False
    state_end = float(rng.exponential(mean_calm_s))
    out: List[ClusterRequest] = []
    while len(out) < n_requests:
        rate = rate_burst_per_s if burst else rate_calm_per_s
        gap = float(rng.exponential(1.0 / rate))
        if t + gap >= state_end:
            # Memoryless: restart the draw from the state boundary.
            t = state_end
            burst = not burst
            state_end = t + float(
                rng.exponential(mean_burst_s if burst else mean_calm_s)
            )
            continue
        t += gap
        out.append(ClusterRequest(req_id=len(out), arrival_s=t,
                                  input_tokens=input_tokens,
                                  output_tokens=output_tokens))
    return out


def diurnal_workload(
    mean_rate_per_s: float,
    n_requests: int,
    period_s: float = 240.0,
    swing: float = 0.8,
    input_tokens: int = 32,
    output_tokens: int = 64,
    seed: int = 0,
) -> List[ClusterRequest]:
    """Sinusoidal day/night rate profile, sampled by thinning.

    The instantaneous rate is
    ``mean * (1 + swing * sin(2*pi*t/period))``; ``swing`` in [0, 1)
    controls how deep the troughs go.  ``period_s`` is compressed from
    24 h to something a simulation can cover.
    """
    if mean_rate_per_s <= 0 or n_requests < 1:
        raise WorkloadError("need a positive mean rate and >= 1 request")
    if not 0.0 <= swing < 1.0:
        raise WorkloadError("swing must be in [0, 1)")
    if period_s <= 0:
        raise WorkloadError("period must be positive")
    rng = np.random.default_rng(seed)
    rate_max = mean_rate_per_s * (1.0 + swing)
    t = 0.0
    out: List[ClusterRequest] = []
    while len(out) < n_requests:
        t += float(rng.exponential(1.0 / rate_max))
        rate_t = mean_rate_per_s * (
            1.0 + swing * math.sin(2.0 * math.pi * t / period_s)
        )
        if float(rng.uniform()) * rate_max <= rate_t:
            out.append(ClusterRequest(req_id=len(out), arrival_s=t,
                                      input_tokens=input_tokens,
                                      output_tokens=output_tokens))
    return out


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's share of traffic and request-shape distribution.

    Lengths are drawn from independent lognormals (the shape reported
    for production LLM traces) parameterised by mean and coefficient of
    variation, then clamped to ``[min_tokens, max_tokens]``.
    """

    name: str
    weight: float = 1.0
    mean_input_tokens: float = 64.0
    mean_output_tokens: float = 64.0
    cv_input: float = 0.5
    cv_output: float = 0.5
    min_tokens: int = 4
    max_tokens: int = 2048

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(f"tenant {self.name!r} needs a positive weight")
        if min(self.mean_input_tokens, self.mean_output_tokens) < 1:
            raise WorkloadError(f"tenant {self.name!r} mean lengths must be >= 1")
        if min(self.cv_input, self.cv_output) < 0:
            raise WorkloadError(f"tenant {self.name!r} CVs must be >= 0")
        if not 1 <= self.min_tokens <= self.max_tokens:
            raise WorkloadError(f"tenant {self.name!r} has an empty length range")

    def _draw(self, rng: np.random.Generator, mean: float, cv: float) -> int:
        if cv <= 0:
            n = mean
        else:
            sigma = math.sqrt(math.log(1.0 + cv * cv))
            mu = math.log(mean) - 0.5 * sigma * sigma
            n = float(rng.lognormal(mu, sigma))
        return int(min(max(round(n), self.min_tokens), self.max_tokens))

    def sample_shape(self, rng: np.random.Generator) -> tuple:
        """(input_tokens, output_tokens) for one request."""
        return (
            self._draw(rng, self.mean_input_tokens, self.cv_input),
            self._draw(rng, self.mean_output_tokens, self.cv_output),
        )


def normalized_weights(tenants: Sequence[TenantProfile]) -> np.ndarray:
    """Tenant draw probabilities from profile weights (sums to 1).

    The single normalisation point shared by ``multi_tenant_workload``
    and :func:`repro.fairness.session.session_workload`; raises a typed
    :class:`~repro.errors.WorkloadError` on an empty mix or a
    non-positive total (individual ``weight <= 0`` is already refused
    by :class:`TenantProfile` at construction).
    """
    if not tenants:
        raise WorkloadError("need at least one tenant profile")
    weights = np.array([t.weight for t in tenants], dtype=float)
    total = float(weights.sum())
    if not total > 0 or not np.isfinite(total):
        raise WorkloadError(
            f"tenant weights must sum to a positive finite value, "
            f"got {total!r}")
    return weights / total


#: A small default mix: chat (short in/medium out), summarisation
#: (long in/short out) and batch analytics (long both ways).
DEFAULT_TENANTS = (
    TenantProfile("chat", weight=6.0, mean_input_tokens=48,
                  mean_output_tokens=96, cv_input=0.6, cv_output=0.7),
    TenantProfile("summarize", weight=3.0, mean_input_tokens=512,
                  mean_output_tokens=48, cv_input=0.4, cv_output=0.4),
    TenantProfile("analytics", weight=1.0, mean_input_tokens=768,
                  mean_output_tokens=192, cv_input=0.3, cv_output=0.3),
)


def multi_tenant_workload(
    rate_per_s: float,
    n_requests: int,
    tenants: Sequence[TenantProfile] = DEFAULT_TENANTS,
    arrivals: str = "poisson",
    seed: int = 0,
    **arrival_kwargs,
) -> List[ClusterRequest]:
    """Weighted tenant mix over a Poisson or bursty arrival process.

    ``arrivals`` selects the base process (``"poisson"`` or
    ``"bursty"``); extra keyword arguments are forwarded to it (for
    bursty, ``rate_per_s`` is the calm rate and ``rate_burst_per_s``
    defaults to 4x calm).
    """
    weights = normalized_weights(tenants)
    if arrivals == "poisson":
        base = poisson_workload(rate_per_s, n_requests, seed=seed,
                                **arrival_kwargs)
    elif arrivals == "bursty":
        arrival_kwargs.setdefault("rate_burst_per_s", 4.0 * rate_per_s)
        base = bursty_workload(rate_per_s, n_requests=n_requests, seed=seed,
                               **arrival_kwargs)
    else:
        raise WorkloadError(f"unknown arrival process {arrivals!r}")

    rng = np.random.default_rng(seed + 1)
    out: List[ClusterRequest] = []
    for r in base:
        tenant = tenants[int(rng.choice(len(tenants), p=weights))]
        inp, outp = tenant.sample_shape(rng)
        out.append(ClusterRequest(req_id=r.req_id, arrival_s=r.arrival_s,
                                  input_tokens=inp, output_tokens=outp,
                                  tenant=tenant.name))
    return out


def shared_prefix_workload(
    rate_per_s: float,
    n_requests: int,
    prefix_tokens: int = 128,
    share_ratio: float = 0.5,
    unique_tokens: int = 32,
    output_tokens: int = 64,
    seed: int = 0,
) -> List[ClusterRequest]:
    """The millions-of-users scenario: one common system prompt.

    A ``share_ratio`` fraction of requests open with the same
    ``prefix_tokens``-long system prompt followed by a per-request tail;
    the rest get fully unique prompts of identical total length, so the
    two populations are shape-matched and any TTFT difference comes
    from radix prefix hits alone.  Every request carries ``prompt_ids``
    (deterministic token IDs under ``seed``).
    """
    if rate_per_s <= 0 or n_requests < 1:
        raise WorkloadError("need a positive rate and >= 1 request")
    if not 0.0 <= share_ratio <= 1.0:
        raise WorkloadError("share_ratio must be in [0, 1]")
    if prefix_tokens < 1 or unique_tokens < 1:
        raise WorkloadError("prefix and unique lengths must be >= 1")
    rng = np.random.default_rng(seed)
    system_prompt = tuple(int(t) for t in
                          rng.integers(0, 32000, size=prefix_tokens))
    t = 0.0
    out: List[ClusterRequest] = []
    for i in range(n_requests):
        t += float(rng.exponential(1.0 / rate_per_s))
        shared = bool(rng.uniform() < share_ratio)
        tail_len = unique_tokens if shared else prefix_tokens + unique_tokens
        tail = tuple(int(v) for v in
                     rng.integers(32000, 64000, size=tail_len))
        ids = (system_prompt + tail) if shared else tail
        out.append(ClusterRequest(req_id=i, arrival_s=t,
                                  input_tokens=len(ids),
                                  output_tokens=output_tokens,
                                  prompt_ids=ids,
                                  tenant="shared" if shared else "unique"))
    return out


def as_cluster_requests(requests: Sequence[ServeRequest]) -> List[ClusterRequest]:
    """Upgrade plain requests to cluster requests (shared shapes).

    ``ClusterRequest``s pass through as they are.  A plain
    ``ServeRequest`` becomes a fresh copy, so serving the result leaves
    the caller's object untouched (no ``first_token_s``, ``finish_s`` or
    ``generated``); :meth:`EdgeCluster.run` keeps the served copies on
    ``last_requests``.
    """
    out = []
    for r in requests:
        if isinstance(r, ClusterRequest):
            out.append(r)
        else:
            out.append(ClusterRequest(req_id=r.req_id, arrival_s=r.arrival_s,
                                      input_tokens=r.input_tokens,
                                      output_tokens=r.output_tokens,
                                      prompt_ids=r.prompt_ids))
    return out
