"""The cluster orchestrator: N nodes, one clock, a router in front.

:class:`EdgeCluster` owns a fleet of :class:`~repro.cluster.node.ClusterNode`
on one shared :class:`~repro.sim.environment.Environment`, injects a
request trace, routes each arrival through the configured policy (with
bounded retry before rejection), and folds the outcome into a
:class:`~repro.cluster.slo.ClusterReport`.

Build a heterogeneous fleet declaratively from a
:class:`~repro.cluster.fleet.FleetSpec` of :class:`NodeSpec` presets:

>>> fleet = FleetSpec.of(
...     ["jetson-orin-agx-64gb", "jetson-xavier-agx-32gb"],
...     model="llama", precision="fp16", policy="energy-aware")
>>> report = EdgeCluster.of(fleet).run(poisson_workload(2.0, 50))
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.cluster.router import Router, SplitwiseRouter, get_router
from repro.cluster.slo import ClusterReport, SLOSpec, build_report
from repro.cluster.workload import (
    ClusterRequest,
    ServeRequest,
    as_cluster_requests,
)
from repro.engine.kernels import EngineCostParams
from repro.errors import ConfigError, ExperimentError
from repro.fairness.scheduler import get_fair_scheduler
from repro.fairness.session import Interaction
from repro.fairness.throttle import TokenThrottle
from repro.faults.recovery import RetryBudget, RetryPolicy
from repro.hardware import get_device
from repro.models import get_model
from repro.models.architecture import TransformerArchitecture
from repro.obs import kinds
from repro.obs.span import NO_SPAN, NULL_OBSERVER, Observer
from repro.power.model import PowerModel
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment
from repro.telemetry.sampler import FleetSampler


@dataclass(frozen=True)
class NodeSpec:
    """Declarative description of one fleet member."""

    device: str
    power_mode: Optional[str] = None
    max_batch: int = 8
    max_queue: int = 256
    #: Inference-runtime backend this node serves with; heterogeneous
    #: fleets may mix runtimes per node.
    runtime: str = "hf-transformers"
    #: KV lifecycle policy under memory pressure (``repro.kvtier``):
    #: ``sacrifice`` (default), ``swap``, ``swap-lru-aggressive``, ...
    kv_policy: str = "sacrifice"
    #: Optional trigger-threshold override (preempt at this fraction of
    #: the KV budget; None keeps the policy's own trigger).
    kv_trigger: Optional[float] = None
    #: Queue discipline for this node's admission queue
    #: (``repro.fairness``): ``fcfs`` (default), ``vtc``, ``wsc``.
    scheduler: str = "fcfs"
    #: Geographic region (``repro.sustain``): nodes meter their energy
    #: against the region's carbon/price trace when the fleet binds one.
    region: Optional[str] = None
    #: Per-node model override (None serves the fleet-wide model);
    #: heterogeneous cascades put an SLM on some nodes, the LLM on the
    #: rest.
    model: Optional[str] = None
    #: Per-node precision override (None serves the fleet-wide one).
    precision: Optional[str] = None
    #: Cascade tier label (``repro.sustain``): requests carrying a tier
    #: are only admitted by nodes with the matching label.
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1 or self.max_queue < 1:
            raise ConfigError("max_batch and max_queue must be >= 1")
        from repro.backends import get_backend

        get_backend(self.runtime)  # typed ConfigError on unknown names
        from repro.kvtier.policy import get_kv_policy

        get_kv_policy(self.kv_policy)  # typed ConfigError likewise
        get_fair_scheduler(self.scheduler)  # and again
        if self.model is not None:
            get_model(self.model)  # typed ModelError on unknown names
        if self.precision is not None:
            Precision.parse(self.precision)

    def resolved_kv_policy(self):
        """The policy instance this spec describes."""
        from repro.kvtier.policy import get_kv_policy

        policy = get_kv_policy(self.kv_policy)
        if self.kv_trigger is not None:
            policy = policy.with_(trigger=self.kv_trigger)
        return policy


class EdgeCluster:
    """A fleet of serving nodes behind a routing policy."""

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        router: Router,
        env: Environment,
        slo: Optional[SLOSpec] = None,
        retry: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
        throttle: Optional[TokenThrottle] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
    ):
        if not nodes:
            raise ConfigError("cluster needs at least one node")
        self.nodes = list(nodes)
        self.router = router
        self.env = env
        self.slo = slo or SLOSpec()
        #: Per-tenant token-rate budget applied at injection (None = off).
        self.throttle = throttle
        #: Tenant weights the report's fairness columns normalize by.
        self.tenant_weights = dict(tenant_weights) if tenant_weights else None
        self.scheduler_name = self.nodes[0].scheduler.name
        #: The requests of the most recent run, follow-ups included
        #: (conservation checks rebuild ledgers from these).
        self.last_requests: List[ClusterRequest] = []
        #: The current run's follow-up policy (see :meth:`_serve`).
        self._follow_up: Optional[Callable[[ClusterRequest], None]] = None
        self.retry = retry or RetryPolicy()
        self._retry_budget = RetryBudget(self.retry.retry_budget)
        #: start/stop-style controllers run alongside serving
        #: (autoscaler, fault injector, precision fallback, ...).
        self._services: List = []
        #: Observability sink shared with every node (request-lifecycle
        #: spans land on ``req{i}`` tracks, serving spans on ``node{i}``).
        self.obs = observer if observer is not None else NULL_OBSERVER
        if self.obs.enabled:
            self.obs.bind(env)
            self.obs.set_group("cluster")
        router.assign_roles(self.nodes)
        #: One ``power-sampler`` process reads every node each period,
        #: in node order.
        self._sampler = FleetSampler([n.sampler for n in self.nodes])

    @classmethod
    def of(
        cls,
        fleet,
        slo: Optional[SLOSpec] = None,
        params: Optional[EngineCostParams] = None,
        power_model: Optional[PowerModel] = None,
        sample_period_s: float = 1.0,
        retry: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
        throttle: Optional[TokenThrottle] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
    ) -> "EdgeCluster":
        """Instantiate the fleet a :class:`FleetSpec` describes.

        The spec carries everything declarative (devices, regions,
        per-node model/precision/runtime/kv-policy, routing policy and
        its knobs, carbon-trace bindings); the keyword arguments here
        are runtime wiring only (observers, retry policies, throttles).
        """
        from repro.cluster.fleet import FleetSpec

        if not isinstance(fleet, FleetSpec):
            raise ConfigError(
                f"EdgeCluster.of needs a FleetSpec, got "
                f"{type(fleet).__name__}")
        env = Environment()
        default_arch: TransformerArchitecture = get_model(fleet.model)
        default_prec = Precision.parse(fleet.precision)
        shared_power = power_model or PowerModel()
        nodes = [
            ClusterNode(
                env, i, get_device(s.device),
                default_arch if s.model is None else get_model(s.model),
                (default_prec if s.precision is None
                 else Precision.parse(s.precision)),
                power_mode=s.power_mode, max_batch=s.max_batch,
                max_queue=s.max_queue, params=params,
                power_model=shared_power, sample_period_s=sample_period_s,
                obs=observer, backend=s.runtime,
                kv_policy=s.resolved_kv_policy(),
                scheduler=get_fair_scheduler(s.scheduler, tenant_weights),
                region=s.region, carbon_trace=fleet.trace_for(s.region),
                tier=s.tier,
            )
            for i, s in enumerate(fleet.nodes)
        ]
        return cls(nodes, get_router(fleet.policy, **fleet.router_kwargs()),
                   env, slo=slo, retry=retry, observer=observer,
                   throttle=throttle, tenant_weights=tenant_weights)

    def attach_autoscaler(self, autoscaler) -> None:
        """Register a power-mode autoscaler (started when ``run`` begins)."""
        self.attach_service(autoscaler)

    def attach_injector(self, injector) -> None:
        """Register a fault injector (started when ``run`` begins)."""
        self.attach_service(injector)

    def attach_service(self, service) -> None:
        """Register any start/stop controller to run alongside serving."""
        if not (hasattr(service, "start") and hasattr(service, "stop")):
            raise ConfigError("services need start()/stop()")
        self._services.append(service)

    # -- serving -----------------------------------------------------------
    def _place(self, r: ClusterRequest):
        """One placement round: route, submit, count a retry on failure."""
        node = self.router.choose(r, self.nodes)
        if node is not None and node.submit(r):
            if self.obs.enabled:
                self.obs.instant(kinds.ROUTE, cat=kinds.CAT_CLUSTER,
                                 track=f"req{r.req_id}", parent=r.obs_span,
                                 node=node.node_id, policy=self.router.name)
            return node
        r.retries += 1
        if self.obs.enabled:
            self.obs.instant(kinds.RETRY, cat=kinds.CAT_CLUSTER,
                             track=f"req{r.req_id}", parent=r.obs_span,
                             attempt=r.retries)
            self.obs.metrics.counter("retries_total").inc()
        return None

    def _obs_request_start(self, r: ClusterRequest) -> None:
        if self.obs.enabled:
            r.obs_span = self.obs.begin(
                kinds.REQUEST, cat=kinds.CAT_REQUEST, track=f"req{r.req_id}",
                req=r.req_id, tenant=r.tenant,
                input_tokens=r.input_tokens, output_tokens=r.output_tokens)

    def _reject(self, r: ClusterRequest, reason: str) -> None:
        """Turn ``r`` away for ``reason``; it leaves the system."""
        r.rejected = True
        if self.obs.enabled:
            self.obs.instant(kinds.REJECT, cat=kinds.CAT_CLUSTER,
                             track=f"req{r.req_id}", parent=r.obs_span,
                             reason=reason)
            self.obs.end(r.obs_span, outcome="rejected", reason=reason)
            r.obs_span = NO_SPAN
            self.obs.metrics.counter("requests_rejected_total",
                                     reason=reason).inc()
        self._finish_request(r)

    def _transfer_then_decode(self, r: ClusterRequest):
        """Splitwise handover: wait out the link, enqueue on a decode node."""
        assert isinstance(self.router, SplitwiseRouter)
        node = self.router.choose_decode(r)
        if node is None:
            self._reject(r, "no_decode_node")
            return
        transfer_start = self.env.now
        yield self.env.timeout(self.router.transfer_seconds(r, node))
        if self.obs.enabled:
            self.obs.complete(
                kinds.KV_TRANSFER, transfer_start, self.env.now,
                cat=kinds.CAT_CLUSTER, track=f"req{r.req_id}",
                parent=r.obs_span, to_node=node.node_id,
                kv_bytes=node.kv_bytes(r.input_tokens))
        if not node.submit(r):
            self._reject(r, "decode_refused")

    def _finish_request(self, r: ClusterRequest) -> None:
        """One request left the system, completed or rejected."""
        self._finished += 1
        if self._follow_up is not None:
            self._follow_up(r)
        self._check_done()

    def _check_done(self) -> None:
        """Done: no source left open and every injected request out."""
        if (self._open_sources == 0
                and self._finished >= self._n_injected
                and not self._done.triggered):
            self._done.succeed(None)

    def _inject(self, r: ClusterRequest, process: str = "admit",
                charge: bool = True) -> None:
        """Put one request into the system now; ``charge`` bills the
        tenant's throttle budget (arrivals and session turns are billed,
        cascade twins are not)."""
        self._n_injected += 1
        self._obs_request_start(r)
        if charge and not self._throttle_admit(r):
            return
        self.env.process(self._admit_with_retry(r),
                         name=f"{process}-{r.req_id}")

    def _stage(self, delay_s: float, inject: Callable[[], None],
               name: str) -> None:
        """Call ``inject`` after ``delay_s``; the wait is an open source."""
        self._open_sources += 1

        def stage():
            yield self.env.timeout(max(0.0, delay_s))
            self._open_sources -= 1
            inject()

        self.env.process(stage(), name=name)

    def _throttle_admit(self, r: ClusterRequest) -> bool:
        """Charge the tenant's token budget; reject over-issued work."""
        if self.throttle is None:
            return True
        demand = r.input_tokens + r.output_tokens
        if self.throttle.admit(r.tenant, demand, self.env.now):
            return True
        r.throttled = True
        if self.obs.enabled:
            self.obs.instant(kinds.TENANT_THROTTLE, cat=kinds.CAT_CLUSTER,
                             track=f"req{r.req_id}", parent=r.obs_span,
                             tenant=r.tenant, demand_tokens=demand)
        self._reject(r, "throttle")
        return False

    def _on_complete(self, r: ClusterRequest) -> None:
        obs = self.obs
        if obs.enabled:
            obs.end(r.obs_span, outcome="ok", node=r.node_id)
            r.obs_span = NO_SPAN
            m = obs.metrics
            m.counter("requests_completed_total").inc()
            m.counter("tokens_total").inc(r.output_tokens)
            if r.first_token_s is not None:
                m.histogram("ttft_s").observe(r.first_token_s - r.arrival_s)
            if r.finish_s is not None:
                m.histogram("latency_s").observe(r.finish_s - r.arrival_s)
        self._finish_request(r)

    def _on_prefill_done(self, r: ClusterRequest) -> None:
        self.env.process(self._transfer_then_decode(r),
                         name=f"kv-transfer-{r.req_id}")

    def _start_serving(self, injector) -> None:
        """Wire node callbacks, start the injector, then the services."""
        for n in self.nodes:
            n.on_complete = self._on_complete
            n.on_prefill_done = self._on_prefill_done
            n.on_crash = self._requeue_orphans
        self._sampler.start()
        self.env.process(injector(), name="injector")
        for svc in self._services:
            svc.start()

    def _stop_serving(self) -> None:
        self._sampler.stop()
        for svc in self._services:
            svc.stop()
        if self.obs.enabled:
            self.obs.drain()  # nodes' deferred decode records up to now
            self._emit_carbon_counters()
            self.obs.finish_open()

    def _emit_carbon_counters(self) -> None:
        """Cumulative per-node gCO₂ counter series (trace-bound nodes).

        Emitted once serving stops, from the same power samples and
        stepwise-left intensity rule the report integrates with, so the
        trace's final counter value matches the report's ``carbon_g``
        node contribution.  Legacy fleets bind no trace and their obs
        record streams stay byte-identical.
        """
        from repro.sustain.trace import J_PER_KWH

        for n in self.nodes:
            trace = n.carbon_trace
            if trace is None or len(n.sampler.samples) < 2:
                continue
            total = 0.0
            samples = n.sampler.samples
            for a, b in zip(samples, samples[1:]):
                joules = 0.5 * (a.power_w + b.power_w) * (b.time_s - a.time_s)
                total += joules / J_PER_KWH * trace.intensity_at(a.time_s)
                self.obs.counter(kinds.CARBON_G, round(total, 6),
                                 track=n.obs_track, time_s=b.time_s)

    def _serve(self, arrivals: Sequence, make: Callable,
               served: List[ClusterRequest],
               follow_up: Optional[Callable[[ClusterRequest], None]] = None,
               interactions: Optional[List[Interaction]] = None
               ) -> ClusterReport:
        """The one serving core behind every ``run*`` entry point.

        The injector walks ``arrivals`` (in order, each with an
        ``arrival_s``) and injects ``make(arrival)`` at its time;
        ``follow_up(r)`` runs as each request leaves the system and may
        inject or stage more work.  The injector and every staged wait
        are open sources: the run ends once none is left and every
        injected request has finished.  ``served`` is the list the
        report and ``last_requests`` show (``make`` and ``follow_up``
        append to it when they build requests); ``interactions`` go to
        the report's session columns.
        """
        env = self.env
        self._n_injected = 0
        self._finished = 0
        self._open_sources = 1
        self._follow_up = follow_up
        self._done = env.event()
        self._retry_budget = RetryBudget(self.retry.retry_budget)

        def injector():
            for a in arrivals:
                delay = a.arrival_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                self._inject(make(a))
            self._open_sources -= 1
            self._check_done()

        self._start_serving(injector)
        env.run(until=self._done)
        self._stop_serving()
        self._follow_up = None
        self.last_requests = served
        return build_report(self.router.name, served, self.nodes, self.slo,
                            makespan_s=env.now,
                            scheduler=self.scheduler_name,
                            interactions=interactions,
                            tenant_weights=self.tenant_weights)

    @staticmethod
    def _by_arrival(reqs: Sequence[ClusterRequest]) -> List[ClusterRequest]:
        return sorted(reqs, key=lambda x: (x.arrival_s, x.req_id))

    def run(self, requests: Sequence[ServeRequest]) -> ClusterReport:
        """Serve the trace to completion; returns the cluster report.

        ``ClusterRequest``s are served in place.  Plain ``ServeRequest``s
        are served as fresh copies (:func:`as_cluster_requests`): their
        results are on ``self.last_requests``, and the caller's objects
        are left untouched, so one list can be served again.
        """
        if not requests:
            raise ExperimentError("empty request trace")
        reqs = as_cluster_requests(requests)
        return self._serve(self._by_arrival(reqs), lambda r: r, reqs)

    def run_interactions(
            self, interactions: Sequence[Interaction]) -> ClusterReport:
        """Serve multi-turn sessions to completion.

        Each interaction's turns are staged: turn ``k+1`` enters only
        after turn ``k`` finishes plus the user's think time, with the
        cumulative context already folded into its token counts by
        :func:`~repro.fairness.session.session_workload`.  A rejected
        (or throttled) turn abandons the whole session — the user walks
        away and every token already spent on it becomes waste in the
        report's ledger.

        Each turn is served as a fresh ``ClusterRequest`` built from its
        interaction, so the served turns and their results are on
        ``self.last_requests`` only.
        """
        if not interactions:
            raise ExperimentError("empty interaction trace")
        inters = list(interactions)
        by_id = {i.interaction_id: i for i in inters}
        if len(by_id) != len(inters):
            raise ExperimentError("interaction ids must be unique")
        reqs: List[ClusterRequest] = []
        req_ids = itertools.count()

        def next_turn(inter: Interaction) -> ClusterRequest:
            r = inter.next_request(next(req_ids), self.env.now)
            reqs.append(r)
            return r

        def follow_up(r: ClusterRequest) -> None:
            inter = by_id.get(r.interaction_id)
            if inter is None:
                return
            if r.rejected:
                inter.mark_abandoned()
                return
            nxt = inter.peek_turn()
            if nxt is not None:
                self._stage(nxt.think_time_s,
                            lambda: self._inject(next_turn(inter)),
                            name=f"stage-{inter.interaction_id}-"
                                 f"{inter.next_turn}")

        order = sorted(inters, key=lambda i: (i.arrival_s, i.interaction_id))
        return self._serve(order, next_turn, reqs, follow_up,
                           interactions=inters)

    def run_cascade(
        self,
        requests: Sequence[ServeRequest],
        escalate: Callable[[ClusterRequest], bool],
        slm_tier: str = "slm",
        llm_tier: str = "llm",
    ) -> ClusterReport:
        """Serve an SLM-first cascade: escalate gated requests to the LLM.

        Every arrival is tagged ``slm_tier`` and served by the fleet's
        SLM-tier nodes.  When a completed SLM request fails the quality
        gate (``escalate(r)`` is True — deterministic per request), a
        fresh ``llm_tier`` twin of the original demand is injected at
        the completion time: the LLM node pays the full re-prefill,
        exactly like the sacrifice path, and the SLM's generated tokens
        are booked as waste in the ledger (``r.escalated``).  Rejected
        or throttled requests do not escalate.
        """
        if not requests:
            raise ExperimentError("empty request trace")
        reqs = as_cluster_requests(requests)
        for r in reqs:
            r.tier = slm_tier
        order = self._by_arrival(reqs)
        req_ids = itertools.count(1 + max(r.req_id for r in reqs))

        def follow_up(r: ClusterRequest) -> None:
            if r.tier != slm_tier or r.rejected or r.finish_s is None:
                return
            if not escalate(r):
                return
            r.escalated = True
            twin = ClusterRequest(
                req_id=next(req_ids), arrival_s=self.env.now,
                input_tokens=r.input_tokens, output_tokens=r.output_tokens,
                prompt_ids=r.prompt_ids, tenant=r.tenant,
                tier=llm_tier, escalated_from=r.req_id)
            reqs.append(twin)
            if self.obs.enabled:
                self.obs.instant(
                    kinds.CASCADE_ESCALATE, cat=kinds.CAT_CLUSTER,
                    track=f"req{r.req_id}", parent=r.obs_span,
                    slm_tokens=r.generated, twin=twin.req_id)
                self.obs.metrics.counter("cascade_escalations_total").inc()
            self._inject(twin, "escalate", charge=False)

        return self._serve(order, lambda r: r, reqs, follow_up)

    def _requeue_orphans(self, orphans: List[ClusterRequest]) -> None:
        """Crash handler: re-place the dead node's outstanding work.

        Each orphan's KV state died with the node (``reset_for_replay``
        already ran for the active ones); it goes back through the
        normal retry path on the surviving fleet, up to the per-request
        requeue cap.
        """
        for r in orphans:
            if r.requeues >= self.retry.max_requeues:
                self._reject(r, "requeue_cap")
                continue
            r.requeues += 1
            r.node_id = None
            if self.obs.enabled:
                self.obs.instant(kinds.REQUEUE, cat=kinds.CAT_CLUSTER,
                                 track=f"req{r.req_id}", parent=r.obs_span,
                                 attempt=r.requeues)
                self.obs.metrics.counter("requeues_total").inc()
            self.env.process(self._admit_with_retry(r),
                             name=f"requeue-{r.req_id}-{r.requeues}")

    def _admit_with_retry(self, r: ClusterRequest):
        """Try placement with capped exponential backoff between rounds.

        Backoff retries draw on the fleet-wide
        :class:`~repro.faults.recovery.RetryBudget`; once it is spent,
        failed placements reject immediately (fail fast beats retry
        amplification when the whole fleet is browned out).
        """
        for attempt in range(self.retry.max_retries + 1):
            if self._place(r) is not None:
                return
            if attempt >= self.retry.max_retries:
                break
            if not self._retry_budget.take():
                break
            yield self.env.timeout(self.retry.delay_s(attempt))
        self._reject(r, "admission")
        # Generator must stay a generator even on the no-backoff path.
        if False:  # pragma: no cover
            yield
