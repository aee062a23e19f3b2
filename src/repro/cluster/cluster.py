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

(The legacy ``EdgeCluster.build(specs, ...)`` kwargs path survives as a
DeprecationWarning shim that constructs the same ``FleetSpec``.)
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cluster.node import ClusterNode
from repro.cluster.router import Router, SplitwiseRouter, get_router
from repro.cluster.slo import ClusterReport, SLOSpec, build_report
from repro.cluster.workload import ClusterRequest, as_cluster_requests
from repro.engine.kernels import EngineCostParams
from repro.engine.scheduler import ServeRequest
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
        max_retries: int = 2,
        retry_backoff_s: float = 0.25,
        retry: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
        throttle: Optional[TokenThrottle] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
    ):
        if not nodes:
            raise ConfigError("cluster needs at least one node")
        if max_retries < 0 or retry_backoff_s <= 0:
            raise ConfigError("retries must be >= 0 with a positive backoff")
        self.nodes = list(nodes)
        self.router = router
        self.env = env
        self.slo = slo or SLOSpec()
        #: Per-tenant token-rate budget applied at injection (None = off).
        self.throttle = throttle
        #: Tenant weights the report's fairness columns normalize by.
        self.tenant_weights = dict(tenant_weights) if tenant_weights else None
        self.scheduler_name = self.nodes[0].scheduler.name
        #: Multi-turn bookkeeping; ``run`` leaves both untouched.
        self._session_hook = None
        self._open_sessions = 0
        #: The requests of the most recent ``run``/``run_interactions``
        #: (conservation checks rebuild ledgers from these).
        self.last_requests: List[ClusterRequest] = []
        #: Full policy; the legacy (max_retries, retry_backoff_s) pair
        #: seeds one with an uncapped-at-that-base exponential schedule.
        self.retry = retry or RetryPolicy(max_retries=max_retries,
                                          base_backoff_s=retry_backoff_s)
        self.max_retries = self.retry.max_retries
        self.retry_backoff_s = self.retry.base_backoff_s
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

    @classmethod
    def build(
        cls,
        specs: Sequence[NodeSpec],
        model: str = "llama",
        precision: str = "fp16",
        policy: str = "round-robin",
        slo: Optional[SLOSpec] = None,
        params: Optional[EngineCostParams] = None,
        power_model: Optional[PowerModel] = None,
        sample_period_s: float = 1.0,
        retry: Optional[RetryPolicy] = None,
        observer: Optional[Observer] = None,
        throttle: Optional[TokenThrottle] = None,
        tenant_weights: Optional[Dict[str, float]] = None,
        **router_kwargs,
    ) -> "EdgeCluster":
        """Deprecated kwargs path; use a :class:`FleetSpec` with ``of``.

        Constructs the equivalent ``FleetSpec`` and delegates, so the
        two surfaces are byte-identical by construction (pinned with
        exact equality in ``tests/sustain/test_fleet_spec.py``).
        """
        warnings.warn(
            "EdgeCluster.build(specs, ...) is deprecated; describe the "
            "fleet with FleetSpec.of(...) and instantiate it with "
            "EdgeCluster.of(fleet, ...)",
            DeprecationWarning, stacklevel=2)
        from repro.cluster.fleet import FleetSpec

        if not specs:
            raise ConfigError("cluster needs at least one node spec")
        fleet = FleetSpec.of(list(specs), model=model, precision=precision,
                             policy=policy, **router_kwargs)
        return cls.of(fleet, slo=slo, params=params, power_model=power_model,
                      sample_period_s=sample_period_s, retry=retry,
                      observer=observer, throttle=throttle,
                      tenant_weights=tenant_weights)

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

    def _obs_reject(self, r: ClusterRequest, reason: str) -> None:
        if self.obs.enabled:
            self.obs.instant(kinds.REJECT, cat=kinds.CAT_CLUSTER,
                             track=f"req{r.req_id}", parent=r.obs_span,
                             reason=reason)
            self.obs.end(r.obs_span, outcome="rejected", reason=reason)
            r.obs_span = NO_SPAN
            self.obs.metrics.counter("requests_rejected_total",
                                     reason=reason).inc()

    def _transfer_then_decode(self, r: ClusterRequest):
        """Splitwise handover: wait out the link, enqueue on a decode node."""
        assert isinstance(self.router, SplitwiseRouter)
        node = self.router.choose_decode(r)
        if node is None:
            self._obs_reject(r, "no_decode_node")
            r.rejected = True
            self._finish_request(r)
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
            self._obs_reject(r, "decode_refused")
            r.rejected = True
            self._finish_request(r)

    def _finish_request(self, r: ClusterRequest) -> None:
        """One request left the system, completed or rejected."""
        self._finished += 1
        if self._session_hook is not None:
            self._session_hook(r)
        self._check_done()

    def _check_done(self) -> None:
        if (self._finished >= self._n_injected
                and self._open_sessions == 0
                and not self._done.triggered):
            self._done.succeed(None)

    def _throttle_admit(self, r: ClusterRequest) -> bool:
        """Charge the tenant's token budget; turn over-issued work away."""
        if self.throttle is None:
            return True
        demand = r.input_tokens + r.output_tokens
        if self.throttle.admit(r.tenant, demand, self.env.now):
            return True
        r.throttled = True
        r.rejected = True
        if self.obs.enabled:
            self.obs.instant(kinds.TENANT_THROTTLE, cat=kinds.CAT_CLUSTER,
                             track=f"req{r.req_id}", parent=r.obs_span,
                             tenant=r.tenant, demand_tokens=demand)
        self._obs_reject(r, "throttle")
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
            n.sampler.start()
        self.env.process(injector(), name="injector")
        for svc in self._services:
            svc.start()

    def _stop_serving(self) -> None:
        for n in self.nodes:
            n.sampler.stop()
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

    def run(self, requests: Sequence[ServeRequest]) -> ClusterReport:
        """Serve the trace to completion; returns the cluster report."""
        if not requests:
            raise ExperimentError("empty request trace")
        reqs = as_cluster_requests(requests)
        env = self.env
        self._n_injected = len(reqs)
        self._finished = 0
        self._open_sessions = 0
        self._session_hook = None
        self._done = env.event()
        self._retry_budget = RetryBudget(self.retry.retry_budget)

        def injector():
            for r in sorted(reqs, key=lambda x: (x.arrival_s, x.req_id)):
                delay = r.arrival_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                self._obs_request_start(r)
                if not self._throttle_admit(r):
                    self._finish_request(r)
                    continue
                env.process(self._admit_with_retry(r),
                            name=f"admit-{r.req_id}")

        self._start_serving(injector)
        env.run(until=self._done)
        self._stop_serving()
        self.last_requests = reqs
        return build_report(self.router.name, reqs, self.nodes, self.slo,
                            makespan_s=env.now,
                            scheduler=self.scheduler_name,
                            tenant_weights=self.tenant_weights)

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
        """
        if not interactions:
            raise ExperimentError("empty interaction trace")
        inters = list(interactions)
        by_id = {i.interaction_id: i for i in inters}
        if len(by_id) != len(inters):
            raise ExperimentError("interaction ids must be unique")
        env = self.env
        reqs: List[ClusterRequest] = []
        self._n_injected = 0
        self._finished = 0
        self._open_sessions = len(inters)
        self._done = env.event()
        self._retry_budget = RetryBudget(self.retry.retry_budget)
        req_ids = itertools.count()

        def inject_turn(inter: Interaction) -> None:
            r = inter.next_request(next(req_ids), env.now)
            reqs.append(r)
            self._n_injected += 1
            self._obs_request_start(r)
            if not self._throttle_admit(r):
                self._finish_request(r)
                return
            env.process(self._admit_with_retry(r), name=f"admit-{r.req_id}")

        def stage_turn(inter: Interaction, think_s: float):
            yield env.timeout(max(0.0, think_s))
            inject_turn(inter)

        def session_hook(r: ClusterRequest) -> None:
            inter = by_id.get(r.interaction_id)
            if inter is None:
                return
            if r.rejected:
                inter.mark_abandoned()
                self._open_sessions -= 1
                return
            nxt = inter.peek_turn()
            if nxt is None:
                self._open_sessions -= 1
                return
            env.process(stage_turn(inter, nxt.think_time_s),
                        name=f"stage-{inter.interaction_id}-{inter.next_turn}")

        self._session_hook = session_hook

        def injector():
            order = sorted(inters, key=lambda i: (i.arrival_s,
                                                  i.interaction_id))
            for inter in order:
                delay = inter.arrival_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                inject_turn(inter)

        self._start_serving(injector)
        env.run(until=self._done)
        self._stop_serving()
        self._session_hook = None
        self.last_requests = reqs
        return build_report(self.router.name, reqs, self.nodes, self.slo,
                            makespan_s=env.now,
                            scheduler=self.scheduler_name,
                            interactions=inters,
                            tenant_weights=self.tenant_weights)

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
        env = self.env
        all_reqs: List[ClusterRequest] = list(reqs)
        self._n_injected = len(reqs)
        self._finished = 0
        self._open_sessions = 0
        self._done = env.event()
        self._retry_budget = RetryBudget(self.retry.retry_budget)
        req_ids = itertools.count(1 + max(r.req_id for r in reqs))

        def cascade_hook(r: ClusterRequest) -> None:
            if r.tier != slm_tier or r.rejected or r.finish_s is None:
                return
            if not escalate(r):
                return
            r.escalated = True
            twin = ClusterRequest(
                req_id=next(req_ids), arrival_s=env.now,
                input_tokens=r.input_tokens, output_tokens=r.output_tokens,
                prompt_ids=r.prompt_ids, tenant=r.tenant,
                tier=llm_tier, escalated_from=r.req_id)
            all_reqs.append(twin)
            self._n_injected += 1
            if self.obs.enabled:
                self.obs.instant(
                    kinds.CASCADE_ESCALATE, cat=kinds.CAT_CLUSTER,
                    track=f"req{r.req_id}", parent=r.obs_span,
                    slm_tokens=r.generated, twin=twin.req_id)
                self.obs.metrics.counter("cascade_escalations_total").inc()
            self._obs_request_start(twin)
            env.process(self._admit_with_retry(twin),
                        name=f"escalate-{twin.req_id}")

        self._session_hook = cascade_hook

        def injector():
            for r in sorted(reqs, key=lambda x: (x.arrival_s, x.req_id)):
                delay = r.arrival_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                self._obs_request_start(r)
                if not self._throttle_admit(r):
                    self._finish_request(r)
                    continue
                env.process(self._admit_with_retry(r),
                            name=f"admit-{r.req_id}")

        self._start_serving(injector)
        env.run(until=self._done)
        self._stop_serving()
        self._session_hook = None
        self.last_requests = all_reqs
        return build_report(self.router.name, all_reqs, self.nodes, self.slo,
                            makespan_s=env.now,
                            scheduler=self.scheduler_name,
                            tenant_weights=self.tenant_weights)

    def _requeue_orphans(self, orphans: List[ClusterRequest]) -> None:
        """Crash handler: re-place the dead node's outstanding work.

        Each orphan's KV state died with the node (``reset_for_replay``
        already ran for the active ones); it goes back through the
        normal retry path on the surviving fleet, up to the per-request
        requeue cap.
        """
        for r in orphans:
            if r.requeues >= self.retry.max_requeues:
                self._obs_reject(r, "requeue_cap")
                r.rejected = True
                self._finish_request(r)
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
        self._obs_reject(r, "admission")
        r.rejected = True
        self._finish_request(r)
        # Generator must stay a generator even on the no-backoff path.
        if False:  # pragma: no cover
            yield
