"""Cluster decode fast-forward: a stretch of decode steps served with one
DES resumption must be indistinguishable from one step per resumption.

The differential property runs each sampled fleet twice — once with the
node's stretch bound forced to one step (the step-by-step loop), once at
the default — and demands exact equality on every per-request outcome,
every node meter, the power-sampler trace, the throttle log and, when
observed, the Chrome trace bytes.  Observed nodes plan multi-step
stretches too and emit their records lazily through the observer, so
the trace comparison covers deferred emission.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterRequest, EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.node import ClusterNode
from repro.cluster.workload import (TenantProfile, multi_tenant_workload,
                                    shared_prefix_workload)
from repro.errors import ConfigError
from repro.fairness import check_books
from repro.fairness.session import session_workload
from repro.faults import (FaultClass, FaultEpisode, FaultInjector,
                          FaultScheduleSpec, generate_schedule,
                          schedule_from_episodes)
from repro.hardware import get_device
from repro.hardware.thermal import ThermalModel
from repro.models import get_model
from repro.obs import Observer, chrome_trace_json
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment

ORIN64 = "jetson-orin-agx-64gb"
NANO8 = "jetson-orin-nano-8gb"


def hot_thermal():
    """Throttles within seconds of MAXN decode, recovers when idle."""
    return ThermalModel(tau_s=4.0, r_thermal_c_per_w=2.0,
                        throttle_temp_c=55.0, resume_temp_c=48.0)


@st.composite
def scenarios(draw):
    n_nodes = draw(st.integers(1, 3))
    runtime = draw(st.sampled_from(["hf-transformers", "gguf", "paged"]))
    nodes = []
    for _ in range(n_nodes):
        device = draw(st.sampled_from([ORIN64, NANO8]))
        modes = [None] if device == NANO8 else [None, "MAXN", "A", "H"]
        nodes.append(NodeSpec(
            device,
            runtime=runtime,
            scheduler=draw(st.sampled_from(["fcfs", "vtc", "wsc"])),
            power_mode=draw(st.sampled_from(modes)),
            max_batch=draw(st.integers(1, 6)),
            kv_policy=draw(st.sampled_from(
                ["sacrifice", "swap-lru", "swap-fifo-aggressive"])),
            kv_trigger=draw(st.sampled_from([None, 0.9])),
        ))
    faults = draw(st.sampled_from(
        [None, "crash", "brownout", "oom", "straggler", "thermal", "all"]))
    routers = ["jsq", "least-kv", "energy-aware", "prefix-affinity"]
    if n_nodes > 1:
        routers.append("splitwise")  # prefill-only and decode-only nodes
    return {
        "nodes": nodes,
        "router": draw(st.sampled_from(routers)),
        "workload": draw(st.sampled_from(["poisson", "prefix", "sessions"])),
        "rate": draw(st.sampled_from([0.5, 2.0, 6.0])),
        "n": draw(st.integers(4, 14)),
        "seed": draw(st.integers(0, 50)),
        "hot": draw(st.booleans()),
        "faults": faults,
        "observed": draw(st.booleans()),
    }


def _fault_spec(kind, seed, n_nodes):
    rates = {f: 0.0 for f in ("crash", "brownout", "oom", "straggler",
                              "thermal")}
    for f in rates:
        if kind in (f, "all"):
            rates[f] = 6.0
    return FaultScheduleSpec(
        seed=seed, horizon_s=30.0, n_nodes=n_nodes, min_duration_s=0.5,
        crash_rate_per_min=rates["crash"], crash_downtime_s=3.0,
        brownout_rate_per_min=rates["brownout"], brownout_duration_s=4.0,
        oom_rate_per_min=rates["oom"], oom_duration_s=3.0, oom_shrink=0.2,
        straggler_rate_per_min=rates["straggler"],
        straggler_duration_s=4.0,
        thermal_rate_per_min=rates["thermal"], thermal_duration_s=6.0)


#: Short multi-turn sessions (tier-1 runs every example).
SESSION_TENANTS = (
    TenantProfile("chat", weight=3.0, mean_input_tokens=48,
                  mean_output_tokens=32),
    TenantProfile("summarize", weight=2.0, mean_input_tokens=160,
                  mean_output_tokens=24),
    TenantProfile("analytics", weight=1.0, mean_input_tokens=96,
                  mean_output_tokens=48),
)


def _workload(sc):
    if sc["workload"] == "sessions":
        return session_workload(sc["rate"] / 2, max(2, sc["n"] // 2),
                                tenants=SESSION_TENANTS, mean_turns=2.0,
                                max_turns=3, mean_think_time_s=1.0,
                                seed=sc["seed"])
    if sc["workload"] == "prefix":
        return shared_prefix_workload(sc["rate"], sc["n"], prefix_tokens=96,
                                      unique_tokens=32, output_tokens=48,
                                      seed=sc["seed"])
    reqs = multi_tenant_workload(sc["rate"], sc["n"], seed=sc["seed"])
    for r in reqs:  # keep examples small: tier-1 runs them all
        r.output_tokens = min(r.output_tokens, 64)
    return reqs


#: DES steps one served scenario may take (the largest example here
#: takes under 9,000); a run past it fails instead of hanging.
MAX_DES_STEPS = 100_000


class Stalled(AssertionError):
    """A scenario that does not terminate (the replay livelocks and
    stuck queues of the termination work still reproduce on some
    low-budget fleets under shrink faults)."""


def _check_ledgers(nodes):
    """Each node's KV ledger equals the sums it stands for, and each
    radix tree's block counter equals a walk of the tree."""
    for node in nodes:
        assert node._kv_private == sum(node._kv_live(r) for r in node.active)
        assert node._kv_queued == sum(node._kv_need(r) for r in node.queue)
        radix = node.radix
        if radix is not None:
            assert radix.resident_blocks == sum(
                n.full_blocks(radix.block_tokens) for n in radix._iter_nodes())


@contextmanager
def _ledger_checked(nodes):
    """Check ``nodes``' KV ledgers after every DES step, and fail a run
    that takes more than ``MAX_DES_STEPS``."""
    step = Environment.step
    taken = [0]

    def checked_step(env):
        step(env)
        _check_ledgers(nodes)
        taken[0] += 1
        if taken[0] > MAX_DES_STEPS:
            raise Stalled(f"no verdict after {MAX_DES_STEPS} DES steps")

    with mock.patch.object(Environment, "step", checked_step):
        yield


def _serve(sc, one_step, reqs=None, plans=None):
    """Serve ``sc``, checking the KV ledgers after every DES step;
    ``plans`` collects (observed, steps, crossed) per stretch, where
    ``crossed`` is whether a step before the last grows live KV by a
    block (a boundary the ledger commits lazily)."""
    fleet = FleetSpec.of(sc["nodes"], model="phi2", precision="int8",
                         policy=sc["router"])
    obs = Observer() if sc["observed"] else None
    cluster = EdgeCluster.of(fleet, observer=obs,
                             sample_period_s=sc.get("sample_period_s", 1.0))
    if "budget_frac" in sc:
        for node in cluster.nodes:
            node._kv_budget_base = int(node._kv_budget_base
                                       * sc["budget_frac"])
            node._explicit_kv_budget = True
    if sc["hot"]:
        for node in cluster.nodes:
            node.thermal = hot_thermal()
    if sc["faults"] is not None:
        schedule = generate_schedule(
            _fault_spec(sc["faults"], sc["seed"], len(cluster.nodes)))
        cluster.attach_injector(
            FaultInjector(cluster.env, cluster.nodes, schedule))
    if reqs is None:
        reqs = _workload(sc)
    steps = 1 if one_step else ClusterNode._STRETCH_STEPS
    plan = ClusterNode._plan_stretch

    def spy(node, *args):
        st = plan(node, *args)
        if plans is not None:
            crossed = st.growth is not None and st.growth[st.n - 1] > 0
            plans.append((node.obs.enabled, st.n, crossed))
        return st

    with mock.patch.object(ClusterNode, "_STRETCH_STEPS", steps), \
            mock.patch.object(ClusterNode, "_plan_stretch", spy), \
            _ledger_checked(cluster.nodes):
        if sc.get("workload") == "sessions":
            cluster.run_interactions(reqs)
        else:
            cluster.run(reqs)
    return cluster


def _observables(cluster):
    reqs = [(r.req_id, r.node_id, r.first_token_s, r.finish_s, r.generated,
             r.energy_j, r.rejected) for r in cluster.last_requests]
    nodes = [(n.busy_energy_j, n.served_tokens, n.busy_seconds,
              dict(n.tenant_served_tokens), n.sampler.samples,
              n.throttle_log, n.thermal.temp_c) for n in cluster.nodes]
    trace = chrome_trace_json(cluster.obs) if cluster.obs.enabled else None
    return reqs, nodes, trace


class TestDifferential:
    def test_stretches_match_one_step_serving(self):
        plans = []

        @settings(max_examples=60, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(scenarios())
        def check(sc):
            stepped = _observables(_serve(sc, one_step=True))
            fast = _observables(_serve(sc, one_step=False, plans=plans))
            assert fast[0] == stepped[0]
            assert fast[1] == stepped[1]
            assert fast[2] == stepped[2]

        check()
        # The observed arm is vacuous unless observed nodes fast-forward.
        assert any(observed and n > 1 for observed, n, _ in plans)


@st.composite
def paged_scenarios(draw):
    """Paged fleets short of KV: pool exhaustion, swap, sacrifice and
    radix sharing, under shrink faults, crashes and the split."""
    n_nodes = draw(st.integers(1, 3))
    nodes = [NodeSpec(NANO8, runtime="paged",
                      max_batch=draw(st.integers(2, 8)),
                      kv_policy=draw(st.sampled_from(
                          ["swap-lru", "sacrifice", "swap-lifo"])),
                      kv_trigger=draw(st.sampled_from([None, 0.9])))
             for _ in range(n_nodes)]
    routers = ["prefix-affinity", "least-kv"]
    if n_nodes > 1:
        routers.append("splitwise")
    return {
        "nodes": nodes,
        "router": draw(st.sampled_from(routers)),
        "workload": draw(st.sampled_from(["prefix", "sessions"])),
        "rate": draw(st.sampled_from([0.5, 2.0, 6.0])),
        "n": draw(st.integers(4, 14)),
        "seed": draw(st.integers(0, 50)),
        "hot": False,
        "faults": draw(st.sampled_from([None, "oom", "crash", "all"])),
        "observed": False,
        # Fraction of each node's natural KV budget kept.
        "budget_frac": draw(st.sampled_from([0.03, 0.1, 1.0])),
    }


class TestKvLedger:
    """The KV ledger equals its recomputed sums after every DES step
    (``_serve`` checks it) on fleets where it changes most often."""

    def test_ledgers_track_paged_fleets(self):
        plans, evictions = [], []

        @settings(max_examples=40, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(paged_scenarios())
        def check(sc):
            stepped = _observables(_serve(sc, one_step=True))
            fast = _serve(sc, one_step=False, plans=plans)
            assert _observables(fast) == stepped
            evictions.append(sum(
                n.kv_sacrifices + (n.swap.stats.swap_outs if n.swap else 0)
                for n in fast.nodes))

        check()
        # Vacuous unless a stretch commits a block boundary lazily and
        # some example preempts.
        assert any(crossed for _, _, crossed in plans)
        assert any(evictions)


class TestEvictionDuringAdmission:
    """A shrink fault lands during the first prefill of a two-request
    admission round and evicts the second request before its own turn:
    the round still restores (swap) or pins and prefills (sacrifice)
    that request while it waits in the queue, and the ledger follows."""

    def _run(self, policy, one_step):
        env = Environment()
        node = ClusterNode(env, 0, get_device(NANO8), get_model("phi2"),
                           Precision.INT8, backend="paged",
                           kv_policy=policy, max_batch=4)
        first = ClusterRequest(req_id=0, arrival_s=0.0, input_tokens=64,
                               output_tokens=32,
                               prompt_ids=tuple(range(64)))
        second = ClusterRequest(req_id=1, arrival_s=1e-4, input_tokens=64,
                                output_tokens=32,
                                prompt_ids=tuple(range(100, 164)))
        node.submit(first)
        node.submit(second)
        seen = {}

        def fault():
            yield env.timeout(1e-3)  # inside the first prefill
            seen["admitted"] = list(node.active)
            node.set_kv_shrink(
                (node.kv_in_use - 1) / node._kv_budget_base)
            seen["queued"] = list(node.queue)
            yield env.timeout(1e-3)
            node.set_kv_shrink(1.0)

        env.process(fault())
        steps = 1 if one_step else ClusterNode._STRETCH_STEPS
        with mock.patch.object(ClusterNode, "_STRETCH_STEPS", steps), \
                _ledger_checked([node]):
            env.run(until=60.0)
        assert seen["admitted"] == [first, second]
        assert second in seen["queued"]
        assert first.prefill_end_s > 1e-3
        return [(r.first_token_s, r.finish_s, r.energy_j, r.swaps)
                for r in (first, second)]

    @pytest.mark.parametrize("policy", ["sacrifice", "swap-lifo"])
    def test_ledger_follows_the_evicted_member(self, policy):
        fast = self._run(policy, one_step=False)
        assert fast == self._run(policy, one_step=True)
        assert all(finish is not None for _, finish, _, _ in fast)


@contextmanager
def _no_zero_time_spin(limit=1000):
    """Fail a run whose node calls ``_admit`` more than ``limit`` times
    at one instant: a serve loop that re-checks admission without ever
    yielding, which no DES step cap sees."""
    admit = ClusterNode._admit
    calls = {}

    def counted(node):
        key = (node.node_id, node.env.now)
        calls[key] = calls.get(key, 0) + 1
        if calls[key] > limit:
            raise Stalled(f"node {node.node_id} spins at t={node.env.now}")
        return admit(node)

    with mock.patch.object(ClusterNode, "_admit", counted):
        yield


def _paged_fleet(router, workload, seed, nodes, rate=0.5, n=8):
    return {"nodes": nodes, "router": router, "workload": workload,
            "rate": rate, "n": n, "seed": seed, "hot": False,
            "faults": "oom", "observed": False, "budget_frac": 0.1}


#: Fleets whose runs used to hang: ``trigger*`` spun at one instant (an
#: empty batch re-checked admission against the budget while ``_admit``
#: refused against the trigger's limit); ``splitwise*`` lost the prefill
#: node's serve loop to an exception raised when a shrink evicted a
#: request mid-prefill.
HANG_FLEETS = {
    "trigger": _paged_fleet("least-kv", "prefix", 14, [
        NodeSpec(NANO8, runtime="paged", max_batch=4, kv_policy="swap-lifo"),
        NodeSpec(NANO8, runtime="paged", max_batch=4, kv_policy="swap-lifo",
                 kv_trigger=0.9)]),
    "trigger-sessions": _paged_fleet("prefix-affinity", "sessions", 23, [
        NodeSpec(NANO8, runtime="paged", max_batch=2, kv_policy="swap-lru",
                 kv_trigger=0.9)]),
    "splitwise-sacrifice": _paged_fleet("splitwise", "prefix", 32, [
        NodeSpec(NANO8, runtime="paged", max_batch=4, kv_policy="sacrifice")
        for _ in range(3)], rate=2.0),
    "splitwise-swap": _paged_fleet("splitwise", "prefix", 32, [
        NodeSpec(NANO8, runtime="paged", max_batch=4, kv_policy="swap-lru")
        for _ in range(3)], rate=2.0),
}


class TestHangReproducers:
    """Fleets that used to hang under shrink faults now finish.  With an
    empty batch the serve loop re-checks admission only when ``_admit``
    would admit the queue's candidate, and otherwise sleeps until
    something wakes it; a prefill evicted mid-prompt stays queued."""

    @pytest.mark.parametrize("name", sorted(HANG_FLEETS))
    def test_fault_fleet_finishes(self, name):
        sc = HANG_FLEETS[name]
        with _no_zero_time_spin():
            stepped = _serve(sc, one_step=True)
            fast = _serve(sc, one_step=False)
        assert _observables(fast) == _observables(stepped)
        if sc["workload"] != "sessions":  # no abandoned turns to book
            check_books(fast.last_requests,
                        sum(n.served_tokens for n in fast.nodes))

    @pytest.mark.parametrize("policy", ["sacrifice", "swap-lifo"])
    def test_pinned_prefix_refusal_sleeps(self, policy):
        # As in TestEvictionDuringAdmission, but the shrink holds for
        # 30 s: under sacrifice the evicted second request keeps its
        # prompt pinned while it waits, so once the batch empties its
        # own pin keeps it from fitting until the budget returns.
        env = Environment()
        node = ClusterNode(env, 0, get_device(NANO8), get_model("phi2"),
                           Precision.INT8, backend="paged",
                           kv_policy=policy, max_batch=4)
        reqs = [ClusterRequest(req_id=i, arrival_s=i * 1e-4,
                               input_tokens=64, output_tokens=32,
                               prompt_ids=tuple(range(100 * i, 100 * i + 64)))
                for i in range(2)]
        for r in reqs:
            node.submit(r)

        def fault():
            yield env.timeout(1e-3)  # inside the first prefill
            node.set_kv_shrink((node.kv_in_use - 1) / node._kv_budget_base)
            yield env.timeout(30.0)
            node.set_kv_shrink(1.0)

        env.process(fault())
        with _no_zero_time_spin(), _ledger_checked([node]):
            env.run(until=120.0)
        assert all(r.finish_s is not None for r in reqs)
        assert reqs[1].finish_s > 30.0
        check_books(reqs, node.served_tokens)


class TestTwoObservedNodes:
    """Two observed nodes whose step boundaries interleave with each
    other and with fast power-sampler ticks: deferred records from both
    nodes and the sampler's counters merge into one ordered stream."""

    def _serve(self, one_step, plans=None):
        nodes = [NodeSpec(ORIN64, scheduler="vtc", max_batch=4,
                          power_mode="MAXN"),
                 NodeSpec(ORIN64, scheduler="vtc", max_batch=3,
                          power_mode="A")]
        sc = {"nodes": nodes, "router": "jsq", "hot": False,
              "faults": None, "observed": True, "sample_period_s": 0.05}
        reqs = multi_tenant_workload(3.0, 12, seed=4)
        for r in reqs:
            r.output_tokens = min(r.output_tokens, 80)
        cluster = _serve(sc, one_step, reqs, plans)
        return cluster, _observables(cluster)

    def test_matches_one_step_serving(self):
        plans = []
        cluster, fast = self._serve(one_step=False, plans=plans)
        _, stepped = self._serve(one_step=True)
        assert fast == stepped
        assert sum(n > 1 for _, n, _ in plans) >= 4
        # Deferred decode spans of the two nodes alternate in id order,
        # with power samples between them.
        records = sorted(
            [(s.span_id, s.track) for s in cluster.obs.spans
             if s.name == "decode"])
        switches = sum(a[1] != b[1] for a, b in zip(records, records[1:]))
        assert switches >= 10
        power = [c for c in cluster.obs.counters if c.track == "node0"]
        assert len(power) > 100


class TestPressureFleet:
    """A paged fleet held at KV capacity: prefix hits, swaps, sacrifices
    and pool-exhaustion preemption in and around stretches, with a
    KV-blocked FCFS head that admission re-checks at every boundary."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_one_step_serving(self, seed):
        nodes = [NodeSpec(NANO8, runtime="paged", max_batch=16,
                          kv_policy=policy)
                 for policy in ("swap-lru", "sacrifice")]
        sc = {"nodes": nodes, "router": "prefix-affinity", "hot": False,
              "faults": None, "observed": False}

        def serve(one_step):
            reqs = shared_prefix_workload(0.035, 40, prefix_tokens=512,
                                          unique_tokens=256,
                                          output_tokens=384, seed=seed)
            return _observables(_serve(sc, one_step, reqs))

        assert serve(one_step=False) == serve(one_step=True)


#: Fleets the power-reading property probes: throttle toggles end
#: stretches, crashes and fault edges cut them, and paged pools
#: overflow mid-stretch.
READ_SCENARIOS = {
    "thermal": {"nodes": [NodeSpec(ORIN64, power_mode="MAXN", max_batch=4),
                          NodeSpec(ORIN64, power_mode="A", max_batch=3,
                                   scheduler="vtc")],
                "router": "jsq", "workload": "poisson", "rate": 2.0,
                "n": 14, "seed": 3, "hot": True, "faults": "thermal",
                "observed": False},
    "crash": {"nodes": [NodeSpec(ORIN64, max_batch=4),
                        NodeSpec(NANO8, max_batch=6, runtime="gguf")],
              "router": "least-kv", "workload": "poisson", "rate": 6.0,
              "n": 14, "seed": 5, "hot": False, "faults": "crash",
              "observed": True},
    "faults": {"nodes": [NodeSpec(ORIN64, max_batch=5, scheduler="wsc"),
                         NodeSpec(ORIN64, max_batch=3, power_mode="H")],
               "router": "energy-aware", "workload": "sessions", "rate": 2.0,
               "n": 12, "seed": 8, "hot": True, "faults": "all",
               "observed": True},
    "overflow": {"nodes": [NodeSpec(NANO8, runtime="paged", max_batch=16,
                                    kv_policy=policy)
                           for policy in ("swap-lru", "sacrifice")],
                 "router": "prefix-affinity", "workload": "prefix",
                 "rate": 2.0, "n": 14, "seed": 2, "hot": False,
                 "faults": None, "observed": False, "budget_frac": 0.1},
}


class TestPowerReading:
    """The power sampler reads a node without committing it: at random
    clock points inside planned stretches, on step boundaries and
    between them, the read equals ``_sync()`` followed by the engine
    state."""

    def test_read_equals_sync_then_state(self):
        seen = dict(planned=0, on_boundary=0, crashed=0, throttled=0,
                    overflowed=0)
        # A failing process dies without a waiter to raise in, so the
        # probes record mismatches and the example asserts on them.
        mismatches = []

        def probe(node, when, boundary):
            yield node.env.timeout_at(when)
            st_ = node._stretch
            started = st_.started if st_ is not None else None
            read = node._power_reading()
            node._sync()
            if read != (node.state.phase, node.state.util):
                mismatches.append((node.node_id, when, read))
            if st_ is not None and st_.started > started:
                seen["planned"] += 1
                seen["on_boundary"] += boundary
            seen["crashed"] += not node.healthy

        @settings(max_examples=24, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(st.sampled_from(sorted(READ_SCENARIOS)),
               st.integers(0, 2**32 - 1))
        def check(name, seed):
            sc = READ_SCENARIOS[name]
            rng = random.Random(seed)
            plan = ClusterNode._plan_stretch

            def prober(node, *args):
                planned = plan(node, *args)
                ts = planned.ts
                for _ in range(2):
                    k = rng.randrange(1, planned.n + 1)
                    boundary = rng.random() < 0.5
                    when = ts[k] if boundary else rng.uniform(ts[k - 1],
                                                              ts[k])
                    node.env.process(probe(node, when, boundary))
                return planned

            with mock.patch.object(ClusterNode, "_plan_stretch", prober):
                cluster = _serve(sc, one_step=False)
            assert mismatches == []
            nodes = cluster.nodes
            seen["throttled"] += any(n.throttle_log for n in nodes)
            seen["overflowed"] += any(
                n.kv_sacrifices or (n.swap and n.swap.stats.swap_outs)
                for n in nodes if n.backend.admits_by_free_blocks)

        check()
        assert all(seen.values()), seen


def _node(env, **kw):
    return ClusterNode(env, 0, get_device(ORIN64), get_model("llama"),
                       Precision.FP16, power_mode="MAXN", **kw)


def _req(req_id, out):
    return ClusterRequest(req_id=req_id, arrival_s=0.0, input_tokens=64,
                          output_tokens=out)


def _faulted_run(episode, one_step, thermal=None):
    """Two requests decoding on one node; one fault episode (or none)
    starting mid-decode."""
    env = Environment()
    node = _node(env, thermal=thermal)
    reqs = [_req(0, 160), _req(1, 240)]
    for r in reqs:
        node.submit(r)
    if episode is not None:
        FaultInjector(env, [node], schedule_from_episodes([episode])).start()
    node.sampler.start()
    steps = 1 if one_step else ClusterNode._STRETCH_STEPS
    with mock.patch.object(ClusterNode, "_STRETCH_STEPS", steps):
        env.run(until=600.0)
    node.sampler.stop()
    return [(r.first_token_s, r.last_token_s, r.finish_s, r.energy_j)
            for r in reqs], node


class TestMidDecodeFaults:
    """Fault edges that land inside a planned stretch take effect at the
    next step boundary, exactly as with one step per resumption."""

    def test_straggler_start_mid_decode(self):
        episode = FaultEpisode(0, 0, FaultClass.STRAGGLER, 3.3, 5.0, 3.0)
        fast, _ = _faulted_run(episode, one_step=False)
        stepped, _ = _faulted_run(episode, one_step=True)
        calm, _ = _faulted_run(None, one_step=False)
        assert fast == stepped
        assert fast[0][2] > calm[0][2], "the straggler must slow decode"
        # Pinned against the one-step-per-resumption loop.
        assert [tuple(x.hex() for x in row) for row in fast] == [
            STRAGGLER_PIN[0], STRAGGLER_PIN[1]]

    def test_thermal_shift_mid_decode(self):
        episode = FaultEpisode(0, 0, FaultClass.THERMAL, 2.7, 20.0, 30.0)
        fast, node = _faulted_run(episode, one_step=False,
                                  thermal=hot_thermal())
        stepped, stepped_node = _faulted_run(episode, one_step=True,
                                             thermal=hot_thermal())
        _, calm = _faulted_run(None, one_step=False, thermal=hot_thermal())
        assert fast == stepped
        assert node.throttle_log == stepped_node.throttle_log
        # The shift lands mid-decode and throttles the very next steps.
        assert node.throttle_log[0][0] < calm.throttle_log[0][0]
        assert [tuple(x.hex() for x in row) for row in fast] == [
            THERMAL_PIN[0], THERMAL_PIN[1]]


# (first_token_s, last_token_s, finish_s, energy_j) of the two requests,
# as float hex, from the step-by-step loop.
STRAGGLER_PIN = (
    ("0x1.157004b1dd7a6p-1", "0x1.80c87cdf87186p+4",
     "0x1.80c87cdf87186p+4", "0x1.3ac07d2ec49afp+8"),
    ("0x1.157004b1dd7a6p-1", "0x1.106b8221e10e7p+5",
     "0x1.106b8221e10e7p+5", "0x1.1f9586b79111ap+9"),
)
THERMAL_PIN = (
    ("0x1.157004b1dd7a6p-1", "0x1.669aad7185007p+4",
     "0x1.669aad7185007p+4", "0x1.00c37a08a3efcp+8"),
    ("0x1.157004b1dd7a6p-1", "0x1.0b8f8757f9719p+5",
     "0x1.0b8f8757f9719p+5", "0x1.f9f3f0187c83ep+8"),
)


class TestCounterSchedulerAdmission:
    """A counter scheduler's choice moves with every token served: a
    KV-blocked candidate can give way to one that fits mid-decode."""

    def _run(self, one_step):
        env = Environment()
        node = ClusterNode(env, 0, get_device(ORIN64), get_model("llama"),
                           Precision.FP16, scheduler="wsc", max_batch=4,
                           kv_budget_bytes=600 * _kv_bytes_per_token())

        def req(req_id, tenant, out):
            return ClusterRequest(req_id=req_id, arrival_s=0.0,
                                  input_tokens=64, output_tokens=out,
                                  tenant=tenant)

        warm, long_a = req(0, "b", 100), req(1, "a", 400)
        big_a, small_b = req(2, "a", 436), req(3, "b", 16)

        def script():
            node.submit(warm)  # tenant b banks 164 tokens of service
            yield env.timeout(60.0)
            node.submit(long_a)
            yield env.timeout(5.0)
            # big_a (tenant a, lowest counter) cannot fit beside long_a;
            # small_b can, once a's counter passes b's.
            node.submit(big_a)
            node.submit(small_b)

        env.process(script())
        steps = 1 if one_step else ClusterNode._STRETCH_STEPS
        with mock.patch.object(ClusterNode, "_STRETCH_STEPS", steps):
            env.run(until=2_000.0)
        return [(r.first_token_s, r.finish_s, r.energy_j)
                for r in (warm, long_a, big_a, small_b)]

    def test_matches_one_step_serving(self):
        fast = self._run(one_step=False)
        assert fast == self._run(one_step=True)
        long_a, small_b = fast[1], fast[3]
        assert small_b[0] < long_a[1], "small_b must join mid-decode"


def _kv_bytes_per_token():
    arch = get_model("llama")
    return arch.kv_cache_spec().bytes_per_token_per_layer * arch.n_layers


class TestKvShrinkBudget:
    def test_zero_budget_factor_is_rejected(self):
        env = Environment()
        node = _node(env)
        node.submit(_req(0, 16))
        budget = node.kv_budget
        with pytest.raises(ConfigError):
            node.set_kv_shrink(1e-12)
        assert node.kv_budget == budget
        assert node.kv_shrink == 1.0
        assert node.kv_pressure > 0  # routers can still read it
