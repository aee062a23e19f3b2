"""End-to-end cluster serving: invariants every policy must hold.

The acceptance bar from the subsystem's introduction:

- determinism: a fixed seed gives a bit-identical report for every
  routing policy;
- conservation: every injected request is completed xor rejected, and
  no token is served twice (fleet-served tokens == sum of per-request
  generated counts == completed * output_tokens);
- monotonicity: a higher arrival rate never lowers p99 TTFT.
"""

import pytest

from repro.cluster import (
    AutoscalerConfig,
    EdgeCluster,
    FleetSpec,
    NodeSpec,
    PowerModeAutoscaler,
    SLOSpec,
    list_policies,
    multi_tenant_workload,
    poisson_workload,
)
from repro.errors import ConfigError, ExperimentError

FLEET = [
    NodeSpec("jetson-orin-agx-64gb", max_batch=4),
    NodeSpec("jetson-orin-agx-32gb", max_batch=4),
]


def serve(policy, rate=2.0, n=24, seed=3, specs=FLEET, out=16, **run_kw):
    fleet = FleetSpec.of(list(specs), model="llama", precision="fp16",
                         policy=policy)
    cluster = EdgeCluster.of(fleet, **run_kw)
    reqs = poisson_workload(rate, n, input_tokens=16, output_tokens=out,
                            seed=seed)
    return cluster, cluster.run(reqs)


class TestConservation:
    @pytest.mark.parametrize("policy", list_policies())
    def test_every_request_completed_or_rejected(self, policy):
        cluster, rep = serve(policy)
        assert rep.completed + rep.rejected == rep.n_requests
        for r in rep.requests:
            done = r.finish_s is not None
            assert done != r.rejected  # exactly one outcome
            if done:
                assert r.generated == r.output_tokens
            else:
                assert r.generated == 0

    @pytest.mark.parametrize("policy", list_policies())
    def test_no_token_served_twice(self, policy):
        cluster, rep = serve(policy)
        fleet_tokens = sum(n.served_tokens for n in cluster.nodes)
        assert fleet_tokens == sum(r.generated for r in rep.requests)
        assert fleet_tokens == rep.completed * 16

    def test_rejection_under_tiny_queues(self):
        specs = [NodeSpec("jetson-orin-agx-64gb", max_batch=1, max_queue=1)]
        cluster, rep = serve("jsq", rate=50.0, n=40, specs=specs, out=64)
        assert rep.rejected > 0
        assert rep.completed + rep.rejected == 40
        rejected = [r for r in rep.requests if r.rejected]
        assert all(r.retries > 0 for r in rejected)


class TestDeterminism:
    @pytest.mark.parametrize("policy", list_policies())
    def test_same_seed_same_report(self, policy):
        _, a = serve(policy, seed=7)
        _, b = serve(policy, seed=7)
        assert a.as_row() == b.as_row()
        assert [(r.first_token_s, r.finish_s, r.node_id) for r in a.requests] \
            == [(r.first_token_s, r.finish_s, r.node_id) for r in b.requests]

    def test_plain_requests_are_copied_and_left_untouched(self):
        reqs = poisson_workload(2.0, 12, input_tokens=16, output_tokens=16,
                                seed=5)
        outcomes = []
        for _ in range(2):
            fleet = FleetSpec.of(list(FLEET), model="llama",
                                 precision="fp16", policy="jsq")
            cluster = EdgeCluster.of(fleet)
            rep = cluster.run(reqs)
            assert cluster.last_requests == rep.requests
            assert all(r is not c for r, c in zip(reqs, rep.requests))
            outcomes.append([(r.req_id, r.first_token_s, r.finish_s,
                              r.generated, r.node_id) for r in rep.requests])
        assert outcomes[0] == outcomes[1]
        assert all(r.finish_s is not None for r in cluster.last_requests)
        assert all(r.first_token_s is None and r.finish_s is None
                   and r.generated == 0 for r in reqs)


class TestMonotonicity:
    @pytest.mark.parametrize("policy", list_policies())
    def test_p99_ttft_nondecreasing_in_rate(self, policy):
        p99s = []
        for rate in (0.5, 2.0, 8.0):
            _, rep = serve(policy, rate=rate, n=30)
            assert rep.rejected == 0  # keep the completed sets comparable
            p99s.append(rep.p99_ttft_s)
        assert p99s == sorted(p99s), p99s


class TestReports:
    def test_energy_accounting_consistent(self):
        # Sparse trace: long idle stretches between requests, so the
        # clock-independent idle floor dominates the sampler-integrated
        # fleet energy and must push it above the busy-only accounting.
        # (On dense traces the 1 s sampling grid can undershoot short
        # busy spikes, so the ordering is only guaranteed here.)
        cluster, rep = serve("jsq", rate=0.2, n=8)
        assert rep.fleet_energy_j > 0
        assert rep.busy_energy_j > 0
        assert rep.fleet_energy_j > rep.busy_energy_j
        per_request = sum(r.energy_j for r in rep.requests)
        # Decode-step energy is attributed to tokens; prefill energy is
        # accounted busy but not attributed, so attribution <= busy.
        assert 0 < per_request <= rep.busy_energy_j * 1.001

    def test_per_request_energy_bounded_by_busy_on_dense_trace(self):
        _, rep = serve("jsq")
        per_request = sum(r.energy_j for r in rep.requests)
        assert 0 < per_request <= rep.busy_energy_j * 1.001

    def test_multi_tenant_fairness_reported(self):
        cluster = EdgeCluster.of(FleetSpec.of(
            list(FLEET), model="llama", precision="fp16",
            policy="least-kv"))
        reqs = multi_tenant_workload(3.0, 40, seed=2)
        rep = cluster.run(reqs)
        assert len(rep.tenants) == 3
        assert sum(t.injected for t in rep.tenants) == 40
        assert 0.0 < rep.jains_index <= 1.0
        assert 0.0 <= rep.max_min_share <= 1.0

    def test_splitwise_prefill_and_decode_separated(self):
        cluster, rep = serve("splitwise")
        prefill = [n for n in cluster.nodes if n.role == "prefill"]
        decode = [n for n in cluster.nodes if n.role == "decode"]
        assert prefill and decode
        assert all(n.served_tokens == 0 for n in prefill)
        assert all(n.prefilled_tokens == 0 for n in decode)
        assert sum(n.prefilled_tokens for n in prefill) == rep.completed * 16

    def test_slo_attainment_depends_on_deadline(self):
        _, strict = serve("jsq", slo=SLOSpec(ttft_s=0.001, tpot_s=None))
        _, loose = serve("jsq", slo=SLOSpec(ttft_s=1e6, tpot_s=None))
        assert strict.slo_attainment == 0.0
        assert loose.slo_attainment == 1.0


class TestFaultFreeResilience:
    """The fault-free path must report perfect resilience numbers —
    exactly, so chaos CSVs diff cleanly against clean baselines."""

    @pytest.mark.parametrize("policy", list_policies())
    def test_availability_is_exactly_one(self, policy):
        _, rep = serve(policy)
        assert rep.availability == 1.0  # == on purpose: no float drift
        assert rep.mttr_s == 0.0
        assert rep.requeues == 0
        assert rep.lost_tokens == 0

    def test_resilience_columns_always_present(self):
        _, rep = serve("jsq")
        row = rep.as_row()
        assert row["availability"] == 1.0
        assert row["mttr_s"] == 0.0
        assert row["retries"] >= 0
        assert row["requeues"] == 0


class TestAutoscaler:
    def test_scales_up_under_load_and_down_when_calm(self):
        cluster = EdgeCluster.of(FleetSpec.of(
            list(FLEET), model="llama", precision="fp16", policy="jsq"))
        scaler = PowerModeAutoscaler(
            cluster.env, cluster.nodes,
            AutoscalerConfig(period_s=1.0, up_depth=2, down_depth=1),
        )
        cluster.attach_autoscaler(scaler)
        reqs = poisson_workload(8.0, 30, input_tokens=16, output_tokens=16,
                                seed=1)
        cluster.run(reqs)
        ups = [s for s in scaler.history
               if s.reason.startswith("depth") and s.mode != "B"]
        assert scaler.n_switches() > 0
        assert ups, "never scaled up under an 8 req/s burst"

    def test_determinism_with_autoscaler(self):
        def once():
            cluster = EdgeCluster.of(FleetSpec.of(
                list(FLEET), model="llama", precision="fp16",
                policy="energy-aware"))
            cluster.attach_autoscaler(PowerModeAutoscaler(
                cluster.env, cluster.nodes, AutoscalerConfig(period_s=1.0)))
            return cluster.run(poisson_workload(4.0, 25, seed=9)).as_row()

        assert once() == once()

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            AutoscalerConfig(ladder=("MAXN",))
        with pytest.raises(ConfigError):
            AutoscalerConfig(period_s=0.0)
        with pytest.raises(ConfigError):
            AutoscalerConfig(up_depth=2, down_depth=2)
        with pytest.raises(ConfigError):
            AutoscalerConfig(ladder=("B", "NOPE"))

    def test_clamping_fits_small_devices(self):
        from repro.cluster import clamp_mode_to_device
        from repro.hardware import get_device
        from repro.power.modes import get_power_mode

        dev = get_device("jetson-orin-agx-32gb")  # GPU caps at 930 MHz
        mode = clamp_mode_to_device(get_power_mode("MAXN"), dev)
        assert mode.gpu_freq_hz == dev.gpu.max_freq_hz
        assert mode.cpu_online_cores == dev.cpu.total_cores


class TestValidation:
    def test_empty_cluster_and_trace(self):
        with pytest.raises(ConfigError):
            FleetSpec.of([], model="llama", precision="fp16")
        cluster = EdgeCluster.of(FleetSpec.of(list(FLEET), model="llama",
                                              precision="fp16"))
        with pytest.raises(ExperimentError):
            cluster.run([])
