"""Trace generators: determinism, shape, validation."""

import numpy as np
import pytest

from repro.cluster.workload import (
    DEFAULT_TENANTS,
    ClusterRequest,
    ServeRequest,
    TenantProfile,
    as_cluster_requests,
    bursty_workload,
    diurnal_workload,
    multi_tenant_workload,
    poisson_workload,
)
from repro.errors import ExperimentError, WorkloadError


class TestPoissonCompat:
    def test_original_behaviour_preserved(self):
        reqs = poisson_workload(2.0, 10, seed=4)
        assert len(reqs) == 10
        assert all(isinstance(r, ServeRequest) for r in reqs)
        assert [r.req_id for r in reqs] == list(range(10))
        with pytest.raises(ExperimentError):
            poisson_workload(0.0, 5)


class TestBursty:
    def test_deterministic_and_sorted(self):
        a = bursty_workload(1.0, 8.0, 100, seed=9)
        b = bursty_workload(1.0, 8.0, 100, seed=9)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.arrival_s for r in a] == sorted(r.arrival_s for r in a)

    def test_burstier_than_poisson(self):
        """MMPP inter-arrival CV must exceed the memoryless CV of 1."""
        reqs = bursty_workload(0.5, 20.0, 800, mean_calm_s=20.0,
                               mean_burst_s=5.0, seed=2)
        gaps = np.diff([r.arrival_s for r in reqs])
        cv = gaps.std() / gaps.mean()
        assert cv > 1.2

    def test_validation(self):
        with pytest.raises(WorkloadError):
            bursty_workload(2.0, 1.0, 10)  # burst < calm
        with pytest.raises(WorkloadError):
            bursty_workload(0.0, 1.0, 10)
        with pytest.raises(WorkloadError):
            bursty_workload(1.0, 2.0, 10, mean_calm_s=0.0)


class TestDiurnal:
    def test_deterministic_and_rate_modulated(self):
        a = diurnal_workload(2.0, 400, period_s=100.0, swing=0.9, seed=1)
        b = diurnal_workload(2.0, 400, period_s=100.0, swing=0.9, seed=1)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        # More arrivals land in the rising half-period than the trough.
        phases = [(r.arrival_s % 100.0) / 100.0 for r in a]
        peak = sum(1 for p in phases if 0.0 <= p < 0.5)
        trough = sum(1 for p in phases if 0.5 <= p < 1.0)
        assert peak > trough * 1.5

    def test_validation(self):
        with pytest.raises(WorkloadError):
            diurnal_workload(2.0, 10, swing=1.0)
        with pytest.raises(WorkloadError):
            diurnal_workload(-1.0, 10)


class TestMultiTenant:
    def test_mix_and_determinism(self):
        a = multi_tenant_workload(3.0, 300, seed=6)
        b = multi_tenant_workload(3.0, 300, seed=6)
        assert [(r.tenant, r.input_tokens, r.output_tokens) for r in a] == \
               [(r.tenant, r.input_tokens, r.output_tokens) for r in b]
        names = {r.tenant for r in a}
        assert names == {t.name for t in DEFAULT_TENANTS}
        # Weighted mix: chat (weight 6) dominates analytics (weight 1).
        chat = sum(1 for r in a if r.tenant == "chat")
        analytics = sum(1 for r in a if r.tenant == "analytics")
        assert chat > 3 * analytics

    def test_tenant_shapes_follow_profiles(self):
        reqs = multi_tenant_workload(3.0, 400, seed=0)
        mean_in = {}
        for t in DEFAULT_TENANTS:
            lens = [r.input_tokens for r in reqs if r.tenant == t.name]
            mean_in[t.name] = np.mean(lens)
        assert mean_in["summarize"] > 4 * mean_in["chat"]

    def test_bursty_arrivals_supported(self):
        reqs = multi_tenant_workload(1.0, 50, arrivals="bursty", seed=3)
        assert len(reqs) == 50
        with pytest.raises(WorkloadError):
            multi_tenant_workload(1.0, 10, arrivals="weird")
        with pytest.raises(WorkloadError):
            multi_tenant_workload(1.0, 10, tenants=[])

    def test_profile_validation(self):
        with pytest.raises(WorkloadError):
            TenantProfile("bad", weight=0.0)
        with pytest.raises(WorkloadError):
            TenantProfile("bad", mean_input_tokens=0.0)
        with pytest.raises(WorkloadError):
            TenantProfile("bad", min_tokens=10, max_tokens=5)

    def test_zero_cv_is_deterministic_shape(self):
        t = TenantProfile("fixed", cv_input=0.0, cv_output=0.0,
                          mean_input_tokens=32, mean_output_tokens=16)
        rng = np.random.default_rng(0)
        assert t.sample_shape(rng) == (32, 16)


class TestUpgrade:
    def test_as_cluster_requests(self):
        plain = poisson_workload(1.0, 3, seed=0)
        up = as_cluster_requests(plain)
        assert all(isinstance(r, ClusterRequest) for r in up)
        assert [r.arrival_s for r in up] == [r.arrival_s for r in plain]
        # Token ids ride along, so the radix tree sees plain prompts.
        ids = ServeRequest(7, 0.5, 3, 4, prompt_ids=(1, 2, 3))
        assert as_cluster_requests([ids])[0].prompt_ids == (1, 2, 3)
        # Already-upgraded requests pass through untouched.
        again = as_cluster_requests(up)
        assert again[0] is up[0]
