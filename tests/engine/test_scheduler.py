"""Request-level serving: static batching vs a 1-node fleet's
continuous batching."""

import copy

import pytest

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.workload import ServeRequest, poisson_workload
from repro.engine.scheduler import ServingReport, StaticBatchScheduler
from repro.errors import ExperimentError
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision


def make_sched(max_batch=8):
    return StaticBatchScheduler(get_device("jetson-orin-agx-64gb"),
                                get_model("llama"), Precision.FP16,
                                max_batch=max_batch)


def serve_continuous(reqs, max_batch=8, kv_budget_bytes=None):
    """Continuous batching: one Orin node's serving loop."""
    cluster = EdgeCluster.of(FleetSpec.of(
        [NodeSpec("jetson-orin-agx-64gb", max_batch=max_batch)],
        model="llama", precision="fp16"))
    if kv_budget_bytes is not None:
        cluster.nodes[0]._kv_budget_base = kv_budget_bytes
    cluster.run(reqs)
    return ServingReport.from_requests("continuous", cluster.last_requests)


def workload(rate=2.0, n=24, seed=3, out=16):
    return poisson_workload(rate, n, input_tokens=16, output_tokens=out,
                            seed=seed)


class TestWorkloadGen:
    def test_arrivals_sorted_and_seeded(self):
        a = workload(seed=5)
        b = workload(seed=5)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.arrival_s for r in a] == sorted(r.arrival_s for r in a)

    def test_mean_rate_approximates_lambda(self):
        reqs = poisson_workload(10.0, 500, seed=1)
        assert reqs[-1].arrival_s == pytest.approx(50.0, rel=0.25)

    def test_validation(self):
        with pytest.raises(ExperimentError):
            poisson_workload(0.0, 5)
        with pytest.raises(ExperimentError):
            poisson_workload(1.0, 0)


class TestStatic:
    def test_all_requests_complete_with_metrics(self):
        report = make_sched().serve(workload())
        assert report.n_requests == 24
        for r in report.requests:
            assert r.finish_s is not None
            assert r.first_token_s is not None
            assert r.ttft_s >= 0
            assert r.latency_s >= r.ttft_s

    def test_batches_bounded_by_max_batch(self):
        report = make_sched(max_batch=4).serve(workload())
        assert report.n_requests == 24

    def test_later_arrivals_wait_for_running_batch(self):
        """With a single-slot server, TTFT grows along the queue."""
        reqs = [ServeRequest(i, 0.01 * i, 16, 16) for i in range(4)]
        report = StaticBatchScheduler(
            get_device("jetson-orin-agx-64gb"), get_model("llama"),
            Precision.FP16, max_batch=1, max_wait_s=0.0,
        ).serve(reqs)
        ttfts = [r.ttft_s for r in sorted(report.requests, key=lambda r: r.req_id)]
        assert ttfts == sorted(ttfts)
        assert ttfts[-1] > 3 * ttfts[0] if ttfts[0] > 0 else True


class TestContinuous:
    def test_all_requests_complete(self):
        report = serve_continuous(workload())
        assert report.n_requests == 24
        assert report.mean_tpot_s > 0

    def test_beats_static_on_ttft_under_load(self):
        """The iteration-level scheduler admits new requests mid-batch,
        so tail TTFT collapses versus run-to-completion batching."""
        reqs = workload(rate=4.0, n=32, out=32)
        static = make_sched().serve(copy.deepcopy(reqs))
        cont = serve_continuous(copy.deepcopy(reqs))
        assert cont.p95_ttft_s < static.p95_ttft_s

    def test_respects_kv_budget(self):
        # A tiny budget forces admission control but must still finish.
        report = serve_continuous(workload(n=12), max_batch=8,
                                  kv_budget_bytes=int(50e6))
        assert report.n_requests == 12

    def test_impossible_budget_rejected(self):
        # Mistral-24B's FP16 weights alone outgrow the 32 GB Orin.
        with pytest.raises(ExperimentError, match="no KV budget"):
            StaticBatchScheduler(get_device("jetson-orin-agx-32gb"),
                                 get_model("mistral"), Precision.FP16)
