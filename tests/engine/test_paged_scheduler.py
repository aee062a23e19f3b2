"""Paged admission and preemption in a 1-node fleet's serving loop.

The node's ``paged`` runtime admits by free KV blocks and, when live KV
outgrows the pool mid-decode, evicts the youngest request for a full
re-prefill (``sacrifice``).  A victim re-enters the queue head at once
and is retried at the next step boundary.  The block manager itself
(:class:`~repro.memsys.paged.PagedKVCache`) is driven directly by the
memory-saving and cache-boundary tests.
"""

import pytest

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.workload import ServeRequest, poisson_workload
from repro.engine.scheduler import ServingReport
from repro.errors import OutOfMemoryError
from repro.memsys.allocator import CachingAllocator
from repro.memsys.paged import PagedKVCache
from repro.models import get_model


def fleet(budget: int = None, max_batch: int = 8) -> EdgeCluster:
    cluster = EdgeCluster.of(FleetSpec.of(
        [NodeSpec("jetson-orin-agx-64gb", max_batch=max_batch,
                  runtime="paged")],
        model="llama", precision="fp16"))
    if budget is not None:
        cluster.nodes[0]._kv_budget_base = budget
    return cluster


def serve(reqs, budget: int = None, max_batch: int = 8) -> ServingReport:
    cluster = fleet(budget, max_batch)
    cluster.run(reqs)
    return ServingReport.from_requests("continuous", cluster.last_requests)


def test_paged_serves_all_requests():
    reqs = poisson_workload(3.0, 16, input_tokens=16, output_tokens=16, seed=2)
    report = serve(reqs)
    assert report.n_requests == 16


def test_paged_needs_less_memory_for_same_concurrency():
    """Contiguous admission reserves each sequence's *final* length up
    front; the block manager only holds blocks for generated tokens, so
    its peak pool usage sits well below the contiguous reservation."""
    arch = get_model("llama")
    spec = arch.kv_cache_spec()
    n_seqs, inp, out = 16, 16, 48
    full_reservation = n_seqs * spec.bytes_total(1, inp + out)

    alloc = CachingAllocator(int(1e9))
    cache = PagedKVCache(spec, alloc, full_reservation, block_tokens=16)
    # All sequences resident, decoding in lockstep (the worst case).
    live = set(range(n_seqs))
    for s in live:
        cache.add_sequence(s, inp)
    for _ in range(out):
        for s in list(live):
            cache.append_token(s)
        # Staggered completion: half the sequences are short.
        if 0 in live and cache.seq_tokens(0) == inp + out // 2:
            for s in range(0, n_seqs, 2):
                cache.release_sequence(s)
                live.discard(s)
    peak = cache.stats.peak_used_blocks * cache.bytes_per_block
    assert peak < 0.85 * full_reservation


def test_preemption_path_still_completes_everything():
    # A pool so small that growth must preempt: everything still finishes.
    budget = int(15e6)
    reqs = poisson_workload(20.0, 12, input_tokens=16, output_tokens=64, seed=6)
    report = serve(reqs, budget=budget, max_batch=12)
    assert report.n_requests == 12
    assert any(r.replays for r in report.requests)
    for r in report.requests:
        assert r.finish_s is not None
        assert r.ttft_s >= 0


def _bytes_per_block(block_tokens: int = 16) -> int:
    spec = get_model("llama").kv_cache_spec()
    return spec.bytes_per_token_per_layer * spec.n_layers * block_tokens


class TestAdmissionBoundary:
    """Block-granular admission: exact fit admits, one block over rejects."""

    def _cache(self, n_blocks: int, block_tokens: int = 16):
        spec = get_model("llama").kv_cache_spec()
        pool = n_blocks * _bytes_per_block(block_tokens)
        return PagedKVCache(spec, CachingAllocator(pool + 32 * 2**20), pool,
                            block_tokens=block_tokens)

    def test_admit_exactly_at_capacity(self):
        cache = self._cache(n_blocks=4)
        assert cache.can_admit(4 * 16)
        cache.add_sequence(0, 4 * 16)
        assert cache.free_blocks == 0

    def test_reject_one_token_over_block_capacity(self):
        cache = self._cache(n_blocks=4)
        # 65 tokens round up to a fifth block: one block over the pool.
        assert not cache.can_admit(4 * 16 + 1)
        with pytest.raises(OutOfMemoryError):
            cache.add_sequence(0, 4 * 16 + 1)
        # The failed admission must not leak blocks.
        assert cache.free_blocks == 4
        cache.add_sequence(1, 4 * 16)

    def test_scheduler_serves_request_that_exactly_fills_pool(self):
        # Final sequence length 16 + 48 = 64 tokens = exactly 4 blocks.
        budget = 4 * _bytes_per_block()
        reqs = [ServeRequest(req_id=0, arrival_s=0.0, input_tokens=16,
                             output_tokens=48)]
        report = serve(reqs, budget=budget, max_batch=1)
        assert report.requests[0].finish_s is not None
        assert report.requests[0].generated == 48


class TestPreemption:
    """preempt_youngest: the youngest sequence is evicted and recomputed."""

    def _three_requests(self):
        # Three identical 16-in/32-out sequences; r2 arrives a beat
        # late.  A 7-block pool admits all three prompts, but when r0
        # and r1 cross the 33-token block boundary in the same decode
        # iteration the pool is dry and r2 — the youngest — is evicted.
        # It re-prefills and is evicted again until r0/r1 finish, then
        # re-runs from scratch (3 blocks <= 7).
        return [
            ServeRequest(req_id=0, arrival_s=0.0, input_tokens=16,
                         output_tokens=32),
            ServeRequest(req_id=1, arrival_s=0.0, input_tokens=16,
                         output_tokens=32),
            ServeRequest(req_id=2, arrival_s=0.1, input_tokens=16,
                         output_tokens=32),
        ]

    def test_youngest_is_preempted_and_still_completes(self):
        tight = serve(self._three_requests(), budget=7 * _bytes_per_block(),
                      max_batch=3)
        r0, r1, r2 = tight.requests
        assert all(r.generated == 32 for r in tight.requests)
        # r2 has the same service demand and arrived only 0.1 s late;
        # it finishes a full re-run after the others only because it
        # was evicted and recomputed from scratch.
        assert r2.finish_s > r0.finish_s + 1.0
        assert r2.finish_s > r1.finish_s + 1.0
        assert r2.replays > 0

    def test_preemption_recompute_costs_time(self):
        tight = serve(self._three_requests(), budget=7 * _bytes_per_block(),
                      max_batch=3)
        ample = serve(self._three_requests(), budget=64 * _bytes_per_block(),
                      max_batch=3)
        assert all(r.finish_s is not None for r in ample.requests)
        # Recompute-style preemption re-pays r2's prefill and decode.
        assert tight.makespan_s > ample.makespan_s

    def test_unpreemptable_oom_raises(self):
        # A single sequence outgrowing the whole pool has no victim to
        # evict and can never finish here: the node rejects it as
        # hopeless and the run ends instead of looping.
        reqs = [ServeRequest(req_id=0, arrival_s=0.0, input_tokens=16,
                             output_tokens=256)]
        cluster = fleet(budget=2 * _bytes_per_block(), max_batch=1)
        report = cluster.run(reqs)
        assert report.rejected == 1
        assert cluster.last_requests[0].finish_s is None


class TestBlockRoundedAdmissionBoundary:
    """Regression: a prompt needing exactly the remaining blocks admits.

    The old admission check asked for blocks covering ``input + 1``
    tokens, so a prompt that exactly filled the free pool was refused
    until a running sequence finished — an off-by-one that serialised
    exactly-full admissions.  Decode growth is handled by preemption,
    not by reserving the extra block up front.
    """

    def _budget(self, n_blocks):
        return n_blocks * _bytes_per_block()

    def test_exactly_full_pool_admits(self):
        # A holds 3 blocks for its whole life (48-token cap, 16 rounds).
        a = ServeRequest(req_id=0, arrival_s=0.0, input_tokens=40,
                         output_tokens=8)
        # B's 80-token prompt needs exactly the 5 remaining blocks.
        b = ServeRequest(req_id=1, arrival_s=0.05, input_tokens=80,
                         output_tokens=16)
        report = serve([a, b], budget=self._budget(8))
        assert report.n_requests == 2
        a, b = report.requests
        assert a.finish_s is not None and b.finish_s is not None
        # The boundary admission ran B concurrently with A: its first
        # token streams long before A drains (pre-fix, B waited for A).
        assert b.first_token_s < a.finish_s

    def test_over_full_prompt_still_waits(self):
        a = ServeRequest(req_id=0, arrival_s=0.0, input_tokens=40,
                         output_tokens=8)
        # 81 tokens -> 6 blocks > the 5 free: must wait for A to finish.
        b = ServeRequest(req_id=1, arrival_s=0.05, input_tokens=81,
                         output_tokens=8)
        report = serve([a, b], budget=self._budget(8))
        assert report.n_requests == 2
        a, b = report.requests
        assert b.first_token_s > a.finish_s
