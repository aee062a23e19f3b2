"""Paged KV-cache block manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AllocationError, ConfigError, OutOfMemoryError
from repro.memsys import CachingAllocator, KVCacheSpec
from repro.memsys.paged import PagedKVCache
from repro.units import gib, mib


@pytest.fixture
def spec():
    return KVCacheSpec(n_layers=4, kv_heads=2, head_dim=16, dtype_bytes=2)


def make_cache(spec, pool_mib=64, block_tokens=16):
    alloc = CachingAllocator(gib(1))
    return PagedKVCache(spec, alloc, mib(pool_mib), block_tokens=block_tokens), alloc


class TestBlocks:
    def test_pool_divides_into_blocks(self, spec):
        cache, _ = make_cache(spec, pool_mib=64, block_tokens=16)
        assert cache.bytes_per_block == spec.bytes_per_token_per_layer * 4 * 16
        assert cache.stats.total_blocks == mib(64) // cache.bytes_per_block

    def test_blocks_needed_rounds_up(self, spec):
        cache, _ = make_cache(spec)
        assert cache.blocks_needed(1) == 1
        assert cache.blocks_needed(16) == 1
        assert cache.blocks_needed(17) == 2

    def test_validation(self, spec):
        alloc = CachingAllocator(gib(1))
        with pytest.raises(ConfigError):
            PagedKVCache(spec, alloc, mib(1), block_tokens=0)
        with pytest.raises(ConfigError):
            PagedKVCache(spec, alloc, 100)  # smaller than one block


class TestSequences:
    def test_admit_append_release_roundtrip(self, spec):
        cache, _ = make_cache(spec)
        cache.add_sequence(1, prompt_tokens=20)
        assert cache.seq_tokens(1) == 20
        used = cache.stats.used_blocks
        assert used == 2
        for _ in range(12):
            cache.append_token(1)
        assert cache.seq_tokens(1) == 32
        assert cache.stats.used_blocks == 2  # fit in the slack
        cache.append_token(1)
        assert cache.stats.used_blocks == 3  # crossed a block boundary
        cache.release_sequence(1)
        assert cache.stats.used_blocks == 0
        assert cache.free_blocks == cache.stats.total_blocks

    def test_no_copy_on_growth(self, spec):
        cache, _ = make_cache(spec)
        cache.add_sequence(1, 16)
        assert cache.concat_traffic_bytes() == 0

    def test_pool_exhaustion_raises_oom(self, spec):
        cache, _ = make_cache(spec, pool_mib=1, block_tokens=16)
        with pytest.raises(OutOfMemoryError):
            cache.add_sequence(1, prompt_tokens=10_000_000)

    def test_can_admit_is_accurate(self, spec):
        cache, _ = make_cache(spec, pool_mib=1)
        largest = cache.free_blocks * cache.block_tokens
        assert cache.can_admit(largest)
        assert not cache.can_admit(largest + 1)

    def test_double_admit_and_unknown_ids_rejected(self, spec):
        cache, _ = make_cache(spec)
        cache.add_sequence(1, 8)
        with pytest.raises(AllocationError):
            cache.add_sequence(1, 8)
        with pytest.raises(AllocationError):
            cache.append_token(99)
        with pytest.raises(AllocationError):
            cache.release_sequence(99)

    def test_internal_fragmentation_bounded_by_one_block_per_seq(self, spec):
        cache, _ = make_cache(spec)
        cache.add_sequence(1, 17)  # 2 blocks, 15 slots wasted
        frag = cache.internal_fragmentation
        assert 0 < frag < 0.5
        for _ in range(15):
            cache.append_token(1)
        assert cache.internal_fragmentation == pytest.approx(0.0)

    def test_release_pool_returns_reservation(self, spec):
        cache, alloc = make_cache(spec)
        before = alloc.allocated_bytes
        cache.add_sequence(1, 4)
        with pytest.raises(AllocationError):
            cache.release_pool()  # live sequences
        cache.release_sequence(1)
        cache.release_pool()
        assert alloc.allocated_bytes == before - mib(64)


@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["add", "append", "release"]),
                  st.integers(0, 5), st.integers(1, 40)),
        min_size=1, max_size=80,
    )
)
@settings(max_examples=60, deadline=None)
def test_block_accounting_invariants(ops):
    """used + free == total under any operation sequence."""
    spec = KVCacheSpec(n_layers=2, kv_heads=2, head_dim=8, dtype_bytes=2)
    alloc = CachingAllocator(gib(1))
    cache = PagedKVCache(spec, alloc, mib(4), block_tokens=8)
    live = set()
    for op, sid, tokens in ops:
        try:
            if op == "add" and sid not in live:
                cache.add_sequence(sid, tokens)
                live.add(sid)
            elif op == "append" and sid in live:
                cache.append_token(sid)
            elif op == "release" and sid in live:
                cache.release_sequence(sid)
                live.discard(sid)
        except OutOfMemoryError:
            pass  # legal under pressure
        assert cache.stats.used_blocks + cache.free_blocks == cache.stats.total_blocks
        assert cache.stats.used_blocks >= cache.blocks_needed(1) * 0 + len(live)

