"""Paged KV-cache block manager (vLLM-style; extension beyond the paper).

The paper's HF runtime grows one contiguous K/V tensor per layer
(DynamicCache) and pays the concat churn this repo's allocator exposes.
PagedAttention instead carves the cache region into fixed-size *blocks*
(``block_tokens`` token slots each) and maps sequences onto them through
per-sequence block tables, eliminating both the concat copies and the
contiguity fragmentation.  This module implements the block manager so
the ablation bench can quantify what the paper's setup leaves on the
table.

The manager is allocator-backed: the block pool is one large allocation
(as vLLM reserves its cache up front), and utilisation is tracked in
blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import AllocationError, ConfigError, OutOfMemoryError
from repro.memsys.allocator import Allocation, CachingAllocator
from repro.memsys.kvcache import KVCacheSpec


@dataclass
class PagedStats:
    """Block-pool utilisation counters."""

    total_blocks: int = 0
    used_blocks: int = 0
    peak_used_blocks: int = 0
    allocations: int = 0


class PagedKVCache:
    """Fixed-size-block KV cache with per-sequence block tables.

    Parameters
    ----------
    spec:
        KV geometry (shared with the contiguous caches).
    allocator:
        Device allocator the pool is reserved from.
    pool_bytes:
        Size of the up-front cache reservation.
    block_tokens:
        Token slots per block (vLLM default: 16).
    """

    def __init__(
        self,
        spec: KVCacheSpec,
        allocator: CachingAllocator,
        pool_bytes: int,
        block_tokens: int = 16,
    ):
        if block_tokens < 1:
            raise ConfigError("block_tokens must be >= 1")
        if pool_bytes <= 0:
            raise ConfigError("pool must be positive")
        self.spec = spec
        self.block_tokens = block_tokens
        self.bytes_per_block = (
            spec.bytes_per_token_per_layer * spec.n_layers * block_tokens
        )
        if pool_bytes < self.bytes_per_block:
            raise ConfigError("pool smaller than a single block")
        self.allocator = allocator
        self._pool: Allocation = allocator.alloc(pool_bytes, tag="paged-kv-pool")
        n_blocks = pool_bytes // self.bytes_per_block
        self._free: List[int] = list(range(n_blocks))
        #: sequence id -> (block ids, tokens used)
        self._tables: Dict[int, List[int]] = {}
        self._tokens: Dict[int, int] = {}
        self.stats = PagedStats(total_blocks=n_blocks)

    # -- block accounting ----------------------------------------------------
    def _take_block(self) -> int:
        if not self._free:
            raise OutOfMemoryError(
                requested_bytes=self.bytes_per_block,
                available_bytes=0,
                context="paged KV pool exhausted",
            )
        blk = self._free.pop()
        self.stats.used_blocks += 1
        self.stats.peak_used_blocks = max(
            self.stats.peak_used_blocks, self.stats.used_blocks
        )
        self.stats.allocations += 1
        return blk

    def blocks_needed(self, n_tokens: int) -> int:
        """Blocks required for a sequence of ``n_tokens``."""
        return -(-n_tokens // self.block_tokens)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def can_admit(self, n_tokens: int) -> bool:
        """Would a sequence of ``n_tokens`` (total) fit right now?"""
        return self.blocks_needed(n_tokens) <= self.free_blocks

    # -- sequence lifecycle ----------------------------------------------------
    def add_sequence(self, seq_id: int, prompt_tokens: int) -> None:
        """Admit a sequence and allocate blocks for its prompt."""
        if seq_id in self._tables:
            raise AllocationError(f"sequence {seq_id} already present")
        if prompt_tokens < 1:
            raise ConfigError("prompt must have >= 1 token")
        needed = self.blocks_needed(prompt_tokens)
        if needed > self.free_blocks:
            raise OutOfMemoryError(
                requested_bytes=needed * self.bytes_per_block,
                available_bytes=self.free_blocks * self.bytes_per_block,
                context=f"admitting sequence {seq_id}",
            )
        self._tables[seq_id] = [self._take_block() for _ in range(needed)]
        self._tokens[seq_id] = prompt_tokens

    def append_token(self, seq_id: int) -> None:
        """Extend a sequence by one token, growing its table if needed."""
        table = self._tables.get(seq_id)
        if table is None:
            raise AllocationError(f"unknown sequence {seq_id}")
        tokens = self._tokens[seq_id] + 1
        if self.blocks_needed(tokens) > len(table):
            table.append(self._take_block())
        self._tokens[seq_id] = tokens

    def release_sequence(self, seq_id: int) -> None:
        """Return all of a finished sequence's blocks to the pool."""
        table = self._tables.pop(seq_id, None)
        if table is None:
            raise AllocationError(f"unknown sequence {seq_id}")
        self._tokens.pop(seq_id)
        self._free.extend(table)
        self.stats.used_blocks -= len(table)

    @property
    def live_sequences(self) -> List[int]:
        """Ids of sequences currently holding blocks."""
        return list(self._tables)

    def seq_tokens(self, seq_id: int) -> int:
        """Current token count of a sequence."""
        if seq_id not in self._tokens:
            raise AllocationError(f"unknown sequence {seq_id}")
        return self._tokens[seq_id]

    # -- whole-pool views --------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Bytes of KV data logically stored (not block-rounded)."""
        return sum(
            t * self.spec.bytes_per_token_per_layer * self.spec.n_layers
            for t in self._tokens.values()
        )

    @property
    def internal_fragmentation(self) -> float:
        """Wasted fraction inside allocated blocks (last-block slack)."""
        used_bytes = self.stats.used_blocks * self.bytes_per_block
        if used_bytes == 0:
            return 0.0
        return 1.0 - self.live_bytes / used_bytes

    def concat_traffic_bytes(self) -> int:
        """Paged caches never copy on growth."""
        return 0

    def release_pool(self) -> None:
        """Return the reservation to the device allocator."""
        if self._tables:
            raise AllocationError("release_pool() with live sequences")
        self.allocator.free(self._pool)
        self._free.clear()
        self.stats.used_blocks = 0
