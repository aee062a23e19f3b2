"""vLLM-style runtime: paged KV blocks, continuous-batching admission.

The runtime loads the same safetensors checkpoint as the HF stack and
runs on the same PyTorch kernels (the :class:`StepTimer` roofline is
shared, with a small strided-gather penalty on the KV read path), but
its memory discipline is PagedAttention over the existing
:class:`repro.memsys.paged.PagedKVCache` block manager:

- the free device memory left after weights and workspace is reserved
  up front as one block pool;
- sequences are admitted when their *prompt* fits in currently-free
  blocks — not their whole-lifetime KV footprint — so admission is
  optimistic and the pool can exhaust mid-decode (a real vLLM
  preemption; surfaced as the batch's OOM here, and as youngest-victim
  eviction in the cluster node);
- cache growth never copies: decode pays zero concat traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import RuntimeBackend
from repro.backends.hf import load_checkpoint_weights, torch_workspace_bytes
from repro.backends.registry import register_backend
from repro.engine.executor import BatchExecutor
from repro.engine.kernels import StepTimer
from repro.errors import ConfigError, OutOfMemoryError
from repro.memsys.paged import PagedKVCache
from repro.models.footprint import weight_bytes
from repro.quant.dtypes import Precision


class _PagedBatchKV:
    """Adapter driving a :class:`PagedKVCache` with the executor's
    contiguous-cache growth protocol (``prefill`` / ``append_token`` /
    ``concat_traffic_bytes`` / ``release``).

    The pool is reserved at construction from whatever the allocator has
    left (times ``pool_utilization``, vLLM's ``gpu_memory_utilization``
    analogue); every sequence of the static batch becomes one block
    table.
    """

    def __init__(self, spec, allocator, batch_size: int, block_tokens: int,
                 pool_utilization: float):
        free = allocator.capacity - allocator.reserved_bytes
        pool = int(free * pool_utilization)
        bytes_per_block = (
            spec.bytes_per_token_per_layer * spec.n_layers * block_tokens
        )
        if pool < bytes_per_block:
            raise OutOfMemoryError(
                requested_bytes=bytes_per_block,
                available_bytes=max(pool, 0),
                context="reserving paged KV pool",
            )
        self.cache = PagedKVCache(spec, allocator, pool,
                                  block_tokens=block_tokens)
        self.batch_size = batch_size
        self.seq_len = 0

    def prefill(self, n_tokens: int) -> None:
        for s in range(self.batch_size):
            self.cache.add_sequence(s, n_tokens)
        self.seq_len = n_tokens

    def append_token(self) -> None:
        for s in range(self.batch_size):
            self.cache.append_token(s)
        self.seq_len += 1

    def concat_traffic_bytes(self) -> int:
        return 0

    def release(self) -> None:
        for s in self.cache.live_sequences:
            self.cache.release_sequence(s)
        self.cache.release_pool()


class PagedBatchExecutor(BatchExecutor):
    """The shared prefill/decode loop over a paged block pool."""

    def __init__(self, timer, allocator, block_tokens: int,
                 pool_utilization: float, workspace_bytes: int = 0,
                 fast_forward: bool = True):
        super().__init__(timer, allocator, kv_mode="paged",
                         eager_score_buffers=False,
                         workspace_bytes=workspace_bytes,
                         fast_forward=fast_forward)
        self.block_tokens = block_tokens
        self.pool_utilization = pool_utilization

    def _make_kv(self, batch_size: int, gen):
        return _PagedBatchKV(
            self.timer.arch.kv_cache_spec(),
            self.allocator,
            batch_size=batch_size,
            block_tokens=self.block_tokens,
            pool_utilization=self.pool_utilization,
        )


@register_backend
@dataclass(frozen=True)
class PagedBackend(RuntimeBackend):
    """PagedAttention serving with admission by free blocks."""

    name = "paged"
    description = ("vLLM-style: paged KV block pool, continuous batching, "
                   "admission by free blocks")

    admits_by_free_blocks = True

    #: Token slots per KV block (vLLM default).
    block_tokens: int = 16
    #: Fraction of leftover device memory reserved as the block pool.
    pool_utilization: float = 0.90
    #: Strided block-gather penalty on the KV read path.
    kv_read_penalty: float = 1.05

    def __post_init__(self) -> None:
        if self.block_tokens < 1:
            raise ConfigError("block_tokens must be >= 1")
        if not 0.0 < self.pool_utilization <= 1.0:
            raise ConfigError("pool_utilization must be in (0, 1]")
        if self.kv_read_penalty < 1.0:
            raise ConfigError("kv_read_penalty must be >= 1")

    def weight_bytes(self, arch, precision: Precision) -> int:
        return weight_bytes(arch, precision)

    def load_weights(self, allocator, arch, precision: Precision) -> None:
        load_checkpoint_weights(allocator, arch, precision,
                                self.weight_bytes(arch, precision))

    def make_timer(self, arch, device, precision: Precision, params=None):
        from repro.calibration.constants import CALIBRATED_COST_PARAMS

        params = params or CALIBRATED_COST_PARAMS
        return StepTimer(arch, device, precision, params.with_(
            kv_traffic_scale=params.kv_traffic_scale * self.kv_read_penalty))

    def workspace_bytes(self, arch, precision: Precision,
                        batch_size: int) -> int:
        return torch_workspace_bytes(arch, precision, batch_size)

    def make_executor(self, timer, allocator, arch, precision: Precision,
                      batch_size: int, fast_forward: bool = True):
        return PagedBatchExecutor(
            timer,
            allocator,
            block_tokens=self.block_tokens,
            pool_utilization=self.pool_utilization,
            workspace_bytes=self.workspace_bytes(arch, precision, batch_size),
            fast_forward=fast_forward,
        )

    # -- block-granular admission -------------------------------------------
    def _block_bytes(self, bytes_per_token: int) -> int:
        return bytes_per_token * self.block_tokens

    def _rounded(self, tokens: int, bytes_per_token: int) -> int:
        blocks = -(-tokens // self.block_tokens)
        return blocks * self._block_bytes(bytes_per_token)

    def request_kv_reservation(self, input_tokens: int, output_tokens: int,
                               bytes_per_token: int) -> int:
        # Optimistic: only the prompt's blocks gate admission.
        return self._rounded(input_tokens, bytes_per_token)

    def live_kv_bytes(self, input_tokens: int, generated: int,
                      output_tokens: int, bytes_per_token: int) -> int:
        return self._rounded(input_tokens + generated, bytes_per_token)

    def live_kv_block_tokens(self) -> int:
        return self.block_tokens
