"""A caching allocator in the style of the PyTorch CUDA allocator.

Model (simplified but structurally faithful):

- Requests are rounded up to 512 B.
- Memory is obtained from the device in *segments*.  Requests below the
  small/large threshold (1 MiB) come from 2 MiB small segments; larger
  requests come from segments of ``max(20 MiB, request rounded to 2 MiB)``.
- Each segment is a list of blocks.  Allocation best-fits a free block
  across cached segments of the matching pool, splitting off the
  remainder; freeing coalesces with adjacent free blocks.
- Segments are never returned to the device eagerly.  When an allocation
  would exceed capacity, fully-free segments are reclaimed and the
  allocation retried; only then does the allocator raise
  :class:`~repro.errors.OutOfMemoryError`.
- An optional *gc threshold* reclaims empty segments whenever the cached
  (free) fraction exceeds it, mimicking ``PYTORCH_CUDA_ALLOC_CONF
  garbage_collection_threshold``.

This reproduces the fragmentation behaviour that drives the paper's
incremental-memory numbers: a stream of monotonically growing
allocations (HF ``DynamicCache`` concatenation) reuses coalesced blocks
while tensors fit inside pooled 20 MiB segments, but accumulates
dead exact-size segments once tensors outgrow the pool — until pressure
forces a reclaim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import AllocationError, OutOfMemoryError
from repro.units import kib, mib

ROUND_SMALL = 512
SMALL_LARGE_THRESHOLD = mib(1)
SMALL_SEGMENT = mib(2)
LARGE_SEGMENT_MIN = mib(20)
LARGE_ROUND = mib(2)


def _round_up(n: int, mult: int) -> int:
    return ((n + mult - 1) // mult) * mult


@dataclass
class _Block:
    """One contiguous range inside a segment."""

    offset: int
    size: int
    free: bool = True


class _Segment:
    """A device-memory segment holding a block list sorted by offset.

    ``max_free`` caches the largest free block so the allocator can skip
    full segments (weights) without scanning their block lists.
    """

    __slots__ = ("size", "pool", "blocks", "max_free")

    def __init__(self, size: int, pool: str):
        self.size = size
        self.pool = pool
        self.blocks: List[_Block] = [_Block(offset=0, size=size, free=True)]
        self.max_free = size

    @property
    def fully_free(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0].free

    def _recompute_max_free(self) -> None:
        self.max_free = max((b.size for b in self.blocks if b.free), default=0)

    def best_fit(self, size: int) -> Optional[_Block]:
        """Smallest free block that fits ``size``."""
        if self.max_free < size:
            return None
        best: Optional[_Block] = None
        for b in self.blocks:
            if b.free and b.size >= size and (best is None or b.size < best.size):
                best = b
        return best

    def allocate_in(self, block: _Block, size: int) -> _Block:
        """Carve ``size`` bytes out of ``block`` (must be free and fit)."""
        if not block.free or block.size < size:
            raise AllocationError("internal: allocate_in on unsuitable block")
        idx = self.blocks.index(block)
        remainder = block.size - size
        block.size = size
        block.free = False
        # Sizes and segments are multiples of 512 B, so any remainder
        # is a trackable free block.
        if remainder:
            self.blocks.insert(
                idx + 1, _Block(offset=block.offset + size, size=remainder, free=True)
            )
        self._recompute_max_free()
        return block

    def release(self, block: _Block) -> None:
        """Mark ``block`` free and coalesce with free neighbours."""
        idx = self.blocks.index(block)
        block.free = True
        # Coalesce right then left.
        if idx + 1 < len(self.blocks) and self.blocks[idx + 1].free:
            nxt = self.blocks.pop(idx + 1)
            block.size += nxt.size
        if idx > 0 and self.blocks[idx - 1].free:
            prev = self.blocks[idx - 1]
            prev.size += block.size
            self.blocks.pop(idx)
            block = prev
        if block.size > self.max_free:
            self.max_free = block.size


@dataclass(frozen=True)
class Allocation:
    """Handle returned by :meth:`CachingAllocator.alloc`."""

    requested: int
    rounded: int
    segment: _Segment = field(repr=False, hash=False, compare=False)
    block: _Block = field(repr=False, hash=False, compare=False)
    tag: str = ""


@dataclass
class AllocStats:
    """Point-in-time and high-water statistics, in bytes."""

    allocated: int = 0
    reserved: int = 0
    peak_allocated: int = 0
    peak_reserved: int = 0
    n_allocs: int = 0
    n_segment_allocs: int = 0
    n_reclaims: int = 0
    n_oom_retries: int = 0


class CachingAllocator:
    """See module docstring.

    Parameters
    ----------
    capacity_bytes:
        Device memory available to this allocator (after OS reservations
        and any externally tracked usage).
    gc_threshold:
        If the free-cached fraction of reserved memory exceeds this value
        after a free, fully-free segments are reclaimed.  ``None``
        disables proactive GC (pure PyTorch default behaviour).
    """

    def __init__(
        self,
        capacity_bytes: int,
        gc_threshold: Optional[float] = 0.5,
        dead_cap_bytes: Optional[int] = None,
    ):
        if capacity_bytes <= 0:
            raise AllocationError("allocator capacity must be positive")
        if gc_threshold is not None and not (0.0 < gc_threshold <= 1.0):
            raise AllocationError("gc_threshold must be in (0, 1] or None")
        if dead_cap_bytes is not None and dead_cap_bytes < 0:
            raise AllocationError("dead_cap_bytes must be >= 0 or None")
        self.capacity = int(capacity_bytes)
        self.gc_threshold = gc_threshold
        #: Reclaim fully-free segments whenever they exceed this many
        #: bytes, regardless of the free *fraction*.  Monotonically
        #: growing allocation streams (KV-cache concat) strand old
        #: segments that the fraction test cannot see behind large live
        #: weights; real allocators release such oversize cached blocks.
        self.dead_cap_bytes = dead_cap_bytes
        self._pools: Dict[str, List[_Segment]] = {"small": [], "large": []}
        self._live: Dict[int, Allocation] = {}
        #: Bytes in fully-free segments, maintained incrementally so the
        #: GC check is O(1) per free.
        self._dead_bytes = 0
        self.stats = AllocStats()

    @property
    def _segments(self) -> List[_Segment]:
        """All segments (tests and reports iterate this)."""
        return self._pools["small"] + self._pools["large"]

    # -- public API --------------------------------------------------------
    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Allocate ``nbytes``; raises :class:`OutOfMemoryError` on failure."""
        if nbytes <= 0:
            raise AllocationError(f"allocation size must be positive, got {nbytes}")
        rounded = _round_up(int(nbytes), ROUND_SMALL)
        pool = "small" if rounded < SMALL_LARGE_THRESHOLD else "large"

        block_seg = self._find_cached(rounded, pool)
        if block_seg is None:
            seg = self._new_segment(rounded, pool)
            block_seg = (seg.blocks[0], seg)
        block, seg = block_seg
        if seg.fully_free:
            self._dead_bytes -= seg.size
        seg.allocate_in(block, rounded)

        handle = Allocation(requested=int(nbytes), rounded=rounded, segment=seg,
                            block=block, tag=tag)
        self._live[id(handle)] = handle
        self.stats.allocated += rounded
        self.stats.n_allocs += 1
        self.stats.peak_allocated = max(self.stats.peak_allocated, self.stats.allocated)
        return handle

    def free(self, handle: Allocation) -> None:
        """Return an allocation to the cache (not to the device)."""
        if self._live.pop(id(handle), None) is None:
            raise AllocationError("free() of unknown or already-freed allocation")
        seg = handle.segment
        seg.release(handle.block)
        if seg.fully_free:
            self._dead_bytes += seg.size
        self.stats.allocated -= handle.rounded
        self._maybe_gc()

    def realloc_grow(self, handle: Allocation, nbytes: int, tag: str = "") -> Allocation:
        """Alloc-new-then-free-old, as ``torch.cat`` on a cache does.

        Both the old and new allocation are briefly live simultaneously,
        which is exactly the churn that inflates peak memory.
        """
        new = self.alloc(nbytes, tag=tag or handle.tag)
        self.free(handle)
        return new

    @property
    def allocated_bytes(self) -> int:
        """Bytes in live allocations."""
        return self.stats.allocated

    @property
    def reserved_bytes(self) -> int:
        """Bytes held from the device (live + cached)."""
        return self.stats.reserved

    def live_allocations(self) -> List[Allocation]:
        """Currently live allocation handles."""
        return list(self._live.values())

    def reset_peaks(self) -> None:
        """Reset high-water marks to current values (jtop baseline reset)."""
        self.stats.peak_allocated = self.stats.allocated
        self.stats.peak_reserved = self.stats.reserved

    # -- internals ----------------------------------------------------------
    def _find_cached(self, rounded: int, pool: str):
        best: Optional[tuple[_Block, _Segment]] = None
        best_size = None
        for seg in self._pools[pool]:
            if seg.max_free < rounded:
                continue
            b = seg.best_fit(rounded)
            if b is not None and (best_size is None or b.size < best_size):
                best = (b, seg)
                best_size = b.size
        return best

    def _segment_size_for(self, rounded: int, pool: str) -> int:
        if pool == "small":
            return SMALL_SEGMENT
        return max(LARGE_SEGMENT_MIN, _round_up(rounded, LARGE_ROUND))

    def _new_segment(self, rounded: int, pool: str) -> _Segment:
        size = self._segment_size_for(rounded, pool)
        if self.stats.reserved + size > self.capacity:
            # Memory pressure: reclaim fully-free segments and retry.
            self.stats.n_oom_retries += 1
            self._reclaim_empty_segments()
            if self.stats.reserved + size > self.capacity:
                raise OutOfMemoryError(
                    requested_bytes=size,
                    available_bytes=self.capacity - self.stats.reserved,
                    context="caching allocator segment",
                )
        seg = _Segment(size=size, pool=pool)
        self._pools[pool].append(seg)
        self._dead_bytes += size  # fully free until allocate_in runs
        self.stats.reserved += size
        self.stats.n_segment_allocs += 1
        self.stats.peak_reserved = max(self.stats.peak_reserved, self.stats.reserved)
        return seg

    def _reclaim_empty_segments(self) -> None:
        reclaimed = False
        for pool, segs in self._pools.items():
            kept: List[_Segment] = []
            for seg in segs:
                if seg.fully_free:
                    self.stats.reserved -= seg.size
                    reclaimed = True
                else:
                    kept.append(seg)
            self._pools[pool] = kept
        if reclaimed:
            self.stats.n_reclaims += 1
        self._dead_bytes = 0

    def _maybe_gc(self) -> None:
        if self.stats.reserved == 0:
            return
        if self.gc_threshold is not None:
            free_frac = 1.0 - self.stats.allocated / self.stats.reserved
            if free_frac > self.gc_threshold:
                self._reclaim_empty_segments()
                return
        if self.dead_cap_bytes is not None and self._dead_bytes > self.dead_cap_bytes:
            self._reclaim_empty_segments()
