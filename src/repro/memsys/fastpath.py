"""Fast-forward allocator trajectories: replay a whole batch in one step.

Profiling the cold study path (``repro profile``) shows ~94% of
simulated-run wall time is allocator churn: every decoded token drives
``2 * n_layers`` ``realloc_grow`` calls through
:class:`~repro.memsys.allocator.CachingAllocator`, each a best-fit scan
plus coalescing bookkeeping.  None of that work depends on simulated
*time* — the allocator op stream of one executor batch is a pure
function of (allocator state, batch geometry).  This module exploits
that:

- :func:`state_fingerprint` captures the exact allocator state as a
  hashable tuple (per-pool block layouts + capacity/GC knobs + counters
  that feed GC decisions).
- :class:`AllocatorMirror` replays the allocator's semantics — 512 B
  rounding, pooled segments, best-fit with the same (size, pool
  position, offset) tie-break, remainder splitting, free coalescing,
  GC-threshold / dead-cap / OOM-retry reclaim — on an indexed copy
  where best-fit is a ``bisect`` instead of a scan.  One decoded token's
  reallocation of every KV tensor is one fused call
  (:meth:`AllocatorMirror.grow_tensors`).  The index keeps a request
  floor: it holds exactly the free blocks of size ``>= floor``.  KV
  tensors and eager buffers only grow, so a free block smaller than
  every request still to come can never be handed out again; before
  each token :func:`simulate_stream` raises the floor to the smallest
  rounded request left, and such blocks leave the index (they stay in
  their segment's free-span maps, which coalescing reads).  Best fit
  over blocks ``>= rounded`` is unchanged, as every request is
  ``>= floor``.
- :func:`TrajectoryCache.delta_for` simulates one batch's entire op
  stream (:class:`StreamSpec`) on a mirror and memoizes the resulting
  :class:`TrajectoryDelta` by ``(fingerprint, stream)``.  Because the
  measurement protocol replays identical batches ``warmup + n_runs``
  times — and study sweeps repeat (model, precision, batch, length)
  combinations across power modes — almost every batch after the first
  is a cache hit applied in O(segments) instead of O(tokens * layers).
- A miss also records the entry for the state its batch leaves behind
  (:meth:`AllocatorMirror.follow_on`), so the same batch run again from
  there is a hit, not a second replay.  It does so only when the batch
  reclaimed nothing and no block it took would have lost to a segment
  it created later (the mirror tracks such takes as a union of size
  intervals); then the rerun draws each segment from those the first
  run left and changes nothing.

A batch's stream is *net-zero*: everything it allocates, it frees.  Two
structural invariants make the delta exact: the allocator never mutates
used blocks (weights are untouched), and free space is always maximal
(no two adjacent free blocks), so freeing everything a batch allocated
restores every surviving pre-batch segment to its exact block layout.
The only lasting effects are reclaimed segments, surviving new (fully
free) segments, counter/watermark updates — precisely what
:class:`TrajectoryDelta` records and :func:`apply_delta` applies.

Bit-exactness is property-tested differentially against the real
allocator in ``tests/memsys/test_fastpath.py`` and end-to-end in
``tests/engine/test_fast_forward.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict
from dataclasses import dataclass, replace
from itertools import accumulate
from typing import Dict, List, Optional, Tuple

from repro.errors import OutOfMemoryError
from repro.memsys.allocator import (
    LARGE_ROUND,
    LARGE_SEGMENT_MIN,
    ROUND_SMALL,
    SMALL_LARGE_THRESHOLD,
    SMALL_SEGMENT,
    CachingAllocator,
    _round_up,
    _Segment,
)

_POOLS = ("small", "large")


def state_fingerprint(allocator: CachingAllocator) -> tuple:
    """Hashable exact snapshot of everything that determines how the
    allocator responds to a future operation stream.

    Includes ``stats.allocated`` because the GC free-fraction test reads
    it.
    """
    layout = tuple(
        tuple(
            (seg.size, tuple((b.offset, b.size, b.free) for b in seg.blocks))
            for seg in allocator._pools[pool]
        )
        for pool in _POOLS
    )
    return (
        layout,
        allocator.capacity,
        allocator.gc_threshold,
        allocator.dead_cap_bytes,
        allocator.stats.allocated,
        allocator.stats.reserved,
        allocator._dead_bytes,
    )


@dataclass(frozen=True)
class StreamSpec:
    """The allocator-visible operation stream of one executor batch.

    Mirrors :meth:`~repro.engine.executor.BatchExecutor.run` exactly:
    workspace+activation alloc, ``2 * n_layers`` KV prefill allocs, an
    optional eager-score buffer, then per decoded token the in-place
    ``realloc_grow`` of every KV tensor (dynamic mode) followed by the
    eager buffer's free-then-alloc, and finally-ordered cleanup (eager,
    KV handles in list order, workspace).
    """

    workspace_bytes: int
    n_kv_tensors: int
    kv_prefill_bytes: int
    #: Per-token per-tensor realloc size (``()`` for static KV).
    kv_step_bytes: Tuple[int, ...]
    eager_prefill_bytes: Optional[int]
    #: Per-token eager-score buffer size (``()`` when eager is off).
    eager_step_bytes: Tuple[int, ...]
    n_tokens: int


@dataclass(frozen=True)
class TrajectoryDelta:
    """Net allocator effect of one batch, applied in O(segments).

    ``oom`` is ``None`` for a clean batch, ``("setup", 0)`` when the
    workspace/KV-prefill/eager setup allocations fail, or
    ``("decode", j)`` when token ``j`` (0-based) fails mid-decode.
    """

    oom: Optional[Tuple[str, int]]
    #: Per pool (small, large): indices of pre-batch segments reclaimed.
    removed: Tuple[Tuple[int, ...], Tuple[int, ...]]
    #: Per pool: sizes of surviving new segments, in creation order
    #: (they are fully free at batch end — the stream is net-zero).
    added: Tuple[Tuple[int, ...], Tuple[int, ...]]
    n_allocs: int
    n_segment_allocs: int
    n_reclaims: int
    n_oom_retries: int
    #: Absolute high-water marks reached during the batch.
    peak_allocated: int
    peak_reserved: int
    reserved_end: int
    dead_bytes_end: int


def apply_delta(allocator: CachingAllocator, delta: TrajectoryDelta) -> None:
    """Apply a memoized batch trajectory to the real allocator."""
    for pool, removed, added in zip(_POOLS, delta.removed, delta.added):
        segs = allocator._pools[pool]
        if removed:
            drop = set(removed)
            segs = [s for i, s in enumerate(segs) if i not in drop]
        for size in added:
            segs.append(_Segment(size=size, pool=pool))
        allocator._pools[pool] = segs
    st = allocator.stats
    st.n_allocs += delta.n_allocs
    st.n_segment_allocs += delta.n_segment_allocs
    st.n_reclaims += delta.n_reclaims
    st.n_oom_retries += delta.n_oom_retries
    st.reserved = delta.reserved_end
    if delta.peak_allocated > st.peak_allocated:
        st.peak_allocated = delta.peak_allocated
    if delta.peak_reserved > st.peak_reserved:
        st.peak_reserved = delta.peak_reserved
    allocator._dead_bytes = delta.dead_bytes_end


def _large_segment(rounded: int) -> int:
    """Size of the large-pool segment a ``rounded``-byte request opens."""
    return max(LARGE_SEGMENT_MIN, _round_up(rounded, LARGE_ROUND))


class _MirrorSegment:
    """Interval view of one segment: free spans by start/end offset plus
    used spans by offset (used only to reconstruct fingerprints and to
    answer the fully-free test in O(1))."""

    __slots__ = ("seq", "size", "pool", "orig_index",
                 "free_starts", "free_ends", "used_blocks")

    def __init__(self, seq: int, size: int, pool: str,
                 orig_index: Optional[int]):
        self.seq = seq
        self.size = size
        self.pool = pool
        self.orig_index = orig_index
        self.free_starts: Dict[int, int] = {}  # start offset -> span size
        self.free_ends: Dict[int, int] = {}    # end offset -> start offset
        self.used_blocks: Dict[int, int] = {}  # start offset -> span size


class AllocatorMirror:
    """Bit-exact replay of :class:`CachingAllocator` on an indexed copy.

    Best-fit: the real allocator scans pool segments in list order and
    keeps the first strictly-smaller fitting block, i.e. it picks the
    lexicographic minimum of ``(block size, segment position, block
    offset)``.  The mirror keeps one sorted list per pool of
    ``(size, segment seq, offset, segment)`` — pool lists are always
    ordered by creation ``seq``, so ``bisect_left`` on ``(rounded, -1,
    -1)`` lands on exactly that minimum.

    Request floor: ``index[pool]`` holds exactly the free blocks of
    size ``>= floor``; smaller ones live only in their segment's
    ``free_starts``/``free_ends``, which coalescing reads.  The floor
    starts at 0 and only :meth:`raise_floor` moves it, upwards.  As
    long as no request rounds below it, best fit over the index is
    best fit over every free block.
    """

    __slots__ = ("capacity", "gc_threshold", "dead_cap_bytes",
                 "allocated", "reserved", "dead_bytes",
                 "peak_allocated", "peak_reserved",
                 "n_allocs", "n_segment_allocs", "n_reclaims",
                 "n_oom_retries", "pools", "index", "floor", "_seq",
                 "_n_orig", "taken_lo", "taken_hi", "overtaken")

    def __init__(self, allocator: CachingAllocator):
        self.capacity = allocator.capacity
        self.gc_threshold = allocator.gc_threshold
        self.dead_cap_bytes = allocator.dead_cap_bytes
        st = allocator.stats
        self.allocated = st.allocated
        self.reserved = st.reserved
        self.dead_bytes = allocator._dead_bytes
        self.peak_allocated = st.allocated
        self.peak_reserved = st.reserved
        self.n_allocs = 0
        self.n_segment_allocs = 0
        self.n_reclaims = 0
        self.n_oom_retries = 0
        self._seq = 0
        self.pools: Dict[str, List[_MirrorSegment]] = {p: [] for p in _POOLS}
        self.index: Dict[str, list] = {p: [] for p in _POOLS}
        self.floor = 0
        #: Sorted disjoint ``[lo, hi)`` intervals: the large segment sizes
        #: that would have beaten a block already taken (see
        #: :meth:`_note_take`); ``overtaken`` is set once a new segment's
        #: size falls in one.
        self.taken_lo: List[int] = []
        self.taken_hi: List[int] = []
        self.overtaken = False
        self._n_orig: Dict[str, int] = {}
        for pool in _POOLS:
            idx = self.index[pool]
            for i, seg in enumerate(allocator._pools[pool]):
                m = _MirrorSegment(self._seq, seg.size, pool, i)
                self._seq += 1
                for b in seg.blocks:
                    if b.free:
                        m.free_starts[b.offset] = b.size
                        m.free_ends[b.offset + b.size] = b.offset
                        idx.append((b.size, m.seq, b.offset, m))
                    else:
                        m.used_blocks[b.offset] = b.size
                self.pools[pool].append(m)
            self._n_orig[pool] = len(self.pools[pool])
            idx.sort()

    # -- operations ---------------------------------------------------------
    def raise_floor(self, floor: int) -> None:
        """Raise the request floor to ``floor`` (never lowers it) and drop
        the indexed free blocks below it.  The caller promises that no
        later request rounds below ``floor``."""
        if floor > self.floor:
            self.floor = floor
            for idx in self.index.values():
                del idx[:bisect_left(idx, (floor,))]

    def alloc(self, nbytes: int) -> tuple:
        rounded = _round_up(int(nbytes), ROUND_SMALL)
        pool = "small" if rounded < SMALL_LARGE_THRESHOLD else "large"
        idx = self.index[pool]
        i = bisect_left(idx, (rounded, -1, -1))
        if i < len(idx):
            size, _, offset, seg = idx.pop(i)
            del seg.free_starts[offset]
            del seg.free_ends[offset + size]
        else:
            seg = self._new_segment(rounded, pool)
            size, offset = seg.size, 0
        if size > LARGE_SEGMENT_MIN:
            self._note_take(_large_segment(rounded), size)
        if not seg.used_blocks:
            self.dead_bytes -= seg.size
        remainder = size - rounded
        if remainder:
            roff = offset + rounded
            seg.free_starts[roff] = remainder
            seg.free_ends[offset + size] = roff
            if remainder >= self.floor:
                insort(idx, (remainder, seg.seq, roff, seg))
        seg.used_blocks[offset] = rounded
        self.allocated += rounded
        self.n_allocs += 1
        if self.allocated > self.peak_allocated:
            self.peak_allocated = self.allocated
        return (seg, offset, rounded, rounded)

    def free(self, handle: tuple) -> None:
        seg, offset, used_size, rounded = handle
        del seg.used_blocks[offset]
        idx = self.index[seg.pool]
        floor = self.floor
        start = offset
        size = used_size
        end = offset + used_size
        right = seg.free_starts.pop(end, None)
        if right is not None:
            del seg.free_ends[end + right]
            if right >= floor:
                self._index_remove(idx, right, seg.seq, end)
            size += right
            end += right
        left_start = seg.free_ends.pop(offset, None)
        if left_start is not None:
            left_size = seg.free_starts.pop(left_start)
            if left_size >= floor:
                self._index_remove(idx, left_size, seg.seq, left_start)
            start = left_start
            size += left_size
        seg.free_starts[start] = size
        seg.free_ends[start + size] = start
        if size >= floor:
            insort(idx, (size, seg.seq, start, seg))
        if not seg.used_blocks:
            self.dead_bytes += seg.size
        self.allocated -= rounded
        self._maybe_gc()

    def grow_tensors(self, kv: List[tuple], nbytes: int) -> None:
        """Reallocate every handle in ``kv`` to ``nbytes``, in list order.

        One decoded token: ``kv[i] = alloc(nbytes)`` then ``free(old)``
        for each ``i``, with :meth:`alloc`, :meth:`free` and
        :meth:`_maybe_gc` inlined.  The rounded size, pool, search key
        and split size are computed once; the counters live in locals
        and are written back before every :meth:`_new_segment` and
        :meth:`_reclaim` call and on exit.  Blocks below the request
        floor stay out of the index, as in :meth:`alloc` and
        :meth:`free`.  An OOM fires before the old handle is released,
        like the real allocator's alloc-new-then-free-old, so it leaves
        ``kv[:i]`` grown, ``kv[i:]`` as they were and the counters as
        :meth:`_new_segment` left them.
        """
        rounded = _round_up(int(nbytes), ROUND_SMALL)
        pool = "small" if rounded < SMALL_LARGE_THRESHOLD else "large"
        idx = self.index[pool]
        key = (rounded, -1, -1)
        fresh = _large_segment(rounded)
        floor = self.floor
        gc_threshold = self.gc_threshold
        dead_cap = self.dead_cap_bytes
        allocated = self.allocated
        reserved = self.reserved
        dead = self.dead_bytes
        peak = self.peak_allocated
        n_allocs = self.n_allocs
        for i, (old, old_offset, old_used, old_rounded) in enumerate(kv):
            # -- alloc: best fit, else a fresh segment ----------------------
            k = bisect_left(idx, key)
            if k < len(idx):
                size, _, offset, seg = idx.pop(k)
                del seg.free_starts[offset]
                del seg.free_ends[offset + size]
            else:
                self.allocated = allocated
                self.dead_bytes = dead
                self.peak_allocated = peak
                self.n_allocs = n_allocs
                seg = self._new_segment(rounded, pool)
                reserved = self.reserved
                dead = self.dead_bytes
                size, offset = seg.size, 0
            if size > fresh:
                self._note_take(fresh, size)
            if not seg.used_blocks:
                dead -= seg.size
            rest = size - rounded
            if rest:
                roff = offset + rounded
                seg.free_starts[roff] = rest
                seg.free_ends[offset + size] = roff
                if rest >= floor:
                    insort(idx, (rest, seg.seq, roff, seg))
            seg.used_blocks[offset] = rounded
            allocated += rounded
            n_allocs += 1
            if allocated > peak:
                peak = allocated
            kv[i] = (seg, offset, rounded, rounded)

            # -- free the old handle, coalescing right then left ------------
            del old.used_blocks[old_offset]
            fidx = idx if old.pool == pool else self.index[old.pool]
            start = old_offset
            size = old_used
            end = old_offset + old_used
            right = old.free_starts.pop(end, None)
            if right is not None:
                del old.free_ends[end + right]
                if right >= floor:
                    del fidx[bisect_left(fidx, (right, old.seq, end))]
                size += right
            left_start = old.free_ends.pop(old_offset, None)
            if left_start is not None:
                left_size = old.free_starts.pop(left_start)
                if left_size >= floor:
                    del fidx[bisect_left(fidx,
                                         (left_size, old.seq, left_start))]
                start = left_start
                size += left_size
            old.free_starts[start] = size
            old.free_ends[start + size] = start
            if size >= floor:
                insort(fidx, (size, old.seq, start, old))
            if not old.used_blocks:
                dead += old.size
            allocated -= old_rounded

            # -- _maybe_gc (``reserved`` is never 0: kv[i] holds a block) --
            if (gc_threshold is not None
                    and 1.0 - allocated / reserved > gc_threshold
                    or dead_cap is not None and dead > dead_cap):
                self.allocated = allocated
                self.dead_bytes = dead
                self._reclaim()
                reserved = self.reserved
                dead = self.dead_bytes
        self.allocated = allocated
        self.dead_bytes = dead
        self.peak_allocated = peak
        self.n_allocs = n_allocs

    # -- internals ----------------------------------------------------------
    def _note_take(self, lo: int, hi: int) -> None:
        """A block of ``hi`` bytes was handed out for a request that
        opens a large segment of ``lo`` bytes.  A fully free large
        segment of any size in ``[lo, hi)`` would have been the better
        fit: add that interval to the union."""
        los, his = self.taken_lo, self.taken_hi
        j = bisect_right(los, lo)
        if j and hi <= his[j - 1] or lo >= hi:
            return  # already covered, or empty
        i = bisect_left(his, lo)
        j = bisect_right(los, hi, j)
        if i < j:
            lo = min(lo, los[i])
            hi = max(hi, his[j - 1])
        los[i:j] = [lo]
        his[i:j] = [hi]

    @staticmethod
    def _index_remove(idx: list, size: int, seq: int, offset: int) -> None:
        i = bisect_left(idx, (size, seq, offset))
        del idx[i]

    def _new_segment(self, rounded: int, pool: str) -> _MirrorSegment:
        if pool == "small":
            size = SMALL_SEGMENT
        else:
            size = _large_segment(rounded)
            i = bisect_right(self.taken_lo, size)
            if i and size < self.taken_hi[i - 1]:
                self.overtaken = True
        if self.reserved + size > self.capacity:
            self.n_oom_retries += 1
            self._reclaim()
            if self.reserved + size > self.capacity:
                raise OutOfMemoryError(
                    requested_bytes=size,
                    available_bytes=self.capacity - self.reserved,
                    context="caching allocator segment",
                )
        seg = _MirrorSegment(self._seq, size, pool, None)
        self._seq += 1
        self.pools[pool].append(seg)
        self.dead_bytes += size  # fully free until the caller carves it
        self.reserved += size
        self.n_segment_allocs += 1
        if self.reserved > self.peak_reserved:
            self.peak_reserved = self.reserved
        return seg

    def _maybe_gc(self) -> None:
        if self.reserved == 0:
            return
        if self.gc_threshold is not None:
            free_frac = 1.0 - self.allocated / self.reserved
            if free_frac > self.gc_threshold:
                self._reclaim()
                return
        if self.dead_cap_bytes is not None and self.dead_bytes > self.dead_cap_bytes:
            self._reclaim()

    def _reclaim(self) -> None:
        reclaimed = False
        for pool in _POOLS:
            idx = self.index[pool]
            kept: List[_MirrorSegment] = []
            for seg in self.pools[pool]:
                if not seg.used_blocks:
                    # Invariant: a segment with no used spans has exactly
                    # one (coalesced) free span covering it.
                    self.reserved -= seg.size
                    reclaimed = True
                    if seg.size >= self.floor:
                        self._index_remove(idx, seg.size, seg.seq, 0)
                else:
                    kept.append(seg)
            self.pools[pool] = kept
        if reclaimed:
            self.n_reclaims += 1
        self.dead_bytes = 0

    # -- views --------------------------------------------------------------
    def fingerprint(self) -> tuple:
        """Same format as :func:`state_fingerprint` (differential tests)."""
        layout = tuple(
            tuple(
                (seg.size, tuple(sorted(
                    [(off, sz, True) for off, sz in seg.free_starts.items()]
                    + [(off, sz, False) for off, sz in seg.used_blocks.items()]
                )))
                for seg in self.pools[pool]
            )
            for pool in _POOLS
        )
        return (layout, self.capacity, self.gc_threshold,
                self.dead_cap_bytes, self.allocated, self.reserved,
                self.dead_bytes)

    def follow_on(self, fingerprint: tuple, delta: TrajectoryDelta
                  ) -> Optional[Tuple[tuple, TrajectoryDelta]]:
        """The cache entry for rerunning the stream from the state it left.

        ``fingerprint`` is the pre-batch state and ``delta`` this
        mirror's replay from it.  Returns ``None`` unless the batch
        reclaimed nothing, created segments ``F``, and took no block
        that a later segment of ``F`` would have beaten
        (``overtaken``).  Then the end state is the start state plus
        ``F``, fully free, and a rerun from there makes the same picks,
        each fresh segment served by the next one of ``F``.  Its GC
        tests read at most the free fraction and dead bytes of this
        batch's final free, which did not reclaim, so the rerun creates
        and reclaims nothing and ends where it started: its delta is
        this one with no segments added or drawn (with no reclaim,
        ``reserved`` never fell, so its peak is ``reserved_end``).  An
        OOM retry either reclaims or ends in an OOM; in a batch that
        ends in one, all of ``F`` was created before it, so the rerun
        meets the same full pool at the same request and fails there.
        """
        if delta.n_reclaims or self.overtaken or not any(delta.added):
            return None
        layout, capacity, gc_threshold, dead_cap, allocated, _, _ = (
            fingerprint)
        layout = tuple(
            segs + tuple((size, ((0, size, True),)) for size in added)
            for segs, added in zip(layout, delta.added))
        return ((layout, capacity, gc_threshold, dead_cap, allocated,
                 delta.reserved_end, delta.dead_bytes_end),
                replace(delta, added=((), ()), n_segment_allocs=0))

    def delta(self, oom: Optional[Tuple[str, int]]) -> TrajectoryDelta:
        removed = []
        added = []
        for pool in _POOLS:
            surviving = {seg.orig_index for seg in self.pools[pool]
                         if seg.orig_index is not None}
            removed.append(tuple(i for i in range(self._n_orig[pool])
                                 if i not in surviving))
            added.append(tuple(seg.size for seg in self.pools[pool]
                               if seg.orig_index is None))
        return TrajectoryDelta(
            oom=oom,
            removed=(removed[0], removed[1]),
            added=(added[0], added[1]),
            n_allocs=self.n_allocs,
            n_segment_allocs=self.n_segment_allocs,
            n_reclaims=self.n_reclaims,
            n_oom_retries=self.n_oom_retries,
            peak_allocated=self.peak_allocated,
            peak_reserved=self.peak_reserved,
            reserved_end=self.reserved,
            dead_bytes_end=self.dead_bytes,
        )


def _grow_by_segment(mirror: AllocatorMirror, kv: List[tuple],
                     steps: Tuple[int, ...], j: int) -> Tuple[int, bool]:
    """Replay KV-growth tokens ``j, j+1, ...`` at segment granularity.

    Applies while every KV tensor is the only used block of its own
    large-pool segment.  Then one token is a best-fit chain over
    fully-free large segments ("holes"): each tensor takes the smallest
    hole that fits (or a fresh segment) at offset 0, and the segment it
    leaves coalesces into a new hole.  The entry test below rules out
    every other free block for this token, and because the tensor size
    only grows it keeps ruling them out for every later one:

    - every tensor has the same rounded size ``S`` and is alone in its
      segment (any offset);
    - the next size ``S'`` is large-pool and ``>= S``;
    - no free block inside a tensor's segment fits ``S'``, and none
      will once the tensor leaves: the widest such segment minus ``S``
      is below ``S'``.  As large segments are at least 20 MiB, this also
      puts ``S'`` above 10 MiB, so a fresh segment leaves a remainder
      below ``S'``;
    - every free block ``>= S'`` lies in a hole that would leave a
      remainder below ``S'``.

    During the run the large-pool index holds only foreign free blocks
    and holes (``(size, seq, 0, seg)``, whose order is the mirror's
    best-fit order) and ``used_blocks`` stays exact, so the mirror's own
    ``_new_segment`` (capacity check, OOM retry, reclaim of both pools)
    and ``_reclaim`` run unchanged.  The free-span dicts of the segments
    it touches, and the tensors' remainders in the index, are written
    once on exit.  The request floor holds throughout: a hole below it
    gets its free-span dicts at once and stays out of the index, and so
    do remainders below it on exit.

    Returns the first token not replayed and whether it ran out of
    memory; ``kv`` holds the (partial) handles either way.  Returns
    ``(j, False)`` without touching anything when the test fails.
    """
    rounded = _round_up(steps[j], ROUND_SMALL)
    size = kv[0][3]
    if size < SMALL_LARGE_THRESHOLD or rounded < size:
        return j, False
    widest = 0
    for seg, _, _, r in kv:
        if r != size or len(seg.used_blocks) != 1:
            return j, False
        if seg.size > widest:
            widest = seg.size
    if widest - size >= rounded:
        return j, False
    idx = mirror.index["large"]
    for free, _, _, seg in idx[bisect_left(idx, (rounded, -1, -1)):]:
        if seg.used_blocks or free - rounded >= rounded:
            return j, False

    held = {h[0] for h in kv}
    idx[:] = [e for e in idx if e[3] not in held]
    entry = list(kv)
    floor = mirror.floor
    gc_threshold = mirror.gc_threshold
    dead_cap = mirror.dead_cap_bytes
    allocated = mirror.allocated
    reserved = mirror.reserved
    dead = mirror.dead_bytes
    peak = mirror.peak_allocated
    n_allocs = 0
    oom = False
    n_tokens = len(steps)
    try:
        while j < n_tokens:
            rounded = _round_up(steps[j], ROUND_SMALL)
            if rounded < size:
                break
            key = (rounded, -1, -1)
            fresh = _large_segment(rounded)
            for i, (old, _, _, old_rounded) in enumerate(kv):
                k = bisect_left(idx, key)
                if k < len(idx):
                    seg_size, _, _, seg = idx.pop(k)
                else:
                    mirror.allocated = allocated
                    mirror.dead_bytes = dead
                    seg = mirror._new_segment(rounded, "large")
                    seg_size = seg.size
                    reserved = mirror.reserved
                    dead = mirror.dead_bytes
                if seg_size > fresh:
                    mirror._note_take(fresh, seg_size)
                dead -= seg_size
                seg.used_blocks[0] = rounded
                kv[i] = (seg, 0, rounded, rounded)
                allocated += rounded
                n_allocs += 1
                if allocated > peak:
                    peak = allocated
                # Free the old tensor: its segment coalesces into a hole.
                old.used_blocks.clear()
                if old.size >= floor:
                    insort(idx, (old.size, old.seq, 0, old))
                else:
                    old.free_starts = {0: old.size}
                    old.free_ends = {old.size: 0}
                dead += old.size
                allocated -= old_rounded
                if (gc_threshold is not None
                        and 1.0 - allocated / reserved > gc_threshold
                        or dead_cap is not None and dead > dead_cap):
                    mirror.allocated = allocated
                    mirror.dead_bytes = dead
                    mirror._reclaim()
                    reserved = mirror.reserved
                    dead = mirror.dead_bytes
            size = rounded
            j += 1
    except OutOfMemoryError:
        # ``_new_segment`` raised after ``allocated`` and ``dead_bytes``
        # were written back (and may have reclaimed since).
        oom = True
    else:
        mirror.allocated = allocated
        mirror.dead_bytes = dead
    mirror.peak_allocated = peak
    mirror.n_allocs += n_allocs

    for free, _, _, seg in idx:
        if not seg.used_blocks:
            seg.free_starts = {0: free}
            seg.free_ends = {free: 0}
    for h, h0 in zip(kv, entry):
        if h is not h0:
            seg, _, used, _ = h
            rest = seg.size - used
            seg.free_starts = {used: rest} if rest else {}
            seg.free_ends = {seg.size: used} if rest else {}
    idx.extend((free, h[0].seq, off, h[0])
               for h in kv for off, free in h[0].free_starts.items()
               if free >= floor)
    idx.sort()
    return j, oom


def _request_floors(stream: StreamSpec) -> List[int]:
    """Per token ``j``, the smallest rounded KV or eager request of
    tokens ``j, j+1, ...`` (0 for a token with neither)."""
    steps = [s for s in (stream.kv_step_bytes, stream.eager_step_bytes)
             if s]
    own = [min((_round_up(s[j], ROUND_SMALL) for s in steps), default=0)
           for j in range(stream.n_tokens)]
    return list(accumulate(reversed(own), min))[::-1]


def simulate_stream(mirror: AllocatorMirror,
                    stream: StreamSpec) -> Optional[Tuple[str, int]]:
    """Run one batch's op stream on a mirror; returns the OOM marker.

    Replays :meth:`BatchExecutor.run` exactly, including the partial
    states an OOM leaves behind (a mid-``append_token`` failure keeps
    the not-yet-grown handles; cleanup frees whatever is live, in the
    executor's ``finally`` order).  KV growth without eager buffers is
    replayed a segment at a time whenever :func:`_grow_by_segment`
    applies, checked again at every token boundary; every other token's
    KV growth is one :meth:`AllocatorMirror.grow_tensors` call.

    Before token ``j`` the mirror's request floor is raised to the
    smallest rounded request of tokens ``j`` onwards: free blocks below
    it can never be handed out again and leave the best-fit index.  As
    tensors and eager buffers only grow, that is most of them.
    """
    oom: Optional[Tuple[str, int]] = None
    ws = None
    kv: List[tuple] = []
    eager = None
    try:
        ws = mirror.alloc(stream.workspace_bytes)
        for _ in range(stream.n_kv_tensors):
            kv.append(mirror.alloc(stream.kv_prefill_bytes))
        if stream.eager_prefill_bytes is not None:
            eager = mirror.alloc(stream.eager_prefill_bytes)
    except OutOfMemoryError:
        oom = ("setup", 0)
    by_segment = (bool(kv) and bool(stream.kv_step_bytes)
                  and not stream.eager_step_bytes)
    floors = _request_floors(stream)
    j = 0
    while oom is None and j < stream.n_tokens:
        mirror.raise_floor(floors[j])
        if by_segment:
            j, out = _grow_by_segment(mirror, kv, stream.kv_step_bytes, j)
            if out:
                oom = ("decode", j)
                break
            if j == stream.n_tokens:
                break
        try:
            if stream.kv_step_bytes:
                mirror.grow_tensors(kv, stream.kv_step_bytes[j])
            if stream.eager_step_bytes:
                buf, eager = eager, None
                mirror.free(buf)
                eager = mirror.alloc(stream.eager_step_bytes[j])
        except OutOfMemoryError:
            oom = ("decode", j)
        j += 1
    if eager is not None:
        mirror.free(eager)
    for h in kv:
        mirror.free(h)
    if ws is not None:
        mirror.free(ws)
    return oom


class TrajectoryCache:
    """Process-global LRU of batch trajectories.

    Keys are ``(state_fingerprint(allocator), stream)`` — exact tuple
    equality, so a hit can only ever replay the exact same trajectory.
    A miss stores its own entry and, when
    :meth:`AllocatorMirror.follow_on` gives one, the entry for rerunning
    the stream from the state the batch leaves (counted in
    ``follow_ons``).  Both count toward ``max_entries``.
    """

    def __init__(self, max_entries: int = 256):
        self.max_entries = max_entries
        self._map: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Follow-on entries recorded by misses.
        self.follow_ons = 0

    def delta_for(self, allocator: CachingAllocator,
                  stream: StreamSpec) -> TrajectoryDelta:
        key = (state_fingerprint(allocator), stream)
        delta = self._map.get(key)
        if delta is not None:
            self.hits += 1
            self._map.move_to_end(key)
            return delta
        self.misses += 1
        mirror = AllocatorMirror(allocator)
        oom = simulate_stream(mirror, stream)
        delta = mirror.delta(oom)
        self._map[key] = delta
        follow = mirror.follow_on(key[0], delta)
        if follow is not None:
            self._map[(follow[0], stream)] = follow[1]
            self.follow_ons += 1
        while len(self._map) > self.max_entries:
            self._map.popitem(last=False)
        return delta

    def clear(self) -> None:
        self._map.clear()
        self.hits = 0
        self.misses = 0
        self.follow_ons = 0

    def __len__(self) -> int:
        return len(self._map)


#: Shared across all executors in the process: study sweeps repeat the
#: same (model, precision, batch, length) geometry across power modes
#: and replayed runs, and those trajectories are identical.
TRAJECTORY_CACHE = TrajectoryCache()
