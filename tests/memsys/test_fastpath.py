"""Differential tests: AllocatorMirror vs the real CachingAllocator.

The fast-forward trajectory machinery is only sound if the mirror is a
*bit-exact* replay of the allocator — same best-fit choice, same
rounding, same coalescing, same GC and OOM-retry decisions, in the same
order.  These tests drive both implementations with identical operation
streams (random fuzz plus the executor's structured batch stream) and
compare full state fingerprints after every step.  The fused per-token
pass (``AllocatorMirror.grow_tensors``) is checked token by token against
a per-tensor ``alloc`` + ``free`` oracle and the real allocator.  The
segment-granularity replay of KV growth is checked the same way, against
the mirror with it switched off and against the real allocator, batch by
batch.  Each follow-on entry a cache miss records is checked against the
real allocator rerunning the stream from the state the batch left.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import accumulate
from typing import List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.memsys import fastpath
from repro.memsys.allocator import ROUND_SMALL, CachingAllocator, _round_up
from repro.memsys.fastpath import (
    TRAJECTORY_CACHE,
    AllocatorMirror,
    StreamSpec,
    TrajectoryCache,
    apply_delta,
    simulate_stream,
    state_fingerprint,
)

KiB = 1024
MiB = 1024 * 1024


def _warmed_allocator(**kwargs) -> CachingAllocator:
    """An allocator with live 'weights' plus cached free segments, so the
    mirror starts from a non-trivial layout."""
    alloc = CachingAllocator(**kwargs)
    alloc.alloc(8 * MiB, tag="weights")
    scratch = [alloc.alloc(n) for n in (3 * MiB, 700 * KiB, 64 * KiB, 5 * MiB)]
    for h in scratch[::2]:
        alloc.free(h)
    return alloc


GC_VARIANTS = [
    pytest.param(dict(gc_threshold=0.5), id="gc-frac"),
    pytest.param(dict(gc_threshold=None), id="gc-off"),
    pytest.param(dict(gc_threshold=None, dead_cap_bytes=4 * MiB),
                 id="dead-cap"),
    pytest.param(dict(gc_threshold=0.9, dead_cap_bytes=16 * MiB),
                 id="both-knobs"),
]


@pytest.mark.parametrize("knobs", GC_VARIANTS)
@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_mirror_matches_real_allocator_step_by_step(seed, knobs):
    rng = random.Random(seed)
    real = _warmed_allocator(capacity_bytes=48 * MiB, **knobs)
    mirror = AllocatorMirror(real)
    assert mirror.fingerprint() == state_fingerprint(real)

    live: List[Tuple[object, tuple]] = []  # (real handle, mirror handle)
    for _ in range(300):
        op = rng.random()
        if op < 0.55 or not live:
            if rng.random() < 0.5:
                size = rng.randint(1, MiB - 1)          # small pool
            else:
                size = rng.randint(MiB, 6 * MiB)        # large pool
            r_exc = m_exc = None
            try:
                rh = real.alloc(size)
            except OutOfMemoryError as e:
                r_exc = e
            try:
                mh = mirror.alloc(size)
            except OutOfMemoryError as e:
                m_exc = e
            assert (r_exc is None) == (m_exc is None), \
                f"OOM divergence on alloc({size})"
            if r_exc is None:
                live.append((rh, mh))
            else:
                assert r_exc.requested_bytes == m_exc.requested_bytes
                assert r_exc.available_bytes == m_exc.available_bytes
        elif op < 0.80:
            rh, mh = live.pop(rng.randrange(len(live)))
            real.free(rh)
            mirror.free(mh)
        else:
            i = rng.randrange(len(live))
            rh, mh = live[i]
            grown = rh.requested + rng.randint(1, 512 * KiB)
            r_exc = m_exc = None
            try:
                rh2 = real.realloc_grow(rh, grown)
            except OutOfMemoryError as e:
                r_exc = e
            grow = [mh]
            try:
                mirror.grow_tensors(grow, grown)
            except OutOfMemoryError as e:
                m_exc = e
            assert (r_exc is None) == (m_exc is None)
            if r_exc is None:
                live[i] = (rh2, grow[0])
            else:
                assert grow == [mh]
        assert mirror.fingerprint() == state_fingerprint(real)

    # Counters the delta folds back must match the real deltas too.
    st = real.stats
    assert mirror.n_oom_retries == st.n_oom_retries
    assert mirror.reserved == st.reserved
    assert mirror.allocated == st.allocated
    assert mirror.peak_allocated == st.peak_allocated
    assert mirror.peak_reserved == st.peak_reserved


def _replay_stream_real(alloc: CachingAllocator,
                        stream: StreamSpec) -> Optional[Tuple[str, int]]:
    """Execute a StreamSpec with real allocator calls, in the executor's
    exact order (including OOM partial states and finally cleanup)."""
    oom: Optional[Tuple[str, int]] = None
    ws = None
    kv = []
    eager = None
    try:
        ws = alloc.alloc(stream.workspace_bytes)
        for _ in range(stream.n_kv_tensors):
            kv.append(alloc.alloc(stream.kv_prefill_bytes))
        if stream.eager_prefill_bytes is not None:
            eager = alloc.alloc(stream.eager_prefill_bytes)
    except OutOfMemoryError:
        oom = ("setup", 0)
    if oom is None:
        for j in range(stream.n_tokens):
            try:
                if stream.kv_step_bytes:
                    per = stream.kv_step_bytes[j]
                    for i in range(stream.n_kv_tensors):
                        kv[i] = alloc.realloc_grow(kv[i], per)
                if stream.eager_step_bytes:
                    buf, eager = eager, None
                    alloc.free(buf)
                    eager = alloc.alloc(stream.eager_step_bytes[j])
            except OutOfMemoryError:
                oom = ("decode", j)
                break
    if eager is not None:
        alloc.free(eager)
    for h in kv:
        alloc.free(h)
    if ws is not None:
        alloc.free(ws)
    return oom


def _batch_stream(n_tokens=12, eager=True) -> StreamSpec:
    base = 256 * KiB
    return StreamSpec(
        workspace_bytes=2 * MiB,
        n_kv_tensors=4,
        kv_prefill_bytes=base,
        kv_step_bytes=tuple(base + (j + 1) * 32 * KiB
                            for j in range(n_tokens)),
        eager_prefill_bytes=MiB if eager else None,
        eager_step_bytes=(tuple(MiB + (j + 1) * 128 * KiB
                                for j in range(n_tokens))
                          if eager else ()),
        n_tokens=n_tokens,
    )


@pytest.mark.parametrize("knobs", GC_VARIANTS)
@pytest.mark.parametrize("eager", [True, False], ids=["eager", "no-eager"])
def test_apply_delta_reproduces_real_end_state(knobs, eager):
    stream = _batch_stream(eager=eager)
    real = _warmed_allocator(capacity_bytes=64 * MiB, **knobs)
    fast = _warmed_allocator(capacity_bytes=64 * MiB, **knobs)
    assert state_fingerprint(real) == state_fingerprint(fast)

    oom = _replay_stream_real(real, stream)
    assert oom is None

    cache = TrajectoryCache()
    delta = cache.delta_for(fast, stream)
    assert delta.oom is None
    apply_delta(fast, delta)

    assert state_fingerprint(fast) == state_fingerprint(real)
    # Counter folding must match the real run too (peaks, op counts).
    for attr in ("n_allocs", "n_segment_allocs", "n_reclaims",
                 "n_oom_retries", "peak_allocated", "peak_reserved",
                 "reserved"):
        assert getattr(fast.stats, attr) == getattr(real.stats, attr), attr


def test_apply_delta_reproduces_oom_end_state():
    # Capacity sized so decode's growing eager buffers blow the budget
    # mid-stream — both paths must OOM at the same token and leave
    # identical end states after cleanup.
    stream = StreamSpec(
        workspace_bytes=2 * MiB,
        n_kv_tensors=4,
        kv_prefill_bytes=256 * KiB,
        kv_step_bytes=tuple(256 * KiB + (j + 1) * 64 * KiB
                            for j in range(40)),
        eager_prefill_bytes=MiB,
        eager_step_bytes=tuple(MiB * (j + 2) for j in range(40)),
        n_tokens=40,
    )
    knobs = dict(capacity_bytes=24 * MiB, gc_threshold=0.5)
    real = CachingAllocator(**knobs)
    fast = CachingAllocator(**knobs)

    oom = _replay_stream_real(real, stream)
    assert oom is not None and oom[0] == "decode"

    delta = TrajectoryCache().delta_for(fast, stream)
    assert delta.oom == oom
    apply_delta(fast, delta)
    assert state_fingerprint(fast) == state_fingerprint(real)
    assert fast.stats.n_oom_retries == real.stats.n_oom_retries


def test_trajectory_cache_hits_on_repeat_state():
    stream = _batch_stream()
    cache = TrajectoryCache()
    a = _warmed_allocator(capacity_bytes=64 * MiB)
    d1 = cache.delta_for(a, stream)
    assert (cache.hits, cache.misses) == (0, 1)
    # Identical state + identical stream -> pure cache hit, same delta.
    b = _warmed_allocator(capacity_bytes=64 * MiB)
    d2 = cache.delta_for(b, stream)
    assert (cache.hits, cache.misses) == (1, 1)
    assert d1 is d2
    # A different state must miss (keys include the full fingerprint).
    c = _warmed_allocator(capacity_bytes=64 * MiB)
    c.alloc(MiB, tag="extra")
    cache.delta_for(c, stream)
    assert (cache.hits, cache.misses) == (1, 2)
    # Each miss created segments without reclaiming: it also recorded the
    # entry for the state it left, so a rerun from there is a hit.
    assert (len(cache), cache.follow_ons) == (4, 2)
    apply_delta(a, d1)
    d3 = cache.delta_for(a, stream)
    assert (cache.hits, cache.misses, len(cache)) == (2, 2, 4)
    assert d3.added == ((), ()) and d3.n_segment_allocs == 0


def test_trajectory_cache_lru_bound_and_clear():
    cache = TrajectoryCache(max_entries=3)
    a = CachingAllocator(64 * MiB)
    for n in range(1, 6):
        cache.delta_for(a, _batch_stream(n_tokens=n))
    # The GC fraction reclaims every new segment at the last free: no
    # follow-on entries.
    assert (len(cache), cache.follow_ons) == (3, 0)
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
    # With GC off, five misses and five follow-on entries under a bound
    # of three: the newest survive, the last stream's follow-on entry
    # among them.
    a = CachingAllocator(64 * MiB, gc_threshold=None)
    for n in range(1, 6):
        cache.delta_for(a, _batch_stream(n_tokens=n))
    assert (len(cache), cache.misses, cache.follow_ons) == (3, 5, 5)
    apply_delta(a, cache.delta_for(a, _batch_stream(n_tokens=5)))
    cache.delta_for(a, _batch_stream(n_tokens=5))
    assert (cache.hits, cache.misses, len(cache)) == (2, 5, 3)
    cache.clear()
    assert (len(cache), cache.follow_ons) == (0, 0)


def test_process_global_cache_exists():
    assert isinstance(TRAJECTORY_CACHE, TrajectoryCache)


# -- segment-granularity KV growth vs the per-reallocation mirror ---------


@dataclass
class _RegimeLog:
    """What happened inside ``_grow_by_segment`` runs that replayed at
    least one token (or hit an OOM)."""

    runs: int = 0
    oom: bool = False
    reclaims: int = 0
    offsets: bool = False
    small_holes: bool = False
    large_holes: bool = False
    exact_fit: bool = False
    entries: List[int] = field(default_factory=list)


@contextmanager
def _watch_regime():
    log = _RegimeLog()
    real = fastpath._grow_by_segment

    def watched(m, kv, steps, j):
        offsets = any(h[1] for h in kv)
        small = any(not s.used_blocks for s in m.pools["small"])
        large = any(not s.used_blocks for s in m.pools["large"])
        reclaims = m.n_reclaims
        j2, oom = real(m, kv, steps, j)
        if j2 > j or oom:
            log.runs += 1
            log.oom |= oom
            log.reclaims += m.n_reclaims - reclaims
            log.offsets |= offsets
            log.small_holes |= small
            log.large_holes |= large
            log.exact_fit |= any(h[2] == h[0].size for h in kv)
            log.entries.append(j)
        return j2, oom

    with mock.patch.object(fastpath, "_grow_by_segment", watched):
        yield log


def _mirror_only(m, kv, steps, j):
    return j, False


def _outcome(allocator: CachingAllocator, stream: StreamSpec,
             by_segment: bool):
    mirror = AllocatorMirror(allocator)
    if by_segment:
        oom = simulate_stream(mirror, stream)
    else:
        with mock.patch.object(fastpath, "_grow_by_segment", _mirror_only):
            oom = simulate_stream(mirror, stream)
    return oom, mirror.fingerprint(), mirror.delta(oom)


@dataclass(frozen=True)
class _Case:
    capacity: int
    gc_threshold: Optional[float]
    dead_cap: Optional[int]
    #: Warm-up allocations (bytes, freed?) that leave weights, partly
    #: used segments and holes in both pools before the batch.
    warm: Tuple[Tuple[int, bool], ...]
    stream: StreamSpec

    def allocator(self) -> CachingAllocator:
        alloc = CachingAllocator(self.capacity, gc_threshold=self.gc_threshold,
                                 dead_cap_bytes=self.dead_cap)
        held = []
        for nbytes, freed in self.warm:
            try:
                h = alloc.alloc(nbytes)
            except OutOfMemoryError:
                continue
            held.append((h, freed))
        for h, freed in held:
            if freed:
                alloc.free(h)
        return alloc


_SIZES = st.one_of(
    st.integers(64 * KiB, MiB - 1),            # small pool
    st.integers(MiB, 12 * MiB),                # packed into 20 MiB
    st.integers(10 * MiB, 40 * MiB),           # one tensor per segment
    st.sampled_from([20 * MiB, 22 * MiB, 24 * MiB, 10 * MiB + 512]),
)


@st.composite
def _cases(draw, eager: bool = False) -> _Case:
    n_tokens = draw(st.integers(1, 40))
    prefill = draw(_SIZES)
    growth = draw(st.sampled_from([512, 2 * KiB, 48 * KiB, 512 * KiB,
                                   MiB, 2 * MiB]))
    jitter = draw(st.integers(0, 511))
    steps = [prefill + (j + 1) * growth - jitter for j in range(n_tokens)]
    # The executor only grows tensors; a dip back to the prefill size
    # makes the segment replay hand back to the mirror mid-stream.
    dip = draw(st.one_of(st.none(), st.integers(0, n_tokens - 1)))
    if dip is not None:
        steps[dip] = prefill
    eager_prefill, eager_steps = None, ()
    if eager:
        # The score buffer grows with the context, like the KV tensors.
        eager_prefill = draw(_SIZES)
        eager_growth = draw(st.sampled_from([2 * KiB, 128 * KiB, MiB]))
        eager_steps = tuple(eager_prefill + (j + 1) * eager_growth
                            for j in range(n_tokens))
    stream = StreamSpec(
        workspace_bytes=draw(_SIZES),
        n_kv_tensors=draw(st.integers(1, 6)),
        kv_prefill_bytes=prefill,
        kv_step_bytes=tuple(steps),
        eager_prefill_bytes=eager_prefill,
        eager_step_bytes=eager_steps,
        n_tokens=n_tokens,
    )
    warm = draw(st.lists(st.tuples(_SIZES, st.booleans()), max_size=8))
    return _Case(
        capacity=draw(st.integers(60, 400)) * MiB,
        gc_threshold=draw(st.one_of(st.none(), st.floats(0.05, 1.0))),
        dead_cap=draw(st.one_of(st.none(),
                                st.integers(0, 120).map(lambda n: n * MiB))),
        warm=tuple(warm),
        stream=stream,
    )


def _check_case(case: _Case) -> _RegimeLog:
    """Segment replay == mirror-only replay == the real allocator."""
    reference = _outcome(case.allocator(), case.stream, by_segment=False)
    with _watch_regime() as log:
        got = _outcome(case.allocator(), case.stream, by_segment=True)
    assert got[0] == reference[0], "OOM marker differs"
    assert got[1] == reference[1], "end-state fingerprint differs"
    assert got[2] == reference[2], "trajectory delta differs"
    real = case.allocator()
    assert _replay_stream_real(real, case.stream) == got[0]
    assert state_fingerprint(real) == got[1]
    return log


def test_segment_replay_matches_mirror_and_allocator():
    """Hypothesis differential: whole batches with and without the
    segment replay, and on the real allocator.  The suite must actually
    exercise the regime and each of its rare paths, or it proves
    nothing."""
    logs: List[Tuple[_Case, _RegimeLog]] = []

    # One tensor outgrowing the small pool 2 MiB a token: it climbs
    # through one 20 MiB segment, so it enters the regime at an offset.
    climb = StreamSpec(
        workspace_bytes=64 * KiB, n_kv_tensors=1, kv_prefill_bytes=64 * KiB,
        kv_step_bytes=tuple(64 * KiB + (j + 1) * 2 * MiB for j in range(6)),
        eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=6)

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_cases())
    @example(case=_Case(capacity=60 * MiB, gc_threshold=None,
                        dead_cap=None, warm=(), stream=climb))
    # Four tensors climbing 2 MiB a token past a 34 MiB hole: one ends
    # up alone inside it with small free blocks either side, and must
    # not enter the regime while the hole it leaves could be shared.
    @example(case=_Case(
        capacity=400 * MiB, gc_threshold=None, dead_cap=None,
        warm=((10486721, False), (20 * MiB, False), (34 * MiB, True)),
        stream=StreamSpec(
            workspace_bytes=1048634, n_kv_tensors=4,
            kv_prefill_bytes=659461,
            kv_step_bytes=tuple(659461 + (j + 1) * 2 * MiB - 511
                                for j in range(10)),
            eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=10)))
    # Two tensors packed into a freed 24 MiB segment move out one by
    # one and leave it whole: a hole that would keep a 13 MiB remainder
    # for the second tensor, so the regime must wait.  The dead cap
    # makes the packing visible in the end state.
    @example(case=_Case(
        capacity=400 * MiB, gc_threshold=None, dead_cap=30 * MiB,
        warm=((23 * MiB, True),),
        stream=StreamSpec(
            workspace_bytes=64 * KiB, n_kv_tensors=2,
            kv_prefill_bytes=10 * MiB,
            kv_step_bytes=tuple(10 * MiB + (j + 1) * 512 * KiB
                                for j in range(4)),
            eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=4)))
    # A tensor leaving a small-pool segment for the large pool: its old
    # segment is not a large-pool hole, so the regime must wait.
    @example(case=_Case(
        capacity=400 * MiB, gc_threshold=None, dead_cap=MiB, warm=(),
        stream=StreamSpec(
            workspace_bytes=20 * MiB, n_kv_tensors=1,
            kv_prefill_bytes=900 * KiB,
            kv_step_bytes=(1200 * KiB, 1500 * KiB, 1800 * KiB),
            eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=3)))
    # The examples above and below reach every gate on their own:
    # Hypothesis draws constants from the loaded source, so what the
    # generated examples reach changes with the import set.  A 24 MiB
    # tensor outgrowing a full 60 MiB pool: an OOM on an exact fit.
    @example(case=_Case(
        capacity=60 * MiB, gc_threshold=None, dead_cap=None, warm=(),
        stream=StreamSpec(
            workspace_bytes=24 * MiB, n_kv_tensors=1,
            kv_prefill_bytes=24 * MiB, kv_step_bytes=(24 * MiB + 48 * KiB,),
            eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=1)))
    # Six tensors moving out of their segments under a 5% GC fraction.
    @example(case=_Case(
        capacity=280 * MiB, gc_threshold=0.05, dead_cap=None, warm=(),
        stream=StreamSpec(
            workspace_bytes=10 * MiB + 512, n_kv_tensors=6,
            kv_prefill_bytes=10 * MiB + 512,
            kv_step_bytes=(10 * MiB + 512 * KiB,),
            eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=1)))
    # A tensor climbing 2 MiB a token dips back to its prefill size
    # mid-stream: it leaves the regime and enters it again, with the
    # dead cap reclaiming the segments it outgrows.
    @example(case=_Case(
        capacity=160 * MiB, gc_threshold=None, dead_cap=90 * MiB, warm=(),
        stream=StreamSpec(
            workspace_bytes=26 * MiB, n_kv_tensors=1,
            kv_prefill_bytes=10 * MiB,
            kv_step_bytes=tuple(10 * MiB if j == 3
                                else 10 * MiB + (j + 1) * 2 * MiB - 400
                                for j in range(11)),
            eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=11)))
    def run(case):
        logs.append((case, _check_case(case)))

    run()
    entered = [(c, lg) for c, lg in logs if lg.runs]
    assert len(entered) >= len(logs) // 4
    seen = {
        "oom": any(lg.oom for _, lg in entered),
        "dead-cap reclaim": any(lg.reclaims and c.gc_threshold is None
                                and c.dead_cap is not None
                                for c, lg in entered),
        "gc-fraction reclaim": any(lg.reclaims and c.dead_cap is None
                                   and c.gc_threshold is not None
                                   for c, lg in entered),
        "small-pool holes": any(lg.small_holes for _, lg in entered),
        "large-pool holes": any(lg.large_holes for _, lg in entered),
        "non-zero offsets": any(lg.offsets for _, lg in entered),
        "exact fits": any(lg.exact_fit for _, lg in entered),
        "re-entry": any(len(lg.entries) > 1 for _, lg in entered),
    }
    assert all(seen.values()), seen


def test_segment_replay_oom_mid_token_keeps_partial_handles():
    """Fresh 22 MiB segments run out after the first tensors of a token:
    the marker, the grown and not-yet-grown handles and the cleanup
    must all match the mirror."""
    stream = StreamSpec(
        workspace_bytes=MiB, n_kv_tensors=4, kv_prefill_bytes=20 * MiB,
        kv_step_bytes=tuple(20 * MiB + (j + 1) * 512 * KiB
                            for j in range(8)),
        eager_prefill_bytes=None, eager_step_bytes=(), n_tokens=8)
    case = _Case(capacity=150 * MiB, gc_threshold=None, dead_cap=None,
                 warm=((3 * MiB, False), (40 * MiB, True)), stream=stream)
    log = _check_case(case)
    assert log.runs and log.oom
    oom = _outcome(case.allocator(), stream, by_segment=True)[0]
    assert oom is not None and oom[0] == "decode"


def test_eager_streams_stay_on_the_mirror():
    stream = _batch_stream(eager=True)
    with _watch_regime() as log:
        simulate_stream(AllocatorMirror(CachingAllocator(256 * MiB)), stream)
    assert log.runs == 0


# -- the fused token pass vs per-tensor alloc + free ----------------------


def _grow_oracle(mirror: AllocatorMirror, kv: List[tuple],
                 nbytes: int) -> None:
    """What ``grow_tensors`` must equal: alloc-new-then-free-old, one
    tensor at a time, through the mirror's own ``alloc`` and ``free``."""
    for i, old in enumerate(kv):
        kv[i] = mirror.alloc(nbytes)
        mirror.free(old)


_COUNTERS = ("allocated", "reserved", "dead_bytes", "peak_allocated",
             "peak_reserved", "n_allocs", "n_segment_allocs", "n_reclaims",
             "n_oom_retries")


def _mirror_view(m: AllocatorMirror, kv: List[tuple]) -> tuple:
    """Everything observable on a mirror: fingerprint, counters, the
    best-fit index and the handles (segments by creation seq)."""
    return (m.fingerprint(),
            tuple(getattr(m, c) for c in _COUNTERS),
            {p: [e[:3] for e in m.index[p]] for p in m.index},
            [(h[0].seq,) + h[1:] for h in kv])


def _mirror_handles(m: AllocatorMirror, kv: List[tuple]) -> list:
    return [(h[0].pool, m.pools[h[0].pool].index(h[0])) + h[1:] for h in kv]


def _real_handles(a: CachingAllocator, kv: list) -> list:
    return [(h.segment.pool, a._pools[h.segment.pool].index(h.segment),
             h.block.offset, h.block.size, h.rounded) for h in kv]


@dataclass
class _TokenLog:
    """Rare paths the oracle walked through (the fused pass must match
    it on each)."""

    oom_mid_token: bool = False
    gc_frac_mid_token: bool = False
    dead_cap_mid_token: bool = False
    cross_pool_first: bool = False
    exact_fit: bool = False
    stirred: bool = False


@dataclass(frozen=True)
class _Tokens:
    """A KV prefill, then per-token reallocation of every tensor, with an
    optional eager-style buffer freed and re-allocated between tokens."""

    case: _Case
    n_tensors: int
    prefill: int
    steps: Tuple[int, ...]
    stir: Tuple[Optional[int], ...]


@st.composite
def _token_runs(draw) -> _Tokens:
    case = draw(_cases())
    n = len(case.stream.kv_step_bytes)
    steps = list(case.stream.kv_step_bytes)
    # Any size, not only growth: tokens may shrink or cross pools.
    for j in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        steps[j] = draw(_SIZES)
    stir = draw(st.lists(st.one_of(st.none(), _SIZES), min_size=n,
                         max_size=n))
    return _Tokens(case=case, n_tensors=case.stream.n_kv_tensors,
                   prefill=case.stream.kv_prefill_bytes,
                   steps=tuple(steps), stir=tuple(stir))


def _check_tokens(run: _Tokens) -> _TokenLog:
    """Fused pass == oracle == real allocator after every token, in OOM
    partial states and after cleanup."""
    log = _TokenLog()
    real = run.case.allocator()
    fused, oracle = AllocatorMirror(real), AllocatorMirror(real)
    real.reset_peaks()
    base = (real.stats.n_allocs, real.stats.n_segment_allocs,
            real.stats.n_reclaims, real.stats.n_oom_retries)
    try:
        kv_r = [real.alloc(run.prefill) for _ in range(run.n_tensors)]
    except OutOfMemoryError:
        return log
    kv_f = [fused.alloc(run.prefill) for _ in range(run.n_tensors)]
    kv_o = [oracle.alloc(run.prefill) for _ in range(run.n_tensors)]
    buf = None
    for j, nbytes in enumerate(run.steps):
        before = list(kv_o)
        n_reclaims = oracle.n_reclaims
        oom = None
        for i, old in enumerate(kv_o):
            try:
                kv_o[i] = oracle.alloc(nbytes)
            except OutOfMemoryError as e:
                oom = (i, e.requested_bytes, e.available_bytes)
                log.oom_mid_token |= i > 0
                break
            log.cross_pool_first |= j == 0 and old[0].pool != kv_o[i][0].pool
            seg, offset, used, _ = kv_o[i]
            # An exact fit: no free block split off.
            log.exact_fit |= offset + used not in seg.free_starts
            oracle.free(old)
            if oracle.n_reclaims > n_reclaims and i < run.n_tensors - 1:
                c = run.case
                log.gc_frac_mid_token |= c.dead_cap is None
                log.dead_cap_mid_token |= c.gc_threshold is None
            n_reclaims = oracle.n_reclaims
        oom_f = oom_r = None
        try:
            fused.grow_tensors(kv_f, nbytes)
        except OutOfMemoryError as e:
            oom_f = (e.requested_bytes, e.available_bytes)
        for i in range(run.n_tensors):
            try:
                kv_r[i] = real.realloc_grow(kv_r[i], nbytes)
            except OutOfMemoryError as e:
                oom_r = (i, e.requested_bytes, e.available_bytes)
                break
        assert oom_r == oom
        assert oom_f == (oom and oom[1:])
        assert _mirror_view(fused, kv_f) == _mirror_view(oracle, kv_o)
        if oom is not None:
            # Grown handles first, the not-yet-grown ones untouched.
            assert kv_o[oom[0]:] == before[oom[0]:]
        assert _mirror_handles(fused, kv_f) == _real_handles(real, kv_r)
        assert fused.fingerprint() == state_fingerprint(real)
        assert (fused.peak_allocated, fused.peak_reserved) == (
            real.stats.peak_allocated, real.stats.peak_reserved)
        assert (fused.n_allocs, fused.n_segment_allocs, fused.n_reclaims,
                fused.n_oom_retries) == tuple(
            getattr(real.stats, c) - b for c, b in zip(
                ("n_allocs", "n_segment_allocs", "n_reclaims",
                 "n_oom_retries"), base))
        if oom is not None:
            break
        if buf is not None:
            for m, h in ((fused, buf[0]), (oracle, buf[1]), (real, buf[2])):
                m.free(h)
            buf = None
        if run.stir[j] is not None:
            log.stirred = True
            got = []
            for m in (fused, oracle, real):
                try:
                    got.append(m.alloc(run.stir[j]))
                except OutOfMemoryError:
                    pass
            if len(got) < 3:
                assert not got, "OOM divergence on the stirring buffer"
                break
            buf = tuple(got)
    for k, (m, kv) in enumerate(((fused, kv_f), (oracle, kv_o),
                                 (real, kv_r))):
        if buf is not None:
            m.free(buf[k])
        for h in kv:
            m.free(h)
    assert _mirror_view(fused, []) == _mirror_view(oracle, [])
    assert fused.fingerprint() == state_fingerprint(real)
    return log


def test_fused_token_pass_matches_oracle_and_allocator():
    """Hypothesis differential of ``grow_tensors``.  The suite must reach
    every rare path of a token, or it proves nothing."""
    logs: List[_TokenLog] = []

    def tokens(gc_threshold, dead_cap, steps, capacity=400 * MiB, warm=(),
               n_tensors=1, prefill=10 * MiB, stir=None):
        unused = StreamSpec(workspace_bytes=1, n_kv_tensors=1,
                            kv_prefill_bytes=1, kv_step_bytes=(),
                            eager_prefill_bytes=None, eager_step_bytes=(),
                            n_tokens=0)
        case = _Case(capacity=capacity, gc_threshold=gc_threshold,
                     dead_cap=dead_cap, warm=warm, stream=unused)
        return _Tokens(case=case, n_tensors=n_tensors, prefill=prefill,
                       steps=steps, stir=stir or (None,) * len(steps))

    @settings(max_examples=250, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=_token_runs())
    # One 10 MiB tensor moves to a fresh segment and leaves its old
    # 20 MiB segment fully free: exactly at the GC knob's boundary.
    # Free fraction 1 - 20/40 == 0.5 and 20 MiB dead == the cap: no
    # reclaim, as both tests are strict.
    @example(run=tokens(0.5, None, (20 * MiB,)))
    @example(run=tokens(None, 20 * MiB, (12 * MiB,)))
    # The examples below reach every gate on their own (the generated
    # ones change with the import set).  Four tensors leave the small
    # pool for freed large segments and the GC fraction reclaims one
    # mid-token; a stirring buffer follows.
    @example(run=tokens(0.5, None, (800 * KiB,), capacity=300 * MiB,
                        warm=((11 * MiB, True), (23 * MiB, True),
                              (200 * KiB, True)),
                        n_tensors=4, prefill=9 * MiB, stir=(64 * KiB,)))
    # Two 20 MiB tensors swap segments with no dead bytes allowed.
    @example(run=tokens(None, 0, (20 * MiB,), capacity=140 * MiB,
                        n_tensors=2, prefill=20 * MiB))
    # Six tensors growing to 10 MiB run out of a 61 MiB pool mid-token.
    @example(run=tokens(None, None, (10 * MiB,), capacity=61 * MiB,
                        warm=((11 * MiB, True), (7 * MiB, True),
                              (256 * KiB, False)),
                        n_tensors=6, prefill=3 * MiB))
    def check(run):
        logs.append(_check_tokens(run))

    check()
    seen = {name: any(getattr(lg, name) for lg in logs)
            for name in _TokenLog.__dataclass_fields__}
    assert all(seen.values()), seen


def test_eager_streams_match_oracle_and_allocator():
    """Whole eager-buffer batches (the KV part on the fused pass, the
    buffer on ``alloc``/``free``) against the per-tensor oracle and the
    real allocator."""
    ooms = []

    @settings(max_examples=120, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=_cases(eager=True))
    def check(case):
        got = _outcome(case.allocator(), case.stream, by_segment=True)
        with mock.patch.object(AllocatorMirror, "grow_tensors", _grow_oracle):
            reference = _outcome(case.allocator(), case.stream,
                                 by_segment=True)
        assert got == reference
        real = case.allocator()
        assert _replay_stream_real(real, case.stream) == got[0]
        assert state_fingerprint(real) == got[1]
        ooms.append(got[0])

    check()
    assert any(o is None for o in ooms)
    assert any(o is not None and o[0] == "decode" for o in ooms)


# -- the request floor on the best-fit index ------------------------------


def _check_index(m: AllocatorMirror) -> None:
    """``index[pool]`` is exactly the sorted free blocks ``>= floor`` of
    the pool's live segments: none missing, none stale."""
    for pool in ("small", "large"):
        segs = {seg.seq: seg for seg in m.pools[pool]}
        want = sorted((size, seq, off) for seq, seg in segs.items()
                      for off, size in seg.free_starts.items()
                      if size >= m.floor)
        assert [e[:3] for e in m.index[pool]] == want, pool
        assert all(segs[e[1]] is e[3] for e in m.index[pool]), pool


def _suffix_min(sizes: List[int]) -> List[int]:
    return list(accumulate(reversed(sizes), min))[::-1]


@dataclass
class _FloorLog:
    """Floor paths one simulated batch walked through."""

    dropped_on_raise: bool = False
    below_floor_coalesce: bool = False
    below_floor_reclaim: bool = False
    eager_sets_floor: bool = False
    segment_regime_with_floor: bool = False
    below_floor_hole: bool = False


def _below_floor_neighbours(m: AllocatorMirror, handles) -> list:
    out = []
    for seg, offset, used, _ in handles:
        right = seg.free_starts.get(offset + used)
        if right is not None and right < m.floor:
            out.append((seg, offset + used, right))
        left = seg.free_ends.get(offset)
        if left is not None and seg.free_starts[left] < m.floor:
            out.append((seg, left, seg.free_starts[left]))
    return out


@contextmanager
def _watch_floor(log: _FloorLog):
    """Checks the index invariant at every floor raise (a token
    boundary) and logs which floor paths ran."""
    real = {name: getattr(AllocatorMirror, name)
            for name in ("raise_floor", "free", "grow_tensors", "_reclaim")}
    by_segment = fastpath._grow_by_segment

    def raise_floor(m, floor):
        _check_index(m)
        n = sum(map(len, m.index.values()))
        real["raise_floor"](m, floor)
        log.dropped_on_raise |= sum(map(len, m.index.values())) < n
        _check_index(m)

    def coalescing(name):
        def call(m, *args):
            handles = args[0] if name == "grow_tensors" else [args[0]]
            low = _below_floor_neighbours(m, handles)
            try:
                return real[name](m, *args)
            finally:
                log.below_floor_coalesce |= any(
                    seg.free_starts.get(off) != size
                    and seg in m.pools[seg.pool] for seg, off, size in low)
        return call

    def reclaim(m):
        log.below_floor_reclaim |= any(
            not seg.used_blocks and seg.size < m.floor
            for pool in m.pools.values() for seg in pool)
        real["_reclaim"](m)

    def grow_by_segment(m, kv, steps, j):
        j2, oom = by_segment(m, kv, steps, j)
        if j2 > j or oom:
            log.segment_regime_with_floor |= m.floor > 0
            log.below_floor_hole |= any(
                not seg.used_blocks and seg.size < m.floor
                for seg in m.pools["large"])
        return j2, oom

    with mock.patch.multiple(
            AllocatorMirror, raise_floor=raise_floor,
            free=coalescing("free"), grow_tensors=coalescing("grow_tensors"),
            _reclaim=reclaim), \
            mock.patch.object(fastpath, "_grow_by_segment", grow_by_segment):
        yield


def _check_floor_case(case: _Case) -> _FloorLog:
    """The floored replay == the replay with the floor pinned at 0 == the
    real allocator, on the OOM marker, end state, delta and counters."""
    log = _FloorLog()
    stream = case.stream
    kv = [_round_up(n, ROUND_SMALL) for n in stream.kv_step_bytes]
    eager = [_round_up(n, ROUND_SMALL) for n in stream.eager_step_bytes]
    if kv and eager:
        both = _suffix_min([min(a, b) for a, b in zip(kv, eager)])
        log.eager_sets_floor = both != _suffix_min(kv)

    def outcome(watch: bool):
        mirror = AllocatorMirror(case.allocator())
        if watch:
            with _watch_floor(log):
                oom = simulate_stream(mirror, stream)
            _check_index(mirror)
        else:
            with mock.patch.object(AllocatorMirror, "raise_floor",
                                   lambda m, floor: None):
                oom = simulate_stream(mirror, stream)
            assert mirror.floor == 0
        return (oom, mirror.fingerprint(), mirror.delta(oom),
                tuple(getattr(mirror, c) for c in _COUNTERS))

    got, pinned = outcome(watch=True), outcome(watch=False)
    assert got[0] == pinned[0], "OOM marker differs"
    assert got[1] == pinned[1], "end-state fingerprint differs"
    assert got[2] == pinned[2], "trajectory delta differs"
    assert got[3] == pinned[3], "counters differ"
    real = case.allocator()
    real.reset_peaks()
    before = {c: getattr(real.stats, c) for c in
              ("n_allocs", "n_segment_allocs", "n_reclaims", "n_oom_retries")}
    assert _replay_stream_real(real, stream) == got[0]
    assert state_fingerprint(real) == got[1]
    delta = got[2]
    assert (delta.peak_allocated, delta.peak_reserved, delta.reserved_end,
            delta.dead_bytes_end) == (
        real.stats.peak_allocated, real.stats.peak_reserved,
        real.stats.reserved, real._dead_bytes)
    assert (delta.n_allocs, delta.n_segment_allocs, delta.n_reclaims,
            delta.n_oom_retries) == tuple(
        getattr(real.stats, c) - b for c, b in before.items())
    return log


def test_request_floor_matches_unfloored_mirror_and_allocator():
    """Hypothesis differential of the request floor: whole batches with
    the floor, with it pinned at 0, and on the real allocator, with the
    index invariant checked at every token boundary.  The suite must
    reach every floor path, or it proves nothing."""
    logs: List[_FloorLog] = []

    def growth(n_tensors, prefill, step, dead_cap=None, warm=(),
               eager=None):
        steps = tuple(prefill + (j + 1) * step for j in range(6))
        eager_steps = (() if eager is None else
                       tuple(eager + (j + 1) * 2 * KiB for j in range(6)))
        return _Case(capacity=400 * MiB, gc_threshold=None,
                     dead_cap=dead_cap, warm=warm, stream=StreamSpec(
                         workspace_bytes=64 * KiB, n_kv_tensors=n_tensors,
                         kv_prefill_bytes=prefill, kv_step_bytes=steps,
                         eager_prefill_bytes=eager,
                         eager_step_bytes=eager_steps, n_tokens=6))

    @settings(max_examples=250, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.booleans().flatmap(lambda eager: _cases(eager=eager)))
    # Two full 20 MiB segments' tensors grow into fresh 22 MiB ones in
    # the segment regime, leaving 20 MiB holes below the floor; with a
    # zero dead cap each such hole is reclaimed at once.
    @example(case=growth(2, 20 * MiB, 48 * KiB))
    @example(case=growth(2, 20 * MiB, 48 * KiB, dead_cap=0))
    # KV tensors packed in the small pool beside a smaller eager buffer,
    # whose requests set the floor.
    @example(case=growth(4, 256 * KiB, 32 * KiB, warm=((3 * MiB, True),),
                         eager=64 * KiB))
    def check(case):
        logs.append(_check_floor_case(case))

    check()
    seen = {name: any(getattr(lg, name) for lg in logs)
            for name in _FloorLog.__dataclass_fields__}
    assert all(seen.values()), seen


# -- follow-on entries: a miss also records the state it leaves ----------


@dataclass
class _FollowLog:
    """Whether a miss recorded a follow-on entry (after no OOM, a setup
    OOM or a decode OOM) and, if not, what refused it: a reclaim, a
    reclaim by an OOM retry, a take a later segment would have beaten,
    or no new segment.  Each ``no_*`` flag is set only when that was the
    one reason."""

    recorded: bool = False
    recorded_setup_oom: bool = False
    recorded_decode_oom: bool = False
    no_reclaim: bool = False
    no_oom_retry: bool = False
    no_overtaken: bool = False
    no_new_segments: bool = False


def _check_follow_on(case: _Case) -> _FollowLog:
    """Miss from the case's state, then rerun the stream from the state
    the batch left: a hit exactly when a follow-on entry was recorded or
    that state is the start state, and either way the delta equals the
    real allocator's rerun."""
    stream = case.stream
    cache = TrajectoryCache()
    start = case.allocator()
    first = cache.delta_for(start, stream)
    recorded = cache.follow_ons
    assert recorded in (0, 1) and len(cache) == 1 + recorded

    def left() -> CachingAllocator:
        alloc = case.allocator()
        apply_delta(alloc, first)
        return alloc

    fast = left()
    same = state_fingerprint(fast) == state_fingerprint(start)
    rerun = cache.delta_for(fast, stream)
    assert cache.hits == (recorded or same), "key != fingerprint"
    apply_delta(fast, rerun)
    real = left()
    real.reset_peaks()
    before = {c: getattr(real.stats, c) for c in
              ("n_allocs", "n_segment_allocs", "n_reclaims", "n_oom_retries")}
    assert _replay_stream_real(real, stream) == rerun.oom
    assert state_fingerprint(fast) == state_fingerprint(real)
    assert (rerun.peak_allocated, rerun.peak_reserved, rerun.reserved_end,
            rerun.dead_bytes_end) == (
        real.stats.peak_allocated, real.stats.peak_reserved,
        real.stats.reserved, real._dead_bytes)
    assert (rerun.n_allocs, rerun.n_segment_allocs, rerun.n_reclaims,
            rerun.n_oom_retries) == tuple(
        getattr(real.stats, c) - b for c, b in before.items())

    oom = first.oom and first.oom[0]
    if recorded:
        assert rerun.added == ((), ()) and rerun.removed == ((), ())
        return _FollowLog(recorded=oom is None,
                          recorded_setup_oom=oom == "setup",
                          recorded_decode_oom=oom == "decode")
    reclaim, retry = first.n_reclaims > 0, first.n_oom_retries > 0
    added = any(first.added)
    return _FollowLog(
        no_reclaim=reclaim and added and not retry,
        no_oom_retry=retry and added and oom is None,
        no_overtaken=added and not reclaim,
        no_new_segments=not (added or reclaim))


def test_follow_on_entries_match_allocator():
    """Hypothesis differential of follow-on entries: every entry a miss
    records must be what the real allocator does when the stream runs
    again from the state the batch left.  The suite must reach every
    gate, or it proves nothing."""
    logs: List[_FollowLog] = []

    def batch(ws, prefill, steps=(), n_kv=1, warm=(), eager=None,
              eager_steps=(), capacity=400 * MiB, dead_cap=None):
        return _Case(capacity=capacity, gc_threshold=None,
                     dead_cap=dead_cap, warm=warm, stream=StreamSpec(
                         workspace_bytes=ws, n_kv_tensors=n_kv,
                         kv_prefill_bytes=prefill, kv_step_bytes=steps,
                         eager_prefill_bytes=eager,
                         eager_step_bytes=eager_steps, n_tokens=len(steps)))

    @settings(max_examples=250, deadline=None, database=None,
              derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(case=st.booleans().flatmap(lambda eager: _cases(eager=eager)))
    # The explicit examples reach every gate on their own.  Two tensors
    # growing into fresh segments from an empty allocator: recorded.
    @example(case=batch(64 * KiB, 20 * MiB, (22 * MiB, 24 * MiB), n_kv=2))
    # Setup runs out at the second 20 MiB tensor, and decode at the
    # first 40 MiB one, with nothing to reclaim: both batches leave
    # their start state plus fully free segments, and a rerun from there
    # fails at the same request.
    @example(case=batch(24 * MiB, 20 * MiB, n_kv=2, capacity=60 * MiB))
    @example(case=batch(64 * KiB, 24 * MiB, (40 * MiB,), capacity=60 * MiB))
    # A 32 MiB dead cap reclaims two outgrown segments mid-stream; the
    # 30 MiB and small-pool segments survive, but a rerun would put the
    # 22 MiB prefill in the 30 MiB one and need a fresh 26 MiB segment.
    @example(case=batch(64 * KiB, 22 * MiB, (26 * MiB, 30 * MiB),
                        dead_cap=32 * MiB))
    # A 34 MiB tensor finds only a 30 MiB hole in a 60 MiB pool: the OOM
    # retry reclaims the hole.
    @example(case=batch(64 * KiB, 34 * MiB, capacity=60 * MiB,
                        warm=((30 * MiB, True),)))
    # A 30 MiB workspace takes a 40 MiB hole (``alloc``), then a 34 MiB
    # tensor opens a segment that a rerun would give the workspace; the
    # rerun's 8 MiB eager buffer then fits nowhere.
    @example(case=batch(30 * MiB, 34 * MiB, warm=((40 * MiB, True),),
                        eager=8 * MiB))
    # The same order through the fused token pass: a 12 MiB tensor takes
    # the 40 MiB hole, then a 29 MiB eager buffer opens a 30 MiB
    # segment.
    @example(case=batch(64 * KiB, 512 * KiB, (12 * MiB, 20 * MiB),
                        warm=((40 * MiB, True),), eager=64 * KiB,
                        eager_steps=(29 * MiB, 30 * MiB)))
    # And through the segment replay: two 20 MiB tensors in exact holes
    # grow to 24 MiB; the first takes a 40 MiB hole, the second opens a
    # 24 MiB segment.
    @example(case=batch(64 * KiB, 20 * MiB, (24 * MiB, 26 * MiB), n_kv=2,
                        warm=((20 * MiB, True), (20 * MiB, True),
                              (40 * MiB, True))))
    # Everything fits in cached segments: no segment to record.
    @example(case=batch(64 * KiB, 10 * MiB, (10 * MiB + 48 * KiB,),
                        warm=((40 * MiB, True), (512 * KiB, True))))
    def check(case):
        logs.append(_check_follow_on(case))

    check()
    seen = {name: any(getattr(lg, name) for lg in logs)
            for name in _FollowLog.__dataclass_fields__}
    assert all(seen.values()), seen
