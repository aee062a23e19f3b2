"""Property-based allocator invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.allocator import CachingAllocator
from repro.units import gib


@st.composite
def alloc_scripts(draw):
    """A random sequence of alloc/free operations (sizes in bytes)."""
    n = draw(st.integers(min_value=1, max_value=60))
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(("alloc", draw(st.integers(min_value=1, max_value=64 * 2**20))))
        else:
            ops.append(("free", draw(st.integers(min_value=0, max_value=100))))
    return ops


@given(script=alloc_scripts())
@settings(max_examples=80, deadline=None)
def test_accounting_invariants_hold_under_any_script(script):
    a = CachingAllocator(gib(8))
    live = []
    expected_live = 0
    for op, arg in script:
        if op == "alloc":
            h = a.alloc(arg)
            live.append(h)
            expected_live += h.rounded
        elif live:
            h = live.pop(arg % len(live))
            expected_live -= h.rounded
            a.free(h)
        # Invariants after every operation:
        assert a.allocated_bytes == expected_live
        assert a.reserved_bytes >= a.allocated_bytes
        assert a.stats.peak_allocated >= a.allocated_bytes
        assert a.stats.peak_reserved >= a.reserved_bytes


@given(script=alloc_scripts())
@settings(max_examples=40, deadline=None)
def test_full_free_returns_to_zero_allocated(script):
    a = CachingAllocator(gib(8))
    live = []
    for op, arg in script:
        if op == "alloc":
            live.append(a.alloc(arg))
        elif live:
            a.free(live.pop(arg % len(live)))
    for h in live:
        a.free(h)
    assert a.allocated_bytes == 0


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=8 * 2**20),
                   min_size=1, max_size=30)
)
@settings(max_examples=50, deadline=None)
def test_segments_never_overlap(sizes):
    """Blocks within each segment tile it exactly: offsets are contiguous
    and sizes sum to the segment size."""
    a = CachingAllocator(gib(8))
    for s in sizes:
        a.alloc(s)
    for seg in a._segments:
        offset = 0
        for block in seg.blocks:
            assert block.offset == offset
            offset += block.size
        assert offset == seg.size


@given(script=alloc_scripts())
@settings(max_examples=50, deadline=None)
def test_blocks_stay_on_the_512_byte_grid(script):
    """Requests round to 512 B and segments are multiples of 2 MiB, so
    every split leaves a remainder of 0 or at least 512 B: block offsets
    and sizes stay multiples of 512, and a used block is exactly its
    handle's rounded size."""
    a = CachingAllocator(gib(8))
    live = []
    for op, arg in script:
        if op == "alloc":
            live.append(a.alloc(arg))
        elif live:
            a.free(live.pop(arg % len(live)))
        for seg in a._segments:
            for block in seg.blocks:
                assert block.offset % 512 == 0
                assert block.size % 512 == 0
        for h in live:
            assert h.block.size == h.rounded
