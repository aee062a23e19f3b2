"""RadixPrefixCache: matching, pinning, COW splits, LRU reclamation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.kvtier import RadixPrefixCache

BT = 4       # block_tokens — small so boundaries are easy to hit
BB = 100     # block_bytes


def cache():
    return RadixPrefixCache(block_tokens=BT, block_bytes=BB)


def toks(*ranges):
    out = []
    for r in ranges:
        out.extend(r)
    return tuple(out)


class TestMatchInsert:
    def test_empty_tree_misses(self):
        c = cache()
        assert c.match((1, 2, 3), now=0.0) == 0
        assert c.stats.lookups == 1 and c.stats.hits == 0

    def test_insert_then_full_match(self):
        c = cache()
        prompt = tuple(range(8))
        assert c.insert(1, prompt, now=0.0) == 0  # cold: nothing cached
        assert c.match(prompt, now=1.0) == 8
        assert c.stats.hit_tokens == 8

    def test_only_whole_blocks_count_as_hit(self):
        c = cache()
        c.insert(1, tuple(range(8)), now=0.0)
        # 6 tokens match but only one 4-token block is reusable.
        assert c.match(tuple(range(6)), now=1.0) == 6
        assert c.block_hit_tokens(6) == 4
        hit = c.insert(2, toks(range(6), [99, 98]), now=2.0)
        assert hit == 4

    def test_second_owner_shares_prefix(self):
        c = cache()
        shared = tuple(range(8))
        c.insert(1, shared + (10, 11), now=0.0)
        hit = c.insert(2, shared + (20, 21), now=1.0)
        assert hit == 8
        assert c.stats.hits == 1

    def test_double_pin_rejected(self):
        c = cache()
        c.insert(1, (1, 2), now=0.0)
        with pytest.raises(ConfigError):
            c.insert(1, (1, 2), now=1.0)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigError):
            RadixPrefixCache(block_tokens=0, block_bytes=BB)


class TestCopyOnWrite:
    def test_mid_block_divergence_costs_a_copy(self):
        c = cache()
        c.insert(1, toks(range(6)), now=0.0)
        # Diverges at token 5 — inside the second block: COW.
        c.insert(2, toks(range(5), [99]), now=1.0)
        assert c.stats.cow_copies == 1
        assert c.stats.cow_bytes == BB

    def test_block_aligned_divergence_is_free(self):
        c = cache()
        c.insert(1, toks(range(8)), now=0.0)
        # Diverges exactly at the 4-token block boundary: no copy.
        c.insert(2, toks(range(4), [99, 98]), now=1.0)
        assert c.stats.cow_copies == 0


class TestAccounting:
    def test_resident_counts_whole_blocks_only(self):
        c = cache()
        c.insert(1, tuple(range(10)), now=0.0)  # 2 full blocks + 2 tokens
        assert c.resident_blocks == 2
        assert c.resident_bytes == 2 * BB

    def test_split_preserves_block_accounting(self):
        c = cache()
        shared = tuple(range(8))
        c.insert(1, shared + (10, 11, 12, 13), now=0.0)  # 3 full blocks
        before = c.resident_blocks
        c.insert(2, shared + (20, 21, 22, 23), now=1.0)
        # The fork shares 2 blocks and adds 1 private one.
        assert c.resident_blocks == before + 1 == 4


class TestReclaim:
    def test_pinned_paths_survive(self):
        c = cache()
        c.insert(1, tuple(range(8)), now=0.0)
        assert c.reclaim(10 ** 9, now=1.0) == 0
        assert c.resident_blocks == 2

    def test_release_makes_reclaimable(self):
        c = cache()
        c.insert(1, tuple(range(8)), now=0.0)
        c.release(1)
        assert not c.holds(1)
        freed = c.reclaim(10 ** 9, now=1.0)
        assert freed == 2 * BB
        assert c.resident_blocks == 0
        assert c.stats.evicted_blocks == 2

    def test_lru_order(self):
        c = cache()
        c.insert(1, (1, 2, 3, 4), now=0.0)
        c.insert(2, (9, 8, 7, 6), now=5.0)
        c.release(1)
        c.release(2)
        c.match((1, 2, 3, 4), now=10.0)  # owner 1's path is now hottest
        freed = c.reclaim(1, now=11.0)   # evict exactly one leaf
        assert freed == BB
        assert c.match((9, 8, 7, 6), now=12.0) == 0   # the cold one went
        assert c.match((1, 2, 3, 4), now=13.0) == 4   # the hot one stayed

    def test_clear_drops_everything(self):
        c = cache()
        c.insert(1, tuple(range(8)), now=0.0)
        c.clear()
        assert c.resident_blocks == 0
        assert not c.holds(1)
        assert c.match(tuple(range(8)), now=1.0) == 0


#: Prompts that share a prefix of ``cut`` tokens (often mid-block) and
#: then diverge into one of a few tails, so inserts split edges.
prompts = st.builds(
    lambda cut, tail, length: toks(range(cut),
                                   range(1000 * tail, 1000 * tail + length)),
    st.integers(0, 13), st.integers(1, 3), st.integers(0, 9))

ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(0, 5), prompts),
    st.tuples(st.just("release"), st.integers(0, 5)),
    st.tuples(st.just("reclaim"), st.integers(0, 6 * BB)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("match"), prompts),
), max_size=40)


def walked_blocks(c):
    return sum(n.full_blocks(BT) for n in c._iter_nodes())


class TestBlockCounter:
    """The maintained block counter equals a walk of the tree after any
    sequence of inserts (splits included), releases, reclaims and
    clears."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(ops)
    def test_counter_matches_tree_walk(self, seq):
        c = cache()
        now = 0.0
        for op in seq:
            now += 1.0
            if op[0] == "insert":
                _, owner, prompt = op
                if c.holds(owner):
                    c.release(owner)
                c.insert(owner, prompt, now)
            elif op[0] == "release":
                c.release(op[1])
            elif op[0] == "reclaim":
                before = c.resident_blocks
                freed = c.reclaim(op[1], now)
                assert before - c.resident_blocks == freed // BB
            elif op[0] == "clear":
                c.clear()
            else:
                c.match(op[1], now)
            assert c.resident_blocks == walked_blocks(c)
            assert c.resident_bytes == c.resident_blocks * BB

    def test_whole_edge_and_partial_walks_agree_with_peek(self):
        c = cache()
        c.insert(1, toks(range(10)), now=0.0)
        c.insert(2, toks(range(6), [50, 51]), now=1.0)  # split at 6
        assert c.peek(toks(range(10))) == 10     # two whole edges
        assert c.peek(toks(range(8))) == 8       # ends inside an edge
        assert c.peek(toks(range(6), [50])) == 7
        assert c.peek(list(range(12))) == 10     # longer than the tree
