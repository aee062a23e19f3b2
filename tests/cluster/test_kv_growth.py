"""The paged-pool overflow bound in closed form.

``kv_growth`` counts the batch by token phase once and adds one phase's
blocks per step; it must equal re-summing every request's live KV at
every step, with the tree-held prompt blocks of radix sharers taken off
as ``ClusterNode._kv_live`` does, and stop at the same step.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.cluster.node import kv_growth


@st.composite
def batches(draw):
    bt = draw(st.integers(1, 20))
    per_token = draw(st.integers(1, 7))
    n = draw(st.integers(1, 12))
    reqs = [(draw(st.integers(1, 90)),     # input tokens
             draw(st.integers(0, 70)),     # generated
             draw(st.booleans()))          # holds a radix pin
            for _ in range(n)]
    tree = draw(st.integers(0, 12)) * bt * per_token
    n_max = draw(st.integers(1, 40))
    slack = draw(st.integers(-bt * per_token,
                             (n_max // bt + 2) * n * bt * per_token))
    return bt, per_token, reqs, tree, n_max, slack


def _live(backend, per_token, inp, gen, pinned):
    live = backend.live_kv_bytes(inp, gen, 0, per_token)
    if pinned:
        bt = backend.block_tokens
        live -= (inp // bt) * bt * per_token
    return max(0, live)


def _brute_force(backend, per_token, reqs, tree, budget, n_max):
    """Growth per step by re-summing the batch, up to the overflow."""
    def total(k):
        return sum(_live(backend, per_token, inp, gen + k, pinned)
                   for inp, gen, pinned in reqs)

    growth = [0]
    for k in range(1, n_max):
        if tree + total(k) > budget:
            break
        growth.append(total(k) - total(0))
    return growth


@settings(max_examples=400, deadline=None, derandomize=True)
@given(batches())
def test_phase_counts_match_per_step_resum(case):
    bt, per_token, reqs, tree, n_max, slack = case
    backend = get_backend("paged", block_tokens=bt)
    assert backend.live_kv_block_tokens() == bt
    base = sum(_live(backend, per_token, *r) for r in reqs)
    budget = tree + base + slack
    expected = _brute_force(backend, per_token, reqs, tree, budget, n_max)
    counts = [inp + gen for inp, gen, _ in reqs]
    room = budget - tree - base
    assert kv_growth(bt, bt * per_token, counts, room, n_max) == expected


def test_ample_room_plans_every_step():
    growth = kv_growth(4, 40, [3, 4, 8], 10 ** 9, 9)
    # Counts 4 and 8 fill their blocks exactly, so the next token (steps
    # 1 and 5) opens a block; count 3 opens one at steps 2 and 6.
    assert growth == [0, 80, 120, 120, 120, 200, 240, 240, 240]


def test_growth_over_room_stops_before_the_step():
    # Two requests at a boundary: step 1 adds two blocks.
    assert kv_growth(16, 100, [16, 32], 199, 10) == [0]
    assert kv_growth(16, 100, [16, 32], 200, 10)[:2] == [0, 200]


def test_non_growing_backends_declare_no_rule():
    for name in ("hf-transformers", "gguf"):
        assert get_backend(name).live_kv_block_tokens() == 0
