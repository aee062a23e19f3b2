"""KV lifecycle under memory pressure: swap vs sacrifice, prefix share.

The kvtier subsystem's committed evidence (extension beyond the paper):

- **Pressure sweep** — goodput and J/token for each lifecycle policy at
  three memory-pressure levels (fractions of the node's natural KV
  budget).  Asserted shape: with no pressure the policies are
  indistinguishable; under forced preemption LRU host-swap keeps
  strictly higher goodput than sacrifice (drop + re-prefill), and loses
  zero tokens where sacrifice recomputes thousands.
- **Prefix sharing** — the >= 50% shared-system-prompt workload shows a
  measurable TTFT reduction over the no-sharing baseline via the radix
  prefix cache.
- **Determinism** — the prefix sweep run twice yields byte-identical
  CSV (the same gate CI applies to ``repro kvtier``).
"""

import dataclasses

from repro.kvtier import KvTierSpec, run_kvtier
from repro.reporting import format_table

#: Fraction of the natural KV budget kept: none / moderate / heavy
#: preemption pressure for the default 40-request shared-prefix trace.
PRESSURE_LEVELS = (0.0075, 0.005, 0.0035)

PRESSURE_SPEC = KvTierSpec(
    policies=("sacrifice", "swap-lifo", "swap-lru"),
    triggers=(1.0,),
    share_ratios=(0.0,),
)

PREFIX_SPEC = KvTierSpec(
    policies=("swap-lru",),
    triggers=(1.0,),
    share_ratios=(0.0, 0.5, 0.8),
    kv_budget_frac=0.005,
)


def _pressure_sweep():
    rows = []
    for frac in PRESSURE_LEVELS:
        spec = dataclasses.replace(PRESSURE_SPEC, kv_budget_frac=frac)
        for row in run_kvtier(spec).rows:
            rows.append({"kv_budget_frac": frac, **row})
    return rows


def test_swap_beats_sacrifice_under_pressure(benchmark, emit):
    rows = benchmark.pedantic(_pressure_sweep, rounds=1, iterations=1)
    emit(
        "kv_lifecycle_pressure",
        format_table(rows, title="KV lifecycle policies vs memory pressure "
                                 "(Orin AGX 64GB, Llama3.1-8B fp16, paged)"),
        rows,
    )
    by = {(r["kv_budget_frac"], r["policy"].split("-")[0],
           r["policy"].split("-")[1].split("@")[0]): r for r in rows}

    # No pressure: the policy axis must not change the outcome.
    calm = [r for r in rows if r["kv_budget_frac"] == PRESSURE_LEVELS[0]]
    assert len({(r["goodput_rps"], r["lost_tokens"]) for r in calm}) == 1
    assert all(r["sacrifices"] == 0 and r["swap_outs"] == 0 for r in calm)

    # Forced preemption: LRU swap strictly out-goodputs sacrifice, loses
    # nothing, and re-prefill's recompute shows up as sacrifice's lost
    # tokens and extra joules per served token.
    for frac in PRESSURE_LEVELS[1:]:
        sac = by[(frac, "sacrifice", "lifo")]
        lru = by[(frac, "swap", "lru")]
        assert sac["sacrifices"] > 0, frac
        assert lru["swap_outs"] > 0 and lru["swap_ins"] > 0, frac
        assert lru["goodput_rps"] > sac["goodput_rps"], frac
        assert lru["lost_tokens"] == 0 < sac["lost_tokens"], frac
        assert lru["j_per_token"] < sac["j_per_token"], frac


def test_prefix_share_cuts_ttft(benchmark, emit):
    report = benchmark.pedantic(lambda: run_kvtier(PREFIX_SPEC),
                                rounds=1, iterations=1)
    rows = report.rows
    emit(
        "kv_lifecycle_prefix_share",
        format_table(rows, title="shared-prefix ratio vs TTFT "
                                 "(radix prefix cache, swap-lru)"),
        rows,
    )
    by_share = {r["share_ratio"]: r for r in rows}
    cold = by_share[0.0]
    assert cold["prefix_hit_tokens"] == 0
    for share in (0.5, 0.8):
        hot = by_share[share]
        assert hot["prefix_hit_tokens"] > 0
        assert hot["p50_ttft_s"] < cold["p50_ttft_s"], share
    # More sharing, more reuse.
    assert by_share[0.8]["prefix_hit_rate"] > by_share[0.5]["prefix_hit_rate"]

    # The CI determinism gate, asserted in-bench too: same spec, same
    # bytes.
    assert report.csv() == run_kvtier(PREFIX_SPEC).csv()
