"""The ``repro kvtier`` sweep: determinism, identity, reporting."""

import dataclasses
import time

import pytest

from repro.cluster.node import MAX_REPLAYS
from repro.errors import ConfigError, SimulationStalled
from repro.kvtier import KvTierSpec, run_kvtier
from repro.kvtier.policy import KV_TIER_VERSION

TINY = KvTierSpec(n_requests=16, policies=("sacrifice", "swap-lru"),
                  triggers=(1.0,), share_ratios=(0.0, 0.5))


class TestDeterminism:
    def test_sweep_is_bit_reproducible(self):
        """The CI gate: two runs of one spec, byte-identical CSV."""
        a = run_kvtier(TINY).csv()
        b = run_kvtier(TINY).csv()
        assert a == b

    def test_row_order_is_share_policy_trigger(self):
        rep = run_kvtier(TINY)
        assert [(r["share_ratio"], r["policy"]) for r in rep.rows] == [
            (0.0, "sacrifice-lifo@1"), (0.0, "swap-lru@1"),
            (0.5, "sacrifice-lifo@1"), (0.5, "swap-lru@1"),
        ]

    def test_pressure_point_separates_policies(self):
        rows = {r["policy"]: r for r in run_kvtier(TINY).rows
                if r["share_ratio"] == 0.0}
        sac, swp = rows["sacrifice-lifo@1"], rows["swap-lru@1"]
        assert sac["lost_tokens"] > 0 and sac["sacrifices"] > 0
        assert swp["lost_tokens"] == 0 and swp["swap_outs"] > 0

    def test_prefix_share_cuts_ttft(self):
        rows = run_kvtier(TINY).rows
        by_share = {r["share_ratio"]: r for r in rows
                    if r["policy"].startswith("swap")}
        assert by_share[0.5]["prefix_hit_tokens"] > 0
        assert by_share[0.5]["p50_ttft_s"] < by_share[0.0]["p50_ttft_s"]


class TestReplayLivelock:
    def test_tiny_budget_sacrifice_cell_stalls_with_a_typed_error(self):
        """At 0.2% of the natural budget a sacrificed request is
        re-admitted straight away and evicted again, forever; the run
        must end with the stall, not hang."""
        spec = KvTierSpec(kv_budget_frac=0.002, policies=("sacrifice",),
                          triggers=(1.0,), share_ratios=(0.0,))
        t0 = time.perf_counter()
        with pytest.raises(SimulationStalled) as info:
            run_kvtier(spec)
        assert time.perf_counter() - t0 < 30.0
        err = info.value
        assert err.replays == MAX_REPLAYS + 1
        assert err.node_id == 0 and err.active >= 1 and err.kv_in_use > 0
        assert f"request {err.req_id}" in str(err)


class TestIdentity:
    def test_cache_key_stable_and_field_sensitive(self):
        assert TINY.cache_key() == TINY.cache_key()
        assert (dataclasses.replace(TINY, seed=1).cache_key()
                != TINY.cache_key())

    def test_cache_key_folds_kvtier_version(self):
        from repro.core.cache import payload_fingerprint

        payload = dataclasses.asdict(TINY)
        payload["kv_tier_version"] = KV_TIER_VERSION
        assert TINY.cache_key() == payload_fingerprint(payload)

    @pytest.mark.parametrize("bad", [
        dict(policies=()),
        dict(policies=("sacrifice", "nope")),
        dict(triggers=(0.0,)),
        dict(share_ratios=(1.5,)),
        dict(kv_budget_frac=0.0),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            KvTierSpec(**bad)


class TestReporting:
    def test_table_renders_every_row(self):
        rep = run_kvtier(TINY)
        lines = rep.table().splitlines()
        assert len(lines) == 1 + len(rep.rows)
        assert lines[0].startswith("policy")

    def test_kv_policy_comparison_baseline_deltas(self):
        from repro.reporting import kv_policy_comparison

        def serving_report(policy):
            from tests.kvtier.test_lifecycle import (pressured_cluster,
                                                     workload)
            return pressured_cluster(policy).run(workload(n=16))

        rows = kv_policy_comparison([
            ("sacrifice-lifo@1", serving_report("sacrifice")),
            ("swap-lru@1", serving_report("swap-lru")),
        ])
        assert rows[0]["goodput_x"] == 1.0
        assert rows[0]["ttft_saved_s"] == 0.0
        assert isinstance(rows[1]["goodput_x"], float)
        assert rows[1]["lost_tokens"] == 0

    def test_comparison_without_baseline_leaves_deltas_blank(self):
        from tests.kvtier.test_lifecycle import pressured_cluster, workload
        from repro.reporting import kv_policy_comparison

        rep = pressured_cluster("swap-lru").run(workload(n=6))
        rows = kv_policy_comparison([("swap-lru@1", rep)])
        assert rows[0]["goodput_x"] == ""


class TestChaosIntegration:
    def test_kv_policy_folds_into_chaos_cache_key(self):
        from repro.faults import ChaosSpec

        a = ChaosSpec()
        b = ChaosSpec(kv_policy="swap-lru")
        assert a.kv_policy == "sacrifice"
        assert a.cache_key() != b.cache_key()

    def test_nodespec_validates_policy_names(self):
        from repro.cluster import NodeSpec

        with pytest.raises(ConfigError):
            NodeSpec("jetson-orin-agx-64gb", kv_policy="bogus")
        spec = NodeSpec("jetson-orin-agx-64gb", kv_policy="swap",
                        kv_trigger=0.9)
        assert spec.resolved_kv_policy().trigger == 0.9
