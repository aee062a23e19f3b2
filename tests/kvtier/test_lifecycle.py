"""KV lifecycle end-to-end: swap vs sacrifice, prefix sharing, traces.

The acceptance properties of the kvtier subsystem:

- a swap round-trip is *lossless*: the per-request decode trajectory is
  identical to an uninterrupted run — only timing and energy differ —
  across the precision x power-mode grid;
- sacrifice makes the KV loss explicit: every drop emits the existing
  ``kv_transfer`` instant so traces show where bytes must move again;
- shared-prefix caching turns prompt overlap into TTFT reduction.
"""

import pytest

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec
from repro.cluster.workload import ServeRequest, shared_prefix_workload
from repro.obs import Observer, kinds

DEVICE = "jetson-orin-agx-64gb"
MODEL = "llama3.1-8b"


def pressured_cluster(kv_policy, budget_frac=0.005, precision="fp16",
                      power_mode="MAXN", observer=None):
    """One node whose KV budget is shrunk until preemption must fire."""
    cluster = EdgeCluster.of(FleetSpec.of(
        [NodeSpec(DEVICE, power_mode=power_mode, max_batch=8,
                  runtime="paged", kv_policy=kv_policy)],
        model=MODEL, precision=precision), observer=observer)
    node = cluster.nodes[0]
    node._kv_budget_base = max(1, int(node._kv_budget_base * budget_frac))
    node._explicit_kv_budget = True
    return cluster


def workload(n=24, rate=4.0, seed=0):
    return shared_prefix_workload(rate, n, prefix_tokens=128, share_ratio=0.0,
                                  unique_tokens=32, output_tokens=64,
                                  seed=seed)


def trajectory(report):
    return [(r.req_id, r.generated, r.output_tokens, r.rejected)
            for r in report.requests]


class TestSwapRoundTrip:
    @pytest.mark.parametrize("precision", ["fp16", "int8"])
    @pytest.mark.parametrize("power_mode", ["MAXN", "H"])
    def test_round_trip_matches_uninterrupted_run(self, precision,
                                                  power_mode):
        """Satellite property: swap->swap-in preserves the decode
        trajectory bit-for-bit; only timing/energy move."""
        # int8 halves KV bytes/token, so halve the budget to keep the
        # same preemption pressure across the precision axis.
        frac = 0.005 if precision == "fp16" else 0.0025
        base = EdgeCluster.of(FleetSpec.of(
            [NodeSpec(DEVICE, power_mode=power_mode, max_batch=8,
                      runtime="paged")],
            model=MODEL, precision=precision,
        )).run(workload(n=16))
        swapped = pressured_cluster("swap-lru", budget_frac=frac,
                                    precision=precision,
                                    power_mode=power_mode).run(workload(n=16))
        assert swapped.swap_outs > 0          # preemption actually fired
        assert swapped.swap_ins > 0           # and the KV came back
        assert swapped.lost_tokens == 0       # nothing recomputed
        assert swapped.sacrifices == 0
        assert trajectory(swapped) == trajectory(base)
        # The transfers cost wall time the clean run never paid.
        assert swapped.makespan_s > base.makespan_s

    def test_sacrifice_recomputes_swap_does_not(self):
        sac = pressured_cluster("sacrifice").run(workload())
        swp = pressured_cluster("swap-lru").run(workload())
        assert sac.sacrifices > 0 and sac.lost_tokens > 0
        assert swp.lost_tokens == 0
        assert swp.swapped_gb > 0
        assert sac.swap_outs == 0  # sacrifice never touches the host tier

    def test_swap_report_columns_always_present(self):
        row = pressured_cluster("sacrifice").run(workload(n=6)).as_row()
        for col in ("swap_outs", "swap_ins", "sacrifices", "swapped_gb",
                    "prefix_hit_tokens", "prefix_hit_rate"):
            assert col in row


class TestSacrificeTrace:
    def test_sacrifice_emits_kv_transfer_instant(self):
        """Satellite: drop + re-prefill shows up as the existing
        ``kv_transfer`` span kind, reason-tagged."""
        obs = Observer()
        report = pressured_cluster("sacrifice", observer=obs).run(workload())
        assert report.sacrifices > 0
        drops = [i for i in obs.instants if i.name == kinds.KV_TRANSFER
                 and dict(i.args).get("reason") == "sacrifice"]
        assert len(drops) == report.sacrifices
        for i in drops:
            args = dict(i.args)
            assert args["kv_bytes"] > 0
            assert "lost_tokens" in args

    def test_swap_emits_swap_spans(self):
        obs = Observer()
        report = pressured_cluster("swap-lru", observer=obs).run(workload())
        outs = [i for i in obs.instants if i.name == kinds.KV_SWAP_OUT]
        ins = [s for s in obs.spans if s.name == kinds.KV_SWAP_IN]
        assert len(outs) == report.swap_outs > 0
        assert len(ins) == report.swap_ins > 0
        hist = obs.metrics.histogram("kv_swap_in_s")
        assert hist.count == report.swap_ins


class TestPrefixSharing:
    def test_shared_prompts_cut_ttft(self):
        def run(share):
            reqs = shared_prefix_workload(4.0, 24, prefix_tokens=128,
                                          share_ratio=share,
                                          unique_tokens=32, output_tokens=32,
                                          seed=1)
            cluster = EdgeCluster.of(FleetSpec.of(
                [NodeSpec(DEVICE, max_batch=8, runtime="paged")],
                model=MODEL, precision="fp16"))
            return cluster.run(reqs)

        cold = run(0.0)
        hot = run(0.8)
        assert hot.prefix_hit_tokens > 0
        assert hot.prefix_hit_rate > 0.3
        assert hot.p50_ttft_s < cold.p50_ttft_s
        assert cold.prefix_hit_tokens == 0

    def test_engine_level_sharing(self):
        """A single paged node shares blocks through the radix tree when
        plain requests carry token ids (they must survive the upgrade
        to cluster requests)."""
        prefix = tuple(range(64))

        def reqs(with_ids):
            return [ServeRequest(req_id=i, arrival_s=0.2 * i,
                                 input_tokens=80, output_tokens=32,
                                 prompt_ids=prefix + tuple(
                                     1000 + 16 * i + j for j in range(16))
                                 if with_ids else None)
                    for i in range(8)]

        def run(with_ids):
            cluster = EdgeCluster.of(FleetSpec.of(
                [NodeSpec(DEVICE, max_batch=8, runtime="paged")],
                model="llama", precision="fp16"))
            report = cluster.run(reqs(with_ids))
            ttfts = [r.ttft_s for r in cluster.last_requests]
            return report, sum(ttfts) / len(ttfts)

        off, ttft_off = run(False)
        on, ttft_on = run(True)
        assert on.prefix_hit_tokens > 0
        assert ttft_on < ttft_off
        assert off.prefix_hit_tokens == 0
