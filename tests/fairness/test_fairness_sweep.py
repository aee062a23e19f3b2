"""Fairness sweep: reproducibility gate, row order, cache keys."""

import pytest

from repro.errors import ConfigError
from repro.fairness import FairnessSpec, run_fairness
from repro.fairness.sweep import TENANT_MIXES, _init_mixes


def tiny_spec(**kw):
    base = dict(schedulers=("fcfs", "vtc"), mixes=("flood",),
                n_interactions=6, rate_per_s=3.0, mean_turns=2.0,
                max_turns=3, mean_think_time_s=0.5)
    base.update(kw)
    return FairnessSpec(**base)


class TestSpec:
    def test_unknown_scheduler_is_typed_error(self):
        with pytest.raises(ConfigError):
            tiny_spec(schedulers=("fcfs", "lottery"))

    def test_unknown_mix_is_typed_error_listing_names(self):
        with pytest.raises(ConfigError) as exc:
            tiny_spec(mixes=("rushhour",))
        assert "rushhour" in str(exc.value)
        assert "flood" in str(exc.value)

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(schedulers=())
        with pytest.raises(ConfigError):
            tiny_spec(kv_policies=())

    def test_negative_throttle_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(throttle_rate=-1.0)

    def test_builtin_mixes_registered(self):
        _init_mixes()
        assert {"balanced", "flood", "weighted"} <= set(TENANT_MIXES)


class TestCacheKey:
    def test_stable_for_equal_specs(self):
        assert tiny_spec().cache_key() == tiny_spec().cache_key()

    def test_changes_with_every_axis(self):
        base = tiny_spec().cache_key()
        assert tiny_spec(seed=1).cache_key() != base
        assert tiny_spec(schedulers=("fcfs",)).cache_key() != base
        assert tiny_spec(mixes=("balanced",)).cache_key() != base
        assert tiny_spec(throttle_rate=10.0).cache_key() != base

    def test_folds_the_fairness_version(self):
        """Bump FAIRNESS_VERSION -> every cached sweep invalidates."""
        import repro.fairness.sweep as sweep_mod
        base = tiny_spec().cache_key()
        old = sweep_mod.FAIRNESS_VERSION
        sweep_mod.FAIRNESS_VERSION = old + "-bumped"
        try:
            assert tiny_spec().cache_key() != base
        finally:
            sweep_mod.FAIRNESS_VERSION = old


class TestSweep:
    def test_rows_csv_is_bit_reproducible(self):
        spec = tiny_spec()
        a = run_fairness(spec).csv()
        b = run_fairness(spec).csv()
        assert a == b

    def test_row_order_is_the_declared_grid_order(self):
        rep = run_fairness(tiny_spec())
        assert [(r["mix"], r["scheduler"]) for r in rep.rows] == \
            [("flood", "fcfs"), ("flood", "vtc")]

    def test_rows_carry_the_fairness_columns(self):
        rep = run_fairness(tiny_spec(schedulers=("fcfs",)))
        row = rep.rows[0]
        for col in ("jain", "jain_tokens", "wasted_tokens",
                    "throttled_tokens", "prefix_hit_rate", "j_per_token"):
            assert col in row

    def test_table_renders_all_rows(self):
        rep = run_fairness(tiny_spec(schedulers=("fcfs",)))
        text = rep.table()
        assert "scheduler" in text.splitlines()[0]
        assert len(text.splitlines()) == 1 + len(rep.rows)


class TestWeightedEntitlements:
    """The ``weighted`` mix carries profile weights into the schedulers.

    Premium pays for a 3x entitlement; both tenants demand roughly
    equal tokens.  While both are backlogged a weight-honoring
    scheduler serves premium ~3x standard's tokens, so its
    ``weight_fidelity`` (served tokens per unit entitlement inside the
    contended window, worst/best) must sit well above FCFS's, which
    serves demand (~1:1 — a third of the entitled ratio).
    """

    def test_vtc_honors_the_weight_ratio(self):
        rep = run_fairness(FairnessSpec(
            mixes=("weighted",), schedulers=("fcfs", "vtc")))
        by = {r["scheduler"]: r for r in rep.rows}
        assert by["vtc"]["weight_fidelity"] >= 0.5
        assert by["vtc"]["weight_fidelity"] > \
            by["fcfs"]["weight_fidelity"] + 0.2

    def test_equal_weight_mixes_keep_unit_entitlements(self):
        """Non-weighted mixes must not leak profile weights into the
        schedulers: the flood tenant's 8x *arrival* share is exactly
        the adversary fair queueing exists to contain."""
        from repro.fairness.sweep import WEIGHTED_ENTITLEMENT_MIXES

        assert "flood" not in WEIGHTED_ENTITLEMENT_MIXES
        assert "balanced" not in WEIGHTED_ENTITLEMENT_MIXES
        assert "weighted" in WEIGHTED_ENTITLEMENT_MIXES
