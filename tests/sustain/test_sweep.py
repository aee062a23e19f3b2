"""The sustain sweep: determinism, headline orderings, canonical CSV."""

import pytest

from repro.errors import ConfigError
from repro.sustain import SustainSpec, run_sustain
from repro.sustain.trace import SUSTAIN_VERSION


def quick(**over):
    """A small spec that still exercises every moving part."""
    base = dict(n_requests=12, rate_per_s=0.5)
    base.update(over)
    return SustainSpec(**base)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SustainSpec(devices=())
        with pytest.raises(ConfigError):
            SustainSpec(scenarios=("mars",))
        with pytest.raises(ConfigError):
            SustainSpec(routers=("fifo",))
        with pytest.raises(ConfigError):
            SustainSpec(cascades=("maybe",))
        with pytest.raises(ConfigError):
            SustainSpec(n_requests=0)

    def test_cache_key_folds_sustain_version(self, monkeypatch):
        import repro.sustain.sweep as sweep_mod

        spec = quick()
        a = spec.cache_key()
        assert a == quick().cache_key()
        assert a != quick(seed=1).cache_key()
        monkeypatch.setattr(sweep_mod, "SUSTAIN_VERSION",
                            SUSTAIN_VERSION + 1)
        assert quick().cache_key() != a


class TestDeterminism:
    def test_repeat_runs_are_bit_identical(self):
        spec = quick(scenarios=("two-region",), cascades=("off",))
        a = run_sustain(spec)
        b = run_sustain(spec)
        assert a.rows == b.rows
        assert a.csv() == b.csv()

    def test_csv_is_canonical(self):
        rep = run_sustain(quick(scenarios=("uniform",), cascades=("off",),
                                routers=("energy-aware",)))
        csv_text = rep.csv()
        header = csv_text.splitlines()[0].split(",")
        assert header[:4] == ["scenario", "router", "cascade", "power_mode"]
        assert "carbon_g" in header and "quality_delta_pct" in header


class TestHeadlines:
    @pytest.fixture(scope="class")
    def report(self):
        return run_sustain(SustainSpec())

    def row(self, report, **match):
        rows = [r for r in report.rows
                if all(r[k] == v for k, v in match.items())]
        assert len(rows) == 1, (match, rows)
        return rows[0]

    def test_uniform_trace_carbon_equals_energy_routing(self, report):
        """Satellite acceptance: one shared trace -> identical runs."""
        ea = self.row(report, scenario="uniform", router="energy-aware",
                      cascade="off")
        ca = self.row(report, scenario="uniform", router="carbon-aware",
                      cascade="off")
        assert {k: v for k, v in ea.items() if k != "router"} == \
               {k: v for k, v in ca.items() if k != "router"}

    def test_two_region_carbon_beats_energy_on_grams(self, report):
        """Tentpole acceptance: on the two-region skewed-intensity
        scenario, carbon-aware cuts fleet gCO₂ at equal completions."""
        ea = self.row(report, scenario="two-region", router="energy-aware",
                      cascade="off")
        ca = self.row(report, scenario="two-region", router="carbon-aware",
                      cascade="off")
        assert ca["completed"] == ea["completed"]
        assert ca["carbon_g"] < ea["carbon_g"]

    def test_cascade_point_cuts_j_per_token_at_bounded_quality(self, report):
        """Tentpole acceptance: some cascade point beats LLM-only on
        J/token with a bounded quality-proxy delta."""
        wins = [
            r for r in report.rows if r["cascade"] == "on"
            and r["j_per_token"] < self.row(
                report, scenario=r["scenario"], router=r["router"],
                cascade="off")["j_per_token"]
            and r["quality_delta_pct"] <= 50.0
        ]
        assert wins, "no cascade point beat LLM-only J/token"
        assert all(r["escalations"] > 0 for r in wins)

    def test_conservation_columns_are_consistent(self, report):
        for r in report.rows:
            assert r["completed"] <= r["requests"]
            assert r["carbon_g"] >= 0 and r["g_per_token"] >= 0
            if r["cascade"] == "off":
                assert r["escalations"] == 0


class TestDeferralKnob:
    def test_deferral_defers_and_stays_deterministic(self):
        spec = quick(scenarios=("two-region",), cascades=("off",),
                     routers=("carbon-aware",), defer_max_s=120.0)
        a = run_sustain(spec)
        b = run_sustain(spec)
        assert a.rows == b.rows
        assert a.rows[0]["deferred"] > 0

    def test_zero_budget_never_defers(self):
        rep = run_sustain(quick(scenarios=("two-region",), cascades=("off",),
                                routers=("carbon-aware",)))
        assert all(r["deferred"] == 0 for r in rep.rows)
