"""Fluid-vs-DES cross-validation: spec checks and a small tier-1 grid."""

import pytest

from repro.errors import ConfigError
from repro.plan import ValidationSpec, run_validation


def tiny_spec(**kw):
    base = dict(workloads=("poisson-low",), routers=("round-robin",),
                runtimes=("hf-transformers",), n_requests=24)
    base.update(kw)
    return ValidationSpec(**base)


class TestSpec:
    def test_unknown_workload_is_typed_error_listing_names(self):
        with pytest.raises(ConfigError) as exc:
            tiny_spec(workloads=("rushhour",))
        assert "rushhour" in str(exc.value)
        assert "poisson-low" in str(exc.value)

    def test_unknown_router_and_runtime_are_typed(self):
        with pytest.raises(ConfigError):
            tiny_spec(routers=("chaotic",))
        with pytest.raises(ConfigError):
            tiny_spec(runtimes=("vllm",))

    def test_empty_axes_and_bad_tolerance_rejected(self):
        with pytest.raises(ConfigError):
            tiny_spec(workloads=())
        with pytest.raises(ConfigError):
            tiny_spec(tolerance=0.0)
        with pytest.raises(ConfigError):
            tiny_spec(n_requests=0)

    def test_cache_key_folds_plan_version(self):
        from repro.plan import spec as spec_mod
        base = tiny_spec().cache_key()
        assert tiny_spec(seed=1).cache_key() != base
        old = spec_mod.PLAN_VERSION
        spec_mod.PLAN_VERSION = old + 1
        try:
            assert tiny_spec().cache_key() != base
        finally:
            spec_mod.PLAN_VERSION = old


class TestSmallGrid:
    """ODE-vs-DES agreement on a cheap grid (the full one is committed
    under ``benchmarks/results/plan_validation.csv``)."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_validation(tiny_spec(
            runtimes=("hf-transformers", "paged")))

    def test_both_tiers_agree_within_tolerance(self, report):
        assert report.rows
        for row in report.rows:
            assert row["within_tol"], row
        assert report.within_fraction == 1.0

    def test_rows_carry_both_tiers_numbers(self, report):
        row = report.rows[0]
        for col in ("des_tput_tok_s", "fluid_tput_tok_s", "tput_rel_err",
                    "des_latency_s", "fluid_latency_s", "latency_rel_err"):
            assert col in row

    def test_csv_is_bit_reproducible(self, report):
        again = run_validation(tiny_spec(
            runtimes=("hf-transformers", "paged")))
        assert report.csv() == again.csv()
