"""Experiment specs and the four sweeps (cheap configurations)."""

import pytest

from repro.core import ExperimentSpec, run_experiment
from repro.core.experiment import default_precision_for
from repro.core.sweeps import (
    batch_size_sweep,
    power_mode_sweep,
    quantization_sweep,
    seq_len_sweep,
)
from repro.engine.request import GenerationSpec
from repro.errors import ExperimentError
from repro.quant.dtypes import Precision


class TestSpec:
    def test_defaults_match_paper(self):
        spec = ExperimentSpec(model="llama")
        assert spec.batch_size == 32
        assert spec.gen.total_tokens == 96
        assert spec.power_mode == "MAXN"
        assert spec.n_runs == 5 and spec.warmup == 1

    def test_default_precisions(self):
        assert default_precision_for("llama") is Precision.FP16
        assert default_precision_for("deepq") is Precision.INT8

    def test_validation(self):
        with pytest.raises(ExperimentError):
            ExperimentSpec(model="llama", kv_mode="paged")
        with pytest.raises(ExperimentError):
            ExperimentSpec(model="llama", workload="c4")


class TestRunExperiment:
    def test_basic_run(self):
        spec = ExperimentSpec(model="phi2", batch_size=2,
                              gen=GenerationSpec(4, 8), n_runs=2)
        res = run_experiment(spec)
        assert not res.oom
        assert res.mean_latency_s > 0
        assert res.model == "MS-Phi2"

    def test_load_oom_reported_not_raised(self):
        spec = ExperimentSpec(model="deepq", precision=Precision.FP16,
                              batch_size=1, gen=GenerationSpec(2, 2), n_runs=1)
        res = run_experiment(spec)
        assert res.oom

    def test_unknown_power_mode_raises(self):
        from repro.errors import PowerModeError

        with pytest.raises(PowerModeError):
            run_experiment(ExperimentSpec(model="phi2", power_mode="TURBO"))

    def test_none_power_mode_runs_at_native_operating_point(self):
        """power_mode=None skips mode application: boards whose clock
        ranges cannot take the AGX Table-2 values still run, at their
        own maximum (real nvpmodel MAXN is per-device)."""
        spec = ExperimentSpec(model="phi2", device="jetson-orin-nx-16gb",
                              batch_size=1, gen=GenerationSpec(4, 8),
                              n_runs=1, power_mode=None)
        res = run_experiment(spec)
        assert not res.oom
        assert res.power_mode == "MAXN"  # native max, nvpmodel's label


GEN = GenerationSpec(4, 8)


class TestSweeps:
    def test_batch_size_sweep_throughput_monotone(self):
        spec = ExperimentSpec.for_model("phi2", n_runs=1)
        runs = batch_size_sweep(spec, batch_sizes=(1, 4, 16))
        tps = [r.throughput_tok_s for r in runs]
        assert tps == sorted(tps)
        lats = [r.mean_latency_s for r in runs]
        assert lats == sorted(lats)

    def test_seq_len_sweep_throughput_falls(self):
        spec = ExperimentSpec.for_model("llama", workload="longbench", n_runs=1)
        runs = seq_len_sweep(spec, seq_lengths=(128, 256))
        assert runs[0].throughput_tok_s > runs[1].throughput_tok_s

    def test_quantization_sweep_covers_all_precisions(self):
        spec = ExperimentSpec.for_model("phi2", batch_size=2, n_runs=1, gen=GEN)
        runs = quantization_sweep(spec)
        assert [r.precision for r in runs] == [
            Precision.FP32, Precision.FP16, Precision.INT8, Precision.INT4
        ]

    def test_power_mode_sweep_order_and_names(self):
        spec = ExperimentSpec.for_model("phi2", n_runs=1)
        runs = power_mode_sweep(spec, modes=("MAXN", "H"))
        assert [r.power_mode for r in runs] == ["MAXN", "H"]
        assert runs[1].mean_latency_s > runs[0].mean_latency_s

    def test_seq_len_sweep_rejects_unknown_length(self):
        spec = ExperimentSpec.for_model("phi2", workload="longbench", n_runs=1)
        with pytest.raises(ExperimentError):
            seq_len_sweep(spec, seq_lengths=(100,))
