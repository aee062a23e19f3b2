"""The spec-first API redesign's backwards-compatibility shims.

Legacy model-name sweep calls and ``run_full_study`` keyword calls must
keep producing the same grids they always did — but under a
``DeprecationWarning`` — while mixing the two styles is refused.  CI
runs the suite with ``-W error::DeprecationWarning``, so every legacy
call in here must be wrapped in ``pytest.warns``.
"""

import pytest

from repro.core import ExperimentSpec, StudySpec, default_precision_for
from repro.core.study import run_full_study
from repro.core.sweeps import (
    DEFAULT_GEN,
    batch_quant_power_sweep_specs,
    batch_size_sweep_specs,
    power_mode_sweep_specs,
    quantization_sweep_specs,
    seq_len_sweep_specs,
)
from repro.errors import ExperimentError
from repro.obs import Observer
from repro.quant.dtypes import Precision
from repro.sim.tracing import Trace


class TestForModel:
    def test_fills_per_model_default_precision(self):
        spec = ExperimentSpec.for_model("deepq")
        assert spec.precision is default_precision_for("deepq")
        assert spec.gen == DEFAULT_GEN

    def test_overrides_pass_through(self):
        spec = ExperimentSpec.for_model("llama", batch_size=4, n_runs=2,
                                        precision=Precision.INT8)
        assert (spec.batch_size, spec.n_runs) == (4, 2)
        assert spec.precision is Precision.INT8


class TestLegacySweepCalls:
    def test_model_name_warns_and_builds_same_grid(self):
        modern = batch_size_sweep_specs(
            ExperimentSpec.for_model("phi2", n_runs=1), batch_sizes=(1, 4))
        with pytest.warns(DeprecationWarning, match="for_model"):
            legacy = batch_size_sweep_specs("phi2", batch_sizes=(1, 4),
                                            n_runs=1)
        assert legacy == modern

    def test_seq_len_legacy_defaults_to_longbench(self):
        with pytest.warns(DeprecationWarning):
            specs = seq_len_sweep_specs("llama", seq_lengths=(256,), n_runs=1)
        assert specs[0].workload == "longbench"

    def test_quantization_legacy_covers_order(self):
        with pytest.warns(DeprecationWarning):
            specs = quantization_sweep_specs("mistral", n_runs=1)
        assert [s.precision for s in specs] == [
            Precision.FP32, Precision.FP16, Precision.INT8, Precision.INT4]

    def test_power_mode_legacy(self):
        with pytest.warns(DeprecationWarning):
            specs = power_mode_sweep_specs("phi2", modes=("MAXN",), n_runs=1)
        assert specs[0].power_mode == "MAXN"

    def test_batch_quant_power_legacy(self):
        with pytest.warns(DeprecationWarning):
            grid = batch_quant_power_sweep_specs("phi2", batch_sizes=(1,),
                                                 n_runs=1)
        assert set(grid) == {Precision.FP16, Precision.INT8, Precision.INT4}

    @pytest.mark.parametrize("builder", [
        batch_size_sweep_specs, seq_len_sweep_specs,
        quantization_sweep_specs, power_mode_sweep_specs,
    ])
    def test_spec_plus_legacy_kwargs_is_refused(self, builder):
        spec = ExperimentSpec.for_model("phi2", n_runs=1)
        with pytest.raises(ExperimentError, match="ExperimentSpec"):
            builder(spec, n_runs=3)

    def test_spec_first_call_is_warning_free(self, recwarn):
        batch_size_sweep_specs(ExperimentSpec.for_model("phi2"),
                               batch_sizes=(1,))
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]


class TestRunFullStudyShim:
    def test_legacy_keywords_warn(self):
        # n_runs=0 makes StudySpec.of raise right after the warning, so
        # the shim is exercised without running any experiment.
        with pytest.warns(DeprecationWarning, match="StudySpec"):
            with pytest.raises(ExperimentError):
                run_full_study(n_runs=0)

    def test_unknown_keyword_is_a_typeerror(self):
        with pytest.raises(TypeError, match="model"):
            run_full_study(model="llama")

    def test_spec_plus_legacy_is_refused(self):
        with pytest.raises(ExperimentError, match="not both"):
            run_full_study(StudySpec(), n_runs=1)

    def test_studyspec_of_normalises_models(self):
        spec = StudySpec.of(["MS-Phi2"], n_runs=1)
        assert spec.models == ("MS-Phi2",)


class TestTraceShim:
    def test_record_and_by_kind_still_work(self):
        trace = Trace()
        trace.record(1.0, "power_w", watts=30.0)
        trace.record(0.5, "decode", tokens=4)
        assert [r.kind for r in trace] == ["decode", "power_w"]
        (rec,) = trace.by_kind("power_w")
        assert rec.data == {"watts": 30.0}
        assert trace.kinds() == ["decode", "power_w"]
        assert len(trace) == 2

    def test_view_projects_observer_spans(self):
        obs = Observer()
        obs.complete("prefill", 0.0, 1.0, track="engine", tokens=8)
        trace = Trace(obs)
        (rec,) = trace.by_kind("prefill")
        assert rec.time == 0.0
        assert rec.data == {"tokens": 8, "duration_s": 1.0}
