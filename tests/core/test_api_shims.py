"""The spec-first API surface: spec builders and the one refusal.

Sweeps and studies take an :class:`ExperimentSpec` / :class:`StudySpec`;
a bare model name where a spec belongs is a :class:`TypeError` that
points at ``ExperimentSpec.for_model``.
"""

import pytest

from repro.core import ExperimentSpec, StudySpec, default_precision_for
from repro.core.sweeps import (
    DEFAULT_GEN,
    batch_quant_power_sweep_specs,
    batch_size_sweep_specs,
    power_mode_sweep_specs,
    quantization_sweep_specs,
    runtime_sweep_specs,
    seq_len_sweep_specs,
)
from repro.quant.dtypes import Precision


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


class TestSpecFirst:
    @pytest.mark.parametrize("builder", [
        batch_size_sweep_specs, seq_len_sweep_specs,
        quantization_sweep_specs, power_mode_sweep_specs,
        runtime_sweep_specs, batch_quant_power_sweep_specs,
    ])
    def test_model_name_is_a_typeerror(self, builder):
        with pytest.raises(TypeError, match=r"ExperimentSpec\.for_model"):
            builder("phi2")

    def test_studyspec_of_normalises_models(self):
        spec = StudySpec.of(["MS-Phi2"], n_runs=1)
        assert spec.models == ("MS-Phi2",)
