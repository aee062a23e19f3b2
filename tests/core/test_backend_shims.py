"""The runtime-backend axis on the spec surface.

Specs carry their runtime through pickling and into the cache key, and
the spec surface refuses ambiguous combinations with typed errors.
"""

import pickle

import pytest

from repro.core import ExperimentSpec, StudySpec, spec_fingerprint
from repro.core.sweeps import runtime_sweep_specs
from repro.engine.kernels import EngineCostParams
from repro.errors import ConfigError, ExperimentError


class TestSpecRuntimeField:
    def test_for_model_accepts_runtime(self):
        spec = ExperimentSpec.for_model("phi2", runtime="gguf")
        assert spec.runtime == "gguf"
        assert ExperimentSpec.for_model("phi2").runtime == "hf-transformers"

    def test_unknown_runtime_is_a_config_error_listing_known(self):
        with pytest.raises(ConfigError, match="known: gguf"):
            ExperimentSpec.for_model("phi2", runtime="onnx")

    def test_kv_mode_is_an_hf_concern(self):
        with pytest.raises(ExperimentError, match="hf-transformers concern"):
            ExperimentSpec.for_model("phi2", runtime="paged",
                                     kv_mode="static")
        # ... but stays a valid ablation axis on the hf runtime.
        spec = ExperimentSpec.for_model("phi2", kv_mode="static")
        assert spec.kv_mode == "static"

    def test_studyspec_of_accepts_runtime(self):
        assert StudySpec.of(["phi2"], runtime="paged").runtime == "paged"
        with pytest.raises(ConfigError, match="unknown runtime"):
            StudySpec.of(["phi2"], runtime="onnx")


class TestOldPicklesLoadCleanly:
    def test_new_pickles_keep_their_runtime(self):
        spec = ExperimentSpec.for_model("phi2", runtime="gguf")
        assert pickle.loads(pickle.dumps(spec)).runtime == "gguf"


class TestCacheKeyCoversTheRuntime:
    def test_fingerprint_differs_per_runtime(self):
        params = EngineCostParams()
        base = ExperimentSpec.for_model("phi2", n_runs=1)
        gguf = ExperimentSpec.for_model("phi2", n_runs=1, runtime="gguf")
        assert spec_fingerprint(base, params) != spec_fingerprint(gguf, params)

    def test_fingerprint_sees_backend_configuration_via_kv_mode(self):
        params = EngineCostParams()
        dyn = ExperimentSpec.for_model("phi2", n_runs=1)
        static = ExperimentSpec.for_model("phi2", n_runs=1, kv_mode="static")
        assert spec_fingerprint(dyn, params) != spec_fingerprint(static,
                                                                 params)


class TestRuntimeSweepSpecs:
    def test_defaults_cover_every_registered_backend(self):
        from repro.backends import list_backends

        specs = runtime_sweep_specs(ExperimentSpec.for_model("phi2",
                                                             n_runs=1))
        assert [s.runtime for s in specs] == list_backends()

    def test_non_hf_points_drop_the_kv_mode_ablation(self):
        base = ExperimentSpec.for_model("phi2", n_runs=1, kv_mode="static")
        specs = runtime_sweep_specs(base, runtimes=("hf-transformers",
                                                    "paged"))
        assert specs[0].kv_mode == "static"
        assert specs[1].kv_mode == "dynamic"
