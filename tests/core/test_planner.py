"""Feasibility probes, cross-validated against the paper's OOM cells."""

import pytest

from repro.engine.request import GenerationSpec
from repro.errors import ExperimentError
from repro.plan import engine_feasible, probe_max_batch, probe_max_seq_len
from repro.quant.dtypes import Precision


class TestMaxBatch:
    def test_phi2_supports_paper_batch_range(self):
        best = probe_max_batch("phi2", Precision.FP16, upper=512)
        assert best is not None
        assert best >= 128  # the paper ran bs=128 successfully

    def test_oversized_model_returns_none(self):
        assert probe_max_batch("deepq", Precision.FP16,
                               gen=GenerationSpec(2, 2)) is None

    def test_boundary_is_tight(self):
        best = probe_max_batch("mistral", Precision.FP16, upper=256)
        assert best is not None
        assert engine_feasible("mistral", Precision.FP16,
                               "jetson-orin-agx-64gb", best,
                               GenerationSpec(32, 64))
        if best < 256:
            assert not engine_feasible("mistral", Precision.FP16,
                                       "jetson-orin-agx-64gb", best + 1,
                                       GenerationSpec(32, 64))

    def test_validation(self):
        with pytest.raises(ExperimentError):
            probe_max_batch("phi2", Precision.FP16, upper=0)

    def test_probes_run_on_boards_that_cannot_apply_agx_clocks(self):
        """The Orin NX cannot apply the paper's AGX MAXN clocks; the
        probe runs it at its native operating point instead (the OOM
        boundary is clock-independent)."""
        best = probe_max_batch("phi2", Precision.FP16,
                               device="jetson-orin-nx-16gb", upper=64)
        assert best is not None
        assert 1 <= best <= 64


class TestMaxSeqLen:
    def test_phi2_boundary_matches_paper_oom_band(self):
        """The paper: Phi-2 runs sl=256 and OOMs at sl=512 (bs=32)."""
        best = probe_max_seq_len("phi2", Precision.FP16, batch_size=32)
        assert best is not None
        assert 256 <= best < 512

    def test_llama_comfortably_exceeds_1024(self):
        best = probe_max_seq_len("llama", Precision.FP16, batch_size=32,
                                 upper=4096)
        assert best is not None
        assert best >= 1024  # the paper ran sl=1024

    def test_smaller_batch_allows_longer_context(self):
        b32 = probe_max_seq_len("phi2", Precision.FP16, batch_size=32)
        b8 = probe_max_seq_len("phi2", Precision.FP16, batch_size=8)
        assert b8 > b32

    def test_validation(self):
        with pytest.raises(ExperimentError):
            probe_max_seq_len("phi2", Precision.FP16, input_fraction=1.5)


class TestSpecSurface:
    def test_feasibility_envelope_via_planspec(self):
        from repro.plan import PlanSpec

        env = PlanSpec(model="phi2", input_tokens=32,
                       output_tokens=64).feasibility(
            upper_batch=256, batch_size=32)
        assert env.max_batch_size is not None
        assert env.max_batch_size >= 128
        assert env.max_seq_len is not None
        assert 256 <= env.max_seq_len < 512

    def test_envelope_is_none_when_weights_overflow(self):
        from repro.plan import PlanSpec

        env = PlanSpec(model="deepq", input_tokens=2,
                       output_tokens=2).feasibility(upper_batch=4)
        assert env.max_batch_size is None
        assert env.max_seq_len is None

    def test_probe_call_is_warning_free(self, recwarn):
        probe_max_batch("phi2", Precision.FP16, upper=64)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]
