"""The hf-transformers backend is the pre-refactor engine, bit for bit.

``LegacyReplicaBackend`` below reimplements — verbatim — what
``ServingEngine`` inlined before runtime backends existed: per-layer
checkpoint loading, the calibrated PyTorch workspace formula, a plain
:class:`StepTimer` and the dynamic/static :class:`BatchExecutor`.
Driving the engine once with it and once with the stock
``hf-transformers`` backend must produce *identical* floats (no
tolerance) across the precision × power-mode × kv-mode grid, including
the OOM boundaries and the fast-forward/stepped split.
"""

from dataclasses import dataclass

import pytest

from repro.backends import get_backend
from repro.backends.base import RuntimeBackend
from repro.core import ExperimentSpec, run_experiment
from repro.engine.executor import BatchExecutor
from repro.engine.kernels import StepTimer
from repro.engine.request import GenerationSpec
from repro.engine.runtime import ServingEngine
from repro.hardware import get_device
from repro.models import get_model
from repro.power.modes import get_power_mode
from repro.quant.dtypes import Precision


@dataclass(frozen=True)
class LegacyReplicaBackend(RuntimeBackend):
    """The pre-backend ServingEngine internals, copied exactly.

    Deliberately *not* registered: it exists only to pin the refactor.
    """

    name = "legacy-replica"
    kv_mode: str = "dynamic"

    def weight_bytes(self, arch, precision):
        from repro.models.footprint import weight_bytes

        return weight_bytes(arch, precision)

    def load_weights(self, allocator, arch, precision):
        total = self.weight_bytes(arch, precision)
        per_layer = total // (arch.n_layers + 2)
        remainder = total - per_layer * (arch.n_layers + 2)
        for i in range(arch.n_layers + 2):
            n = per_layer + (remainder if i == 0 else 0)
            allocator.alloc(n, tag=f"weights.{i}")

    def make_timer(self, arch, device, precision, params=None):
        return StepTimer(arch, device, precision, params)

    def workspace_bytes(self, arch, precision, batch_size):
        from repro.calibration.constants import (
            INT4_WORKLOAD_OVERHEAD_GB_PER_BPARAM,
            INT8_WORKLOAD_OVERHEAD_GB_PER_BPARAM,
            RUNTIME_WORKSPACE_GB,
        )

        extra_gb = 0.0
        if precision is Precision.INT8:
            coeff = INT8_WORKLOAD_OVERHEAD_GB_PER_BPARAM
        elif precision is Precision.INT4:
            coeff = INT4_WORKLOAD_OVERHEAD_GB_PER_BPARAM
        else:
            coeff = 0.0
        if coeff:
            extra_gb = coeff * arch.n_params_billions * (batch_size**0.4 - 1.0)
        return int((RUNTIME_WORKSPACE_GB + extra_gb) * 1e9)

    def make_executor(self, timer, allocator, arch, precision, batch_size,
                      fast_forward=True):
        return BatchExecutor(
            timer,
            allocator,
            kv_mode=self.kv_mode,
            workspace_bytes=self.workspace_bytes(arch, precision, batch_size),
            fast_forward=fast_forward,
        )

    def decode_concat_bytes(self, live_kv_bytes):
        return 2 * live_kv_bytes


def _run(backend, model="phi2", precision=Precision.FP16, batch_size=8,
         gen=GenerationSpec(32, 64), power_mode="MAXN", fast_forward=True,
         n_runs=2):
    engine = ServingEngine(get_device("jetson-orin-agx-64gb"),
                           get_model(model), precision, backend=backend,
                           fast_forward=fast_forward)
    return engine.run(batch_size=batch_size, gen=gen, n_runs=n_runs,
                      warmup=1, power_mode=get_power_mode(power_mode))


def assert_identical(a, b):
    """Exact equality on every measured field — no tolerances."""
    assert a.oom == b.oom
    assert a.mean_latency_s == b.mean_latency_s
    assert a.throughput_tok_s == b.throughput_tok_s
    assert a.model_gb == b.model_gb
    assert a.incremental_gb == b.incremental_gb
    assert a.total_gb == b.total_gb
    assert a.median_power_w == b.median_power_w
    assert a.energy_j == b.energy_j
    assert len(a.batches) == len(b.batches)
    for ba, bb in zip(a.batches, b.batches):
        assert ba.prefill_s == bb.prefill_s
        assert ba.decode_s == bb.decode_s
        assert ba.latency_s == bb.latency_s
        assert ba.oom == bb.oom


class TestBitIdenticalGrid:
    @pytest.mark.parametrize("precision", [Precision.FP16, Precision.INT8,
                                           Precision.INT4])
    @pytest.mark.parametrize("power_mode", ["MAXN", "C"])
    def test_precision_power_grid(self, precision, power_mode):
        new = _run(get_backend("hf-transformers"),
                   precision=precision, power_mode=power_mode)
        old = _run(LegacyReplicaBackend(),
                   precision=precision, power_mode=power_mode)
        assert_identical(new, old)

    @pytest.mark.parametrize("kv_mode", ["dynamic", "static"])
    def test_kv_modes(self, kv_mode):
        new = _run(get_backend("hf-transformers", kv_mode=kv_mode))
        old = _run(LegacyReplicaBackend(kv_mode=kv_mode))
        assert_identical(new, old)

    def test_stepped_decode(self):
        new = _run(get_backend("hf-transformers"), fast_forward=False)
        old = _run(LegacyReplicaBackend(), fast_forward=False)
        assert_identical(new, old)
        # Fast-forward itself is bit-identical to stepping (pre-existing
        # invariant, re-pinned here through the backend path).
        assert_identical(new, _run(get_backend("hf-transformers")))

    def test_mid_run_oom_boundary(self):
        kwargs = dict(model="llama", batch_size=256,
                      gen=GenerationSpec(2048, 64), n_runs=1)
        new = _run(get_backend("hf-transformers"), **kwargs)
        old = _run(LegacyReplicaBackend(), **kwargs)
        assert new.oom and old.oom
        assert_identical(new, old)

    def test_load_oom_boundary(self):
        from repro.errors import OutOfMemoryError

        for backend in (get_backend("hf-transformers"),
                        LegacyReplicaBackend()):
            with pytest.raises(OutOfMemoryError):
                ServingEngine(get_device("jetson-orin-agx-64gb"),
                              get_model("mistral"), Precision.FP32,
                              backend=backend)


class TestSpecPathParity:
    def test_run_experiment_default_is_the_hf_backend(self):
        spec = ExperimentSpec.for_model("phi2", batch_size=4, n_runs=1)
        explicit = ExperimentSpec.for_model("phi2", batch_size=4, n_runs=1,
                                            runtime="hf-transformers")
        a = run_experiment(spec)
        b = run_experiment(explicit)
        assert a.runtime == b.runtime == "hf-transformers"
        assert_identical(a, b)

    def test_engine_default_backend_is_hf(self):
        engine = ServingEngine(get_device("jetson-orin-agx-64gb"),
                               get_model("phi2"), Precision.FP16)
        assert engine.backend.name == "hf-transformers"
        assert engine.backend.kv_mode == "dynamic"

    def test_observed_spans_match_across_paths(self):
        from repro.obs import Observer

        spans = []
        for backend in (get_backend("hf-transformers"),
                        LegacyReplicaBackend()):
            obs = Observer()
            engine = ServingEngine(get_device("jetson-orin-agx-64gb"),
                                   get_model("phi2"), Precision.FP16,
                                   backend=backend, observer=obs)
            engine.run(batch_size=2, gen=GenerationSpec(16, 16), n_runs=1)
            spans.append([(s.name, s.start_s, s.end_s) for s in obs.spans])
        assert spans[0] == spans[1]
