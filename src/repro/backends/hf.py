"""The paper's runtime: HuggingFace Transformers + PyTorch + bitsandbytes.

This backend is *extracted* from the pre-refactor ``ServingEngine``
internals — per-layer checkpoint loading, the calibrated runtime
workspace, :class:`~repro.engine.kernels.StepTimer` and the
dynamic-KV :class:`~repro.engine.executor.BatchExecutor` — so it is
bit-identical to the engine before backends existed (asserted by
``tests/backends/test_hf_parity.py`` across the precision×power-mode
grid).  Every calibration constant therefore still traces to the source
paper's measurements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import RuntimeBackend
from repro.backends.registry import register_backend
from repro.engine.executor import BatchExecutor
from repro.engine.kernels import StepTimer
from repro.errors import ConfigError
from repro.models.footprint import weight_bytes
from repro.quant.dtypes import Precision


def load_checkpoint_weights(allocator, arch, precision: Precision,
                            total: int) -> None:
    """Allocate ``total`` weight bytes per layer, as a checkpoint load
    does (shared with the vLLM-style backend, which loads the same
    safetensors shards)."""
    per_layer = total // (arch.n_layers + 2)
    remainder = total - per_layer * (arch.n_layers + 2)
    for i in range(arch.n_layers + 2):
        n = per_layer + (remainder if i == 0 else 0)
        allocator.alloc(n, tag=f"weights.{i}")


def torch_workspace_bytes(arch, precision: Precision, batch_size: int) -> int:
    """PyTorch runtime workspace: CUDA context + cuBLAS scratch, plus the
    bitsandbytes per-parameter overhead that grows sublinearly with
    batch (calibrated against the paper's appendix memory tables)."""
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


@register_backend
@dataclass(frozen=True)
class HFTransformersBackend(RuntimeBackend):
    """HF ``generate`` loop with a growing DynamicCache (the default)."""

    name = "hf-transformers"
    description = ("HuggingFace Transformers + PyTorch + bitsandbytes "
                   "(the paper's measured stack)")

    #: ``"dynamic"`` (DynamicCache concat churn, the paper's setup) or
    #: ``"static"`` (pre-allocated cache; ablation).
    kv_mode: str = "dynamic"

    def __post_init__(self) -> None:
        if self.kv_mode not in ("dynamic", "static"):
            raise ConfigError(f"unknown kv_mode {self.kv_mode!r}")

    def weight_bytes(self, arch, precision: Precision) -> int:
        return weight_bytes(arch, precision)

    def load_weights(self, allocator, arch, precision: Precision) -> None:
        load_checkpoint_weights(allocator, arch, precision,
                                self.weight_bytes(arch, precision))

    def make_timer(self, arch, device, precision: Precision, params=None):
        return StepTimer(arch, device, precision, params)

    def workspace_bytes(self, arch, precision: Precision,
                        batch_size: int) -> int:
        return torch_workspace_bytes(arch, precision, batch_size)

    def make_executor(self, timer, allocator, arch, precision: Precision,
                      batch_size: int, fast_forward: bool = True):
        return BatchExecutor(
            timer,
            allocator,
            kv_mode=self.kv_mode,
            workspace_bytes=self.workspace_bytes(arch, precision, batch_size),
            fast_forward=fast_forward,
        )

    def decode_concat_bytes(self, live_kv_bytes):
        # DynamicCache growth: read + rewrite the whole cache per step.
        return 2 * live_kv_bytes

    def decode_concat_run(self, kv_bytes_per_ctx):
        # Read ctx tokens' cache, write the same ctx tokens back.
        return kv_bytes_per_ctx, 0
