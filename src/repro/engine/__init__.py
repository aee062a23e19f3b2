"""The simulated inference runtime.

Mirrors the paper's serving stack (PyTorch + HF ``generate`` on the
device) as a discrete-event simulation:

- :mod:`repro.engine.kernels` — the per-step cost model (roofline with
  partial overlap, kernel-execution floors, host-side overheads,
  quantization kernel costs) and its calibratable parameters.
- :mod:`repro.engine.request` — batch descriptors and results.
- :mod:`repro.engine.state` — live engine state the power sampler reads.
- :mod:`repro.engine.executor` — the prefill/decode loop as a DES
  process, driving the caching allocator for weights/KV/workspace.
- :mod:`repro.engine.runtime` — :class:`ServingEngine`, the public API:
  load a model at a precision on a device, run batched workloads with
  the paper's warmup + 5-run protocol, collect metrics.
"""

from repro.engine.kernels import EngineCostParams, StepCost, StepTimer
from repro.engine.request import BatchRequest, BatchResult, GenerationSpec
from repro.engine.runtime import RunResult, ServingEngine
from repro.engine.state import EngineState
from repro.engine.scheduler import ServingReport, StaticBatchScheduler
from repro.engine.splitwise import SplitServingResult, simulate_phase_split
from repro.engine.sustained import SustainedSample, run_sustained

__all__ = [
    "ServingReport",
    "SplitServingResult",
    "StaticBatchScheduler",
    "simulate_phase_split",
    "BatchRequest",
    "BatchResult",
    "EngineCostParams",
    "EngineState",
    "GenerationSpec",
    "RunResult",
    "ServingEngine",
    "StepCost",
    "StepTimer",
    "SustainedSample",
    "run_sustained",
]
