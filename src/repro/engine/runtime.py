"""The serving engine: public API tying device, model, memory and power.

Typical use::

    from repro.engine import ServingEngine, GenerationSpec
    from repro.hardware import get_device
    from repro.models import get_model
    from repro.quant import Precision

    engine = ServingEngine(get_device("jetson-orin-agx-64gb"),
                           get_model("llama"), Precision.FP16)
    res = engine.run(batch_size=32, gen=GenerationSpec(32, 64))
    print(res.mean_latency_s, res.throughput_tok_s, res.median_power_w)

Each :meth:`run` applies the paper's measurement protocol: one warm-up
batch, then ``n_runs`` measured batches; latency/throughput are averaged
across runs, memory milestones come from the tracker, power is the
median of the 2-second samples and energy the trapezoidal integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.kernels import EngineCostParams
from repro.engine.request import BatchRequest, BatchResult, GenerationSpec
from repro.engine.state import EngineState
from repro.errors import ExperimentError, OutOfMemoryError
from repro.hardware.device import EdgeDevice
from repro.memsys.allocator import CachingAllocator
from repro.memsys.tracker import MemoryTracker
from repro.models.architecture import TransformerArchitecture
from repro.obs import kinds
from repro.obs.span import NULL_OBSERVER, Observer
from repro.power.model import PowerModel
from repro.power.modes import PowerMode, apply_power_mode
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment
from repro.telemetry.energy import median_power_w, trapezoid_energy_j
from repro.telemetry.sampler import PowerSampler


@dataclass
class RunResult:
    """Aggregated outcome of one measured configuration."""

    model: str
    device: str
    precision: Precision
    batch_size: int
    gen: GenerationSpec
    power_mode: str
    #: Dataset label of the experiment spec ("" when the engine is
    #: driven directly without a spec).
    workload: str = ""
    #: Inference-runtime backend that produced the numbers.
    runtime: str = "hf-transformers"
    oom: bool = False
    mean_latency_s: float = 0.0
    throughput_tok_s: float = 0.0
    model_gb: float = 0.0
    incremental_gb: float = 0.0
    total_gb: float = 0.0
    median_power_w: float = 0.0
    energy_j: float = 0.0
    batches: List[BatchResult] = field(default_factory=list)

    def as_row(self) -> dict:
        """Flat dict for tables/CSV.

        Includes ``device`` and ``workload`` so rows from mixed-device
        sweeps (device ladders, cluster fleets) and mixed-dataset runs
        stay distinguishable in one CSV.
        """
        return {
            "model": self.model,
            "device": self.device,
            "workload": self.workload,
            "runtime": self.runtime,
            "precision": self.precision.value,
            "power_mode": self.power_mode,
            "batch_size": self.batch_size,
            "seq_len": self.gen.total_tokens,
            "oom": self.oom,
            "ram_gb": round(self.total_gb, 2),
            "latency_s": round(self.mean_latency_s, 2),
            "throughput_tok_s": round(self.throughput_tok_s, 2),
            "power_w": round(self.median_power_w, 1),
            "energy_j": round(self.energy_j, 1),
        }


class ServingEngine:
    """A loaded model on a device, ready to serve batches.

    Construction simulates the model load (weights through the caching
    allocator); it raises :class:`OutOfMemoryError` if the weights do
    not fit, matching the paper's OOM cells for FP32 Mistral and
    FP32/FP16 Deepseek on the 64 GB board.
    """

    def __init__(
        self,
        device: EdgeDevice,
        arch: TransformerArchitecture,
        precision: Precision,
        params: Optional[EngineCostParams] = None,
        power_model: Optional[PowerModel] = None,
        sample_period_s: float = 2.0,
        fast_forward: bool = True,
        observer: Optional[Observer] = None,
        backend=None,
    ):
        # Imported lazily: calibration constants are themselves expressed
        # as EngineCostParams, and backends build on the engine modules,
        # so module-level imports would be circular.
        from repro.backends.base import resolve_backend
        from repro.calibration.constants import CALIBRATED_COST_PARAMS

        self.backend = resolve_backend(backend)
        self.device = device
        self.arch = arch
        self.precision = precision
        self.params = params or CALIBRATED_COST_PARAMS
        self.power_model = power_model or PowerModel()
        self.sample_period_s = sample_period_s
        self.fast_forward = fast_forward

        # GC tuning mirrors a caching allocator under moderate pressure:
        # the fraction threshold bounds churn relative to live tensors,
        # and the dead cap releases the stranded segments that lock-step
        # growing KV streams leave behind 2 MiB boundary crossings —
        # keeping incremental peaks in line with the paper's appendix.
        self.allocator = CachingAllocator(
            device.memory.usable_bytes, gc_threshold=0.35,
            dead_cap_bytes=int(2e9),
        )
        self.tracker = MemoryTracker(self.allocator)
        #: Observability sink: spans/metrics land here when enabled.
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.timer = self.backend.make_timer(arch, device, precision,
                                             self.params)

        self.tracker.mark_baseline()
        self._load_weights()
        self.tracker.mark_model_loaded()

    def _load_weights(self) -> None:
        """Allocate weights the way the backend's loader lays them out."""
        self.backend.load_weights(self.allocator, self.arch, self.precision)

    # -- public ------------------------------------------------------------
    def run(
        self,
        batch_size: int,
        gen: GenerationSpec,
        n_runs: int = 5,
        warmup: int = 1,
        power_mode: Optional[PowerMode] = None,
    ) -> RunResult:
        """Measure one configuration with the paper's protocol."""
        if n_runs < 1 or warmup < 0:
            raise ExperimentError("need n_runs >= 1 and warmup >= 0")
        if power_mode is not None:
            apply_power_mode(self.device, power_mode)
        mode_name = power_mode.name if power_mode is not None else "MAXN"

        # Peaks are per-run: an engine reused across configurations must
        # not report an earlier, larger configuration's high-water mark.
        self.allocator.reset_peaks()

        request = BatchRequest(batch_size=batch_size, gen=gen)
        executor = self.backend.make_executor(
            self.timer,
            self.allocator,
            self.arch,
            self.precision,
            batch_size,
            fast_forward=self.fast_forward,
        )

        env = Environment()
        state = EngineState()
        obs = self.obs
        obs.bind(env)
        sampler = PowerSampler(
            env, self.device, self.power_model, state,
            period_s=self.sample_period_s, obs=obs, obs_track="engine",
        )
        sampler.start()

        measure_start = [0.0]

        def session():
            batches: List[BatchResult] = []
            for i in range(warmup + n_runs):
                if i == warmup:
                    measure_start[0] = env.now
                batch_span = obs.begin(kinds.BATCH, cat=kinds.CAT_ENGINE,
                                       track="engine", index=i,
                                       warmup=i < warmup)
                res = yield from executor.run(env, request, state,
                                              obs=obs, track="engine")
                obs.end(batch_span, oom=res.oom)
                if obs.enabled:
                    # TTFT is the prefill phase in the static-batch
                    # protocol; decode is everything after it.
                    m = obs.metrics
                    m.counter("batches_total").inc()
                    if res.oom:
                        m.counter("oom_total").inc()
                    else:
                        m.histogram("ttft_s").observe(res.prefill_s)
                        m.histogram("decode_s").observe(res.decode_s)
                        m.counter("tokens_total").inc(
                            request.batch_size * gen.output_tokens)
                if i >= warmup or res.oom:
                    # OOM during warm-up still counts: the configuration
                    # is infeasible, as in the paper's OOM cells.
                    batches.append(res)
                if res.oom:
                    break
            sampler.stop()
            return batches

        done = env.process(session(), name="measure-session")
        batches: List[BatchResult] = env.run(until=done)

        result = RunResult(
            model=self.arch.name,
            device=self.device.name,
            precision=self.precision,
            batch_size=batch_size,
            gen=gen,
            power_mode=mode_name,
            runtime=self.backend.name,
            batches=batches,
        )
        self.tracker.finish()
        result.model_gb = self.tracker.model_bytes / 1e9
        result.incremental_gb = self.tracker.incremental_peak_bytes / 1e9
        result.total_gb = self.tracker.total_peak_bytes / 1e9

        if any(b.oom for b in batches):
            result.oom = True
            return result

        ok = [b for b in batches if not b.oom]
        result.mean_latency_s = sum(b.latency_s for b in ok) / len(ok)
        result.throughput_tok_s = sum(b.throughput_tok_s for b in ok) / len(ok)
        # Energy/power cover only the measured batches, not the warm-up.
        samples = [s for s in sampler.samples if s.time_s >= measure_start[0]]
        if len(samples) >= 2:
            result.median_power_w = median_power_w(samples)
            result.energy_j = trapezoid_energy_j(samples)
        else:
            # Short runs: fall back to instantaneous estimates.
            watts = self.power_model.power_w(self.device, state.util)
            result.median_power_w = watts
            result.energy_j = watts * env.now
        return result
