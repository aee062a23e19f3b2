"""One experiment configuration and its execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.calibration import paperdata
from repro.engine.kernels import EngineCostParams
from repro.engine.request import GenerationSpec
from repro.engine.runtime import RunResult, ServingEngine
from repro.errors import ExperimentError, OutOfMemoryError
from repro.hardware.device import get_device
from repro.models.zoo import get_model
from repro.power.modes import get_power_mode
from repro.quant.dtypes import Precision


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one measured cell of the paper.

    Defaults mirror the paper's defaults: Orin AGX 64GB, MAXN, batch
    size 32, sequence length 96 (32 input + 64 output), FP16 — except
    Deepseek-Qwen, which only fits at INT8 (pass the precision
    explicitly or use :func:`default_precision_for`).
    """

    model: str
    precision: Precision = Precision.FP16
    device: str = "jetson-orin-agx-64gb"
    batch_size: int = 32
    gen: GenerationSpec = field(default_factory=lambda: GenerationSpec(32, 64))
    #: A paper Table-2 mode name, or None to leave the board at its
    #: native operating point (nvpmodel's MAXN is per-device; the named
    #: "MAXN" here carries the AGX's Table-2 clocks, which smaller
    #: boards cannot apply).  Feasibility probes pass None: the OOM
    #: boundary does not depend on clocks.
    power_mode: Optional[str] = "MAXN"
    workload: str = "wikitext2"
    n_runs: int = 5
    warmup: int = 1
    kv_mode: str = "dynamic"
    #: Inference-runtime backend (see :func:`repro.backends.list_backends`).
    runtime: str = "hf-transformers"

    def __post_init__(self) -> None:
        if self.kv_mode not in ("dynamic", "static"):
            raise ExperimentError(f"unknown kv_mode {self.kv_mode!r}")
        if self.workload not in ("wikitext2", "longbench"):
            raise ExperimentError(f"unknown workload {self.workload!r}")
        # get_backend raises the typed ConfigError (listing valid names)
        # for unknown runtimes; instantiating also validates its config.
        backend_for_spec(self)
        if self.runtime != "hf-transformers" and self.kv_mode != "dynamic":
            raise ExperimentError(
                "kv_mode is an hf-transformers concern; the "
                f"{self.runtime!r} runtime fixes its own KV policy")

    @classmethod
    def for_model(cls, model: str, **overrides) -> "ExperimentSpec":
        """Spec for one model at the paper's sweep precision.

        The precision default is *model-dependent* (Deepseek-Qwen only
        fits at INT8), so this is the preferred constructor whenever the
        caller has not chosen a precision deliberately.
        """
        overrides.setdefault("precision", default_precision_for(model))
        return cls(model=model, **overrides)


def backend_for_spec(spec: "ExperimentSpec"):
    """The configured :class:`~repro.backends.base.RuntimeBackend` a spec
    selects (the hf backend absorbs the spec's legacy ``kv_mode``)."""
    from repro.backends import get_backend

    if spec.runtime == "hf-transformers":
        return get_backend("hf-transformers", kv_mode=spec.kv_mode)
    return get_backend(spec.runtime)


def default_precision_for(model_name: str) -> Precision:
    """The precision the paper's performance sweeps used for a model."""
    arch = get_model(model_name)
    name = paperdata.SWEEP_PRECISION.get(arch.name, "fp16")
    return Precision.parse(name)


def run_experiment(
    spec: ExperimentSpec,
    params: Optional[EngineCostParams] = None,
    cache=None,
    fast_forward: bool = True,
    observer=None,
) -> RunResult:
    """Execute one spec; OOM (at load or mid-run) yields ``oom=True``.

    When ``cache`` is a :class:`~repro.core.cache.ResultCache`, the
    result is looked up by content address before simulating and stored
    after; ``cache=None`` reads and writes nothing.  The cache key covers
    the spec, the effective cost constants, and the cost-model version,
    so stale hits are impossible without a hash collision.  Two
    processes racing on one cold key both simulate it; the atomic write
    makes that harmless.

    An enabled ``observer`` (:class:`repro.obs.Observer`) collects
    spans/metrics for the run — and *bypasses* the cache: a cached hit
    replays no simulation, so it would produce an empty trace that
    silently masqueraded as a real one.
    """
    from repro.calibration.constants import CALIBRATED_COST_PARAMS

    if observer is not None and observer.enabled:
        observer.set_group(f"{spec.model}/{spec.device}")
        cache = None
    if cache is None:
        return _simulate_spec(spec, params, fast_forward, observer)
    # The engine falls back to the calibrated constants when params is
    # None; the cache key must hash the constants actually in effect.
    effective_params = params or CALIBRATED_COST_PARAMS
    result = cache.get(spec, effective_params)
    if result is None:
        result = _simulate_spec(spec, params, fast_forward, observer)
        cache.put(spec, effective_params, result)
    return result


def _simulate_spec(
    spec: ExperimentSpec,
    params: Optional[EngineCostParams],
    fast_forward: bool,
    observer,
) -> RunResult:
    """Run the simulation for one spec (the cache-miss path)."""
    arch = get_model(spec.model)
    device = get_device(spec.device)
    mode = (get_power_mode(spec.power_mode)
            if spec.power_mode is not None else None)
    try:
        engine = ServingEngine(device, arch, spec.precision, params=params,
                               backend=backend_for_spec(spec),
                               fast_forward=fast_forward,
                               observer=observer)
    except OutOfMemoryError:
        # The model itself does not fit (e.g. FP32 Mistral on 64GB).
        result = RunResult(
            model=arch.name,
            device=device.name,
            precision=spec.precision,
            batch_size=spec.batch_size,
            gen=spec.gen,
            power_mode=spec.power_mode or "MAXN",
            workload=spec.workload,
            runtime=spec.runtime,
            oom=True,
        )
    else:
        result = engine.run(
            batch_size=spec.batch_size,
            gen=spec.gen,
            n_runs=spec.n_runs,
            warmup=spec.warmup,
            power_mode=mode,
        )
        result.workload = spec.workload
    return result
