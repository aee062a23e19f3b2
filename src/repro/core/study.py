"""Run the entire paper in one call."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.experiment import ExperimentSpec
from repro.errors import ExperimentError
from repro.core.parallel import run_specs
from repro.core.sweeps import (
    batch_quant_power_sweep_specs,
    batch_size_sweep_specs,
    power_mode_sweep_specs,
    quantization_sweep_specs,
    seq_len_sweep_specs,
)
from repro.engine.kernels import EngineCostParams
from repro.engine.runtime import RunResult
from repro.hardware.device import get_device
from repro.models.footprint import footprint_table
from repro.models.zoo import PAPER_MODELS
from repro.perplexity.analytical import perplexity_table
from repro.quant.dtypes import Precision


@dataclass(frozen=True)
class StudySpec:
    """What to reproduce: the study-level counterpart of ExperimentSpec.

    ``models=None`` means every paper model; ``n_runs`` follows the
    paper's measurement protocol (5) — lower it for smoke runs.
    """

    models: Optional[Tuple[str, ...]] = None
    n_runs: int = 5
    include_power_energy: bool = True
    fast_forward: bool = True
    #: Inference-runtime backend every planned experiment runs on.
    runtime: str = "hf-transformers"

    def __post_init__(self) -> None:
        if self.n_runs < 1:
            raise ExperimentError("study needs n_runs >= 1")
        from repro.backends import get_backend

        get_backend(self.runtime)  # typed ConfigError on unknown names

    @classmethod
    def of(cls, models: Optional[Sequence[str]] = None,
           **overrides) -> "StudySpec":
        """Build a spec, normalising any model list to a tuple."""
        if models is not None:
            overrides["models"] = tuple(models)
        return cls(**overrides)


@dataclass
class FullStudyResults:
    """Every table/figure's data, keyed the way the benches consume it."""

    table1_footprints: List[dict] = field(default_factory=list)
    table3_perplexity: List[dict] = field(default_factory=list)
    batch_sweeps: Dict[str, Dict[str, List[RunResult]]] = field(default_factory=dict)
    seqlen_sweeps: Dict[str, Dict[str, List[RunResult]]] = field(default_factory=dict)
    quant_sweeps: Dict[str, List[RunResult]] = field(default_factory=dict)
    power_mode_sweeps: Dict[str, List[RunResult]] = field(default_factory=dict)
    power_energy_sweeps: Dict[str, Dict[Precision, List[RunResult]]] = field(
        default_factory=dict
    )


#: (slot, model, sub-key) — addresses where one spec's result lands in
#: :class:`FullStudyResults`.  sub-key is a workload name, a Precision,
#: or None depending on the slot.
_Slot = Tuple[str, str, object]


def _build_plan(
    models: List[str], n_runs: int, include_power_energy: bool,
    runtime: str = "hf-transformers",
) -> List[Tuple[_Slot, ExperimentSpec]]:
    """Flatten every sweep of every model into one ordered spec list.

    The order is exactly the order the pre-fan-out serial loop issued
    experiments in, so a serial replay of the plan touches configurations
    in the historical order (and progress output stays comparable).
    """
    plan: List[Tuple[_Slot, ExperimentSpec]] = []
    for model in models:
        for wl in ("wikitext2", "longbench"):
            for spec in batch_size_sweep_specs(
                    ExperimentSpec.for_model(model, workload=wl,
                                             n_runs=n_runs,
                                             runtime=runtime)):
                plan.append((("batch", model, wl), spec))
        for wl in ("wikitext2", "longbench"):
            for spec in seq_len_sweep_specs(
                    ExperimentSpec.for_model(model, workload=wl,
                                             n_runs=n_runs,
                                             runtime=runtime)):
                plan.append((("seqlen", model, wl), spec))
        for spec in quantization_sweep_specs(
                ExperimentSpec.for_model(model, n_runs=n_runs,
                                         runtime=runtime)):
            plan.append((("quant", model, None), spec))
        for spec in power_mode_sweep_specs(
                ExperimentSpec.for_model(model, n_runs=n_runs,
                                         runtime=runtime)):
            plan.append((("power_mode", model, None), spec))
        if include_power_energy:
            grid = batch_quant_power_sweep_specs(
                ExperimentSpec.for_model(model, n_runs=n_runs,
                                         runtime=runtime))
            for prec, specs in grid.items():
                for spec in specs:
                    plan.append((("power_energy", model, prec), spec))
    return plan


def run_full_study(
    spec: Optional[StudySpec] = None,
    params: Optional[EngineCostParams] = None,
    progress: bool = False,
    jobs: Optional[int] = None,
    cache=None,
    observer=None,
) -> FullStudyResults:
    """Reproduce every experiment of the paper on the simulated board.

    ``spec`` (a :class:`StudySpec`) says *what* to run; the remaining
    arguments say *how* (cost params, process fan-out, cache, progress,
    observability).  ``run_full_study()`` bare runs the full paper.

    ``jobs`` fans the configurations out over a process pool
    (``-1`` = all cores); results are identical to a serial run, in the
    same order.  ``cache`` (a :class:`~repro.core.cache.ResultCache`)
    skips configurations whose results are already on disk.  An enabled
    ``observer`` (:class:`repro.obs.Observer`) collects spans for every
    configuration — and forces the serial, uncached path, since neither
    a worker process nor a cache hit can produce span records.
    """
    if spec is None:
        spec = StudySpec()
    models = list(spec.models) if spec.models is not None else list(PAPER_MODELS)
    n_runs = spec.n_runs
    include_power_energy = spec.include_power_energy
    fast_forward = spec.fast_forward
    results = FullStudyResults()

    results.table1_footprints = footprint_table(
        [PAPER_MODELS[m] for m in models if m in PAPER_MODELS]
    )
    results.table3_perplexity = perplexity_table(get_device("jetson-orin-agx-64gb"))

    def log(msg: str) -> None:
        if progress:  # pragma: no cover - cosmetic
            print(msg, flush=True)

    plan = _build_plan(models, n_runs, include_power_energy,
                       runtime=spec.runtime)
    log(f"[study] {len(plan)} configurations across {len(models)} model(s), "
        f"jobs={jobs or 1}")
    runs = run_specs([s for _, s in plan], params=params, jobs=jobs,
                     cache=cache, fast_forward=fast_forward,
                     observer=observer)

    # Reassemble in plan order: append order within each slot list equals
    # the order the specs were planned, which equals serial sweep order.
    for (slot, model, sub), result in zip((s for s, _ in plan), runs):
        if slot == "batch":
            results.batch_sweeps.setdefault(model, {}).setdefault(sub, []).append(result)
        elif slot == "seqlen":
            results.seqlen_sweeps.setdefault(model, {}).setdefault(sub, []).append(result)
        elif slot == "quant":
            results.quant_sweeps.setdefault(model, []).append(result)
        elif slot == "power_mode":
            results.power_mode_sweeps.setdefault(model, []).append(result)
        elif slot == "power_energy":
            results.power_energy_sweeps.setdefault(model, {}).setdefault(sub, []).append(result)
    if cache is not None:
        log(f"[study] cache: {cache.stats.as_row()}")
    return results
