"""The paper's four experiment sweeps (§3.1-§3.4).

Each sweep is split into a pure ``*_sweep_specs`` builder (the grid of
:class:`~repro.core.experiment.ExperimentSpec` points, in paper order)
and a thin runner that executes the specs.  The builders let the study
harness collect every spec of every sweep into one flat plan and fan it
out across processes (:mod:`repro.core.parallel`) while reassembling
results in exactly the order the serial runners would produce.

Every entry point is **spec-first**: the first argument is an
:class:`~repro.core.experiment.ExperimentSpec` template and each grid
point is a :func:`dataclasses.replace` of it along the sweep's axis::

    spec = ExperimentSpec.for_model("llama", n_runs=3)
    runs = batch_size_sweep(spec, batch_sizes=(1, 32, 64))

A bare model name is refused with a :class:`TypeError` that points at
``ExperimentSpec.for_model``.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence

from repro.calibration import paperdata
from repro.core.experiment import ExperimentSpec, run_experiment
from repro.engine.kernels import EngineCostParams
from repro.engine.request import GenerationSpec
from repro.engine.runtime import RunResult
from repro.errors import ExperimentError
from repro.quant.dtypes import PRECISION_ORDER, Precision

#: The paper's default generation split: sl=96 as 32 input + 64 output.
DEFAULT_GEN = GenerationSpec(32, 64)


def _gen_for_seqlen(seq_len: int) -> GenerationSpec:
    split = paperdata.SEQLEN_SPLIT.get(seq_len)
    if split is None:
        raise ExperimentError(
            f"no input/output split defined for sequence length {seq_len}"
        )
    return GenerationSpec(*split)


def _base_spec(spec: ExperimentSpec, caller: str) -> ExperimentSpec:
    """The sweep's template; configuration goes on the spec."""
    if not isinstance(spec, ExperimentSpec):
        raise TypeError(
            f"{caller} takes an ExperimentSpec, not {spec!r}; build one "
            f"with ExperimentSpec.for_model({spec!r}, ...)")
    return spec


def _run_all(specs: Sequence[ExperimentSpec],
             params: Optional[EngineCostParams],
             cache, observer=None) -> List[RunResult]:
    return [run_experiment(s, params=params, cache=cache, observer=observer)
            for s in specs]


# -- §3.1: batch size ---------------------------------------------------------

def batch_size_sweep_specs(
    spec: ExperimentSpec,
    batch_sizes: Sequence[int] = paperdata.BATCH_SIZES,
) -> List[ExperimentSpec]:
    """The spec grid of :func:`batch_size_sweep`, in sweep order."""
    base = _base_spec(spec, "batch_size_sweep_specs")
    return [replace(base, batch_size=bs) for bs in batch_sizes]


def batch_size_sweep(
    spec: ExperimentSpec,
    batch_sizes: Sequence[int] = paperdata.BATCH_SIZES,
    params: Optional[EngineCostParams] = None,
    cache=None,
    observer=None,
) -> List[RunResult]:
    """§3.1 / Fig 1/6/7, Tables 4-5: vary batch size at sl=96, MAXN."""
    specs = batch_size_sweep_specs(spec, batch_sizes)
    return _run_all(specs, params, cache, observer)


# -- §3.2: sequence length ----------------------------------------------------

def seq_len_sweep_specs(
    spec: ExperimentSpec,
    seq_lengths: Sequence[int] = paperdata.SEQ_LENGTHS,
) -> List[ExperimentSpec]:
    """The spec grid of :func:`seq_len_sweep`, in sweep order.

    Each point replaces the generation split for its sequence length;
    the template's batch size (paper default 32) is kept.
    """
    base = _base_spec(spec, "seq_len_sweep_specs")
    return [replace(base, gen=_gen_for_seqlen(sl)) for sl in seq_lengths]


def seq_len_sweep(
    spec: ExperimentSpec,
    seq_lengths: Sequence[int] = paperdata.SEQ_LENGTHS,
    params: Optional[EngineCostParams] = None,
    cache=None,
    observer=None,
) -> List[RunResult]:
    """§3.2 / Fig 2/8/9, Tables 6-7: vary sequence length at bs=32."""
    specs = seq_len_sweep_specs(spec, seq_lengths)
    return _run_all(specs, params, cache, observer)


# -- §3.3: quantization -------------------------------------------------------

def quantization_sweep_specs(
    spec: ExperimentSpec,
    precisions: Iterable[Precision] = PRECISION_ORDER,
) -> List[ExperimentSpec]:
    """The spec grid of :func:`quantization_sweep`, in sweep order."""
    base = _base_spec(spec, "quantization_sweep_specs")
    return [replace(base, precision=prec) for prec in precisions]


def quantization_sweep(
    spec: ExperimentSpec,
    precisions: Iterable[Precision] = PRECISION_ORDER,
    params: Optional[EngineCostParams] = None,
    cache=None,
    observer=None,
) -> List[RunResult]:
    """§3.3 / Fig 3/11: FP32->INT4 at bs=32, sl=96 (OOM cells included)."""
    specs = quantization_sweep_specs(spec, precisions)
    return _run_all(specs, params, cache, observer)


#: Paper Table 2 mode names, in paper order.
POWER_MODES = ("MAXN", "A", "B", "C", "D", "E", "F", "G", "H")


# -- §3.4: power modes --------------------------------------------------------

def power_mode_sweep_specs(
    spec: ExperimentSpec,
    modes: Sequence[str] = POWER_MODES,
) -> List[ExperimentSpec]:
    """The spec grid of :func:`power_mode_sweep`, in sweep order."""
    base = _base_spec(spec, "power_mode_sweep_specs")
    return [replace(base, power_mode=mode) for mode in modes]


def power_mode_sweep(
    spec: ExperimentSpec,
    modes: Sequence[str] = POWER_MODES,
    params: Optional[EngineCostParams] = None,
    cache=None,
    observer=None,
) -> List[RunResult]:
    """§3.4 / Fig 5: the nine power modes at bs=32, sl=96."""
    specs = power_mode_sweep_specs(spec, modes)
    return _run_all(specs, params, cache, observer)


# -- extension: runtime backends ----------------------------------------------

def runtime_sweep_specs(
    spec: ExperimentSpec,
    runtimes: Optional[Sequence[str]] = None,
) -> List[ExperimentSpec]:
    """The spec grid of :func:`runtime_sweep`, in registry order."""
    if runtimes is None:
        from repro.backends import list_backends

        runtimes = list_backends()
    base = _base_spec(spec, "runtime_sweep_specs")
    # Non-hf runtimes fix their own KV policy; drop a template kv_mode
    # ablation rather than refusing the whole sweep.
    return [replace(base, runtime=rt,
                    kv_mode=base.kv_mode if rt == "hf-transformers"
                    else "dynamic")
            for rt in runtimes]


def runtime_sweep(
    spec: ExperimentSpec,
    runtimes: Optional[Sequence[str]] = None,
    params: Optional[EngineCostParams] = None,
    cache=None,
    observer=None,
) -> List[RunResult]:
    """Cross-backend comparison: one fixed configuration per runtime.

    Extension beyond the paper (which measured only the HF stack);
    the grid covers every registered backend unless ``runtimes`` narrows
    it.  Pair with :func:`repro.reporting.runtime_comparison` for the
    tok/s / TTFT / energy-per-token table.
    """
    specs = runtime_sweep_specs(spec, runtimes)
    return _run_all(specs, params, cache, observer)


# -- §3.3: power/energy across batch sizes ------------------------------------

def batch_quant_power_sweep_specs(
    spec: ExperimentSpec,
    precisions: Iterable[Precision] = (Precision.FP16, Precision.INT8,
                                       Precision.INT4),
    batch_sizes: Sequence[int] = paperdata.BATCH_SIZES,
) -> Dict[Precision, List[ExperimentSpec]]:
    """The spec grid of :func:`batch_quant_power_sweep`, in sweep order."""
    base = _base_spec(spec, "batch_quant_power_sweep_specs")
    return {
        prec: [replace(base, precision=prec, batch_size=bs)
               for bs in batch_sizes]
        for prec in precisions
    }


def batch_quant_power_sweep(
    spec: ExperimentSpec,
    precisions: Iterable[Precision] = (Precision.FP16, Precision.INT8,
                                       Precision.INT4),
    batch_sizes: Sequence[int] = paperdata.BATCH_SIZES,
    params: Optional[EngineCostParams] = None,
    cache=None,
    observer=None,
) -> Dict[Precision, List[RunResult]]:
    """§3.3 / Fig 4/10: power & energy across batch sizes per precision."""
    grid = batch_quant_power_sweep_specs(spec, precisions, batch_sizes)
    return {prec: _run_all(specs, params, cache, observer)
            for prec, specs in grid.items()}
