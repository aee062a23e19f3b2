"""The study harness — the paper's experiment matrix as code.

- :mod:`repro.core.experiment` — :class:`ExperimentSpec` and
  :func:`run_experiment` (one configuration, paper protocol: warm-up +
  5 measured runs, OOM-safe).
- :mod:`repro.core.sweeps` — the four §3 sweeps: batch size, sequence
  length, quantization, power modes (each with a ``*_sweep_specs``
  grid builder), plus the cross-backend ``runtime`` sweep.
- :mod:`repro.core.study` — run the entire paper and collect every
  table/figure's data in one call (``jobs=N`` for process fan-out).
- :mod:`repro.core.cache` — content-addressed on-disk result cache.
- :mod:`repro.core.parallel` — deterministic process-pool spec runner.
- :mod:`repro.core.grid` — the sweep engine the fleet grids share
  (product order, aligned table, canonical CSV, versioned spec keys).
"""

from repro.core.cache import (
    COST_MODEL_VERSION,
    CacheStats,
    ResultCache,
    spec_fingerprint,
)
from repro.core.experiment import (ExperimentSpec, default_precision_for,
                                   run_experiment)
from repro.core.parallel import run_specs
from repro.core.sweeps import (
    batch_quant_power_sweep,
    batch_size_sweep,
    power_mode_sweep,
    quantization_sweep,
    runtime_sweep,
    seq_len_sweep,
)
from repro.core.study import FullStudyResults, StudySpec, run_full_study

__all__ = [
    "COST_MODEL_VERSION",
    "CacheStats",
    "ExperimentSpec",
    "FullStudyResults",
    "ResultCache",
    "StudySpec",
    "batch_quant_power_sweep",
    "batch_size_sweep",
    "default_precision_for",
    "power_mode_sweep",
    "quantization_sweep",
    "run_experiment",
    "run_full_study",
    "run_specs",
    "runtime_sweep",
    "seq_len_sweep",
    "spec_fingerprint",
]
