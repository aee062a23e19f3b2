"""repro — a simulation-based reproduction of *"Understanding the
Performance and Power of LLM Inferencing on Edge Accelerators"*
(Arya & Simmhan, PAISE/IPDPS 2025).

The library models the paper's entire experimental stack — the Jetson
Orin AGX 64GB board (CPU/GPU/LPDDR5, power modes), the PyTorch + HF
serving runtime (prefill/decode roofline, caching allocator, KV cache),
bitsandbytes quantization, the WikiText2/LongBench workloads and the
jtop measurement methodology — and re-runs every table and figure of
the paper against the simulation.  On top of the single-board protocol
it adds multi-node cluster serving, deterministic fault injection, a
request-scoped observability layer, and pluggable inference-runtime
backends (``hf-transformers``, ``gguf``, ``paged``) behind
:func:`get_backend` / :func:`list_backends`.

Quick start — one measured configuration, spec-first::

    from repro import ExperimentSpec, run_experiment

    spec = ExperimentSpec.for_model("llama", batch_size=32)
    print(run_experiment(spec).as_row())

A paper sweep, the whole study, or a served cluster::

    from repro import (EdgeCluster, FleetSpec, Observer, StudySpec,
                      batch_size_sweep, poisson_workload, run_full_study,
                      write_chrome_trace)

    runs = batch_size_sweep(ExperimentSpec.for_model("llama", n_runs=3))
    study = run_full_study(StudySpec.of(["phi2"], n_runs=1))

    obs = Observer()                           # request-scoped telemetry
    fleet = FleetSpec.of(["jetson-orin-agx-64gb"], model="llama")
    cluster = EdgeCluster.of(fleet, observer=obs)
    cluster.run(poisson_workload(2.0, 50))
    write_chrome_trace("trace.json", obs)      # load in Perfetto

See ``examples/`` for complete scenarios, ``benchmarks/`` for the
per-table/figure reproductions, and ``docs/mechanisms.md`` for how the
simulation works.
"""

from repro.backends import (
    RuntimeBackend,
    get_backend,
    list_backends,
    register_backend,
)
from repro.cluster import (
    ClusterReport,
    EdgeCluster,
    FleetSpec,
    NodeSpec,
    PowerModeAutoscaler,
    SLOSpec,
    bursty_workload,
    diurnal_workload,
    multi_tenant_workload,
    poisson_workload,
    shared_prefix_workload,
)
from repro.core import (
    ExperimentSpec,
    FullStudyResults,
    ResultCache,
    StudySpec,
    batch_quant_power_sweep,
    batch_size_sweep,
    default_precision_for,
    power_mode_sweep,
    quantization_sweep,
    run_experiment,
    run_full_study,
    run_specs,
    runtime_sweep,
    seq_len_sweep,
)
from repro.engine import GenerationSpec, RunResult, ServingEngine
from repro.errors import OutOfMemoryError, ReproError
from repro.fairness import (
    FairnessSpec,
    Interaction,
    TokenThrottle,
    get_fair_scheduler,
    list_fair_schedulers,
    run_fairness,
    session_workload,
)
from repro.faults import ChaosSpec, FaultSchedule, FaultScheduleSpec, run_chaos
from repro.hardware import get_device
from repro.kvtier import (
    KvTierSpec,
    get_kv_policy,
    list_kv_policies,
    run_kvtier,
)
from repro.models import get_model
from repro.plan import (
    FeasibilityEnvelope,
    PlanSpec,
    ServiceRates,
    ValidationSpec,
    plan,
    probe_max_batch,
    probe_max_seq_len,
    run_validation,
)
from repro.obs import (
    MetricsRegistry,
    Observer,
    chrome_trace_json,
    prometheus_text,
    write_chrome_trace,
    write_metrics,
)
from repro.quant import Precision
from repro.reporting import (carbon_frontier, phase_breakdown, plan_table,
                             runtime_comparison)
from repro.sustain import CarbonTrace, CascadeSpec, SustainSpec, run_sustain

__version__ = "1.1.0"

__all__ = [
    "CarbonTrace",
    "CascadeSpec",
    "ChaosSpec",
    "ClusterReport",
    "EdgeCluster",
    "ExperimentSpec",
    "FairnessSpec",
    "FaultSchedule",
    "FaultScheduleSpec",
    "FeasibilityEnvelope",
    "FleetSpec",
    "FullStudyResults",
    "GenerationSpec",
    "Interaction",
    "KvTierSpec",
    "MetricsRegistry",
    "NodeSpec",
    "Observer",
    "OutOfMemoryError",
    "PlanSpec",
    "PowerModeAutoscaler",
    "Precision",
    "ReproError",
    "ResultCache",
    "RunResult",
    "RuntimeBackend",
    "SLOSpec",
    "ServiceRates",
    "ServingEngine",
    "StudySpec",
    "SustainSpec",
    "TokenThrottle",
    "ValidationSpec",
    "__version__",
    "batch_quant_power_sweep",
    "batch_size_sweep",
    "bursty_workload",
    "carbon_frontier",
    "chrome_trace_json",
    "default_precision_for",
    "diurnal_workload",
    "get_backend",
    "get_device",
    "get_fair_scheduler",
    "get_kv_policy",
    "get_model",
    "list_backends",
    "list_fair_schedulers",
    "list_kv_policies",
    "multi_tenant_workload",
    "phase_breakdown",
    "plan",
    "plan_table",
    "poisson_workload",
    "power_mode_sweep",
    "probe_max_batch",
    "probe_max_seq_len",
    "prometheus_text",
    "quantization_sweep",
    "register_backend",
    "run_chaos",
    "run_experiment",
    "run_fairness",
    "run_full_study",
    "run_kvtier",
    "run_specs",
    "run_sustain",
    "run_validation",
    "runtime_comparison",
    "runtime_sweep",
    "seq_len_sweep",
    "session_workload",
    "shared_prefix_workload",
    "write_chrome_trace",
    "write_metrics",
]
