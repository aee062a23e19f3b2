"""Analytic capacity planning: the fluid tier above the DES.

The discrete-event simulator answers "what happens if I run exactly
this"; this package answers the question operators ask first — "what
should I run?"  A fluid/ODE approximation of the serving dynamics
turns the same calibrated :class:`~repro.engine.kernels.StepTimer`
costs into closed-form steady-state predictions (throughput, TTFT,
latency, utilization, J/token) and a sub-second capacity search over
runtime × precision × power-mode × node-count
(:class:`PlanSpec` / :func:`plan`).  ``repro plan --validate`` holds
the approximation to a measured error budget against the DES.

Modules
-------
- :mod:`repro.plan.rates` — operating point -> calibrated service rates.
- :mod:`repro.plan.fluid` — the ODE: closed-form steady state and the
  trace-driven Euler integrator.
- :mod:`repro.plan.spec` — :class:`PlanSpec`, the capacity search.
- :mod:`repro.plan.feasibility` — engine-probing OOM envelope.
- :mod:`repro.plan.validate` — the analytic-vs-DES error grid.
"""

from repro.plan.feasibility import (
    FeasibilityEnvelope,
    engine_feasible,
    probe_max_batch,
    probe_max_seq_len,
)
from repro.plan.fluid import FluidEstimate, integrate, steady_state
from repro.plan.rates import ServiceRates
from repro.plan.spec import PLAN_VERSION, PlanReport, PlanSpec, plan
from repro.plan.validate import (
    DEFAULT_PASS_FRACTION,
    DEFAULT_TOLERANCE,
    VALIDATION_WORKLOADS,
    ValidationReport,
    ValidationSpec,
    run_validation,
)

__all__ = [
    "DEFAULT_PASS_FRACTION",
    "DEFAULT_TOLERANCE",
    "FeasibilityEnvelope",
    "FluidEstimate",
    "PLAN_VERSION",
    "PlanReport",
    "PlanSpec",
    "ServiceRates",
    "VALIDATION_WORKLOADS",
    "ValidationReport",
    "ValidationSpec",
    "engine_feasible",
    "integrate",
    "plan",
    "probe_max_batch",
    "probe_max_seq_len",
    "run_validation",
    "steady_state",
]
