"""Analytic-vs-DES cross-validation: ``repro plan --validate``.

The fluid planner is only trustworthy if it tracks the discrete-event
simulator it abstracts.  This module replays a workload × router ×
runtime grid through *both* tiers — the DES via
:class:`~repro.cluster.cluster.EdgeCluster`, the analytic tier via
:func:`repro.plan.fluid.integrate` fed the **same deterministic
arrival trace** — and reports per-cell relative error on steady
throughput and mean request latency.  The committed CSV under
``benchmarks/results/`` is the evidence behind the planner's stated
error budget; CI re-runs the grid and byte-diffs it.

Feeding the exact arrival times (rather than the fluid arrival-process
approximation) isolates the error the planner actually adds: the
continuous-service relaxation.  Divergence sources are catalogued in
``docs/mechanisms.md`` §14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.grid import GridReport, run_grid, versioned_key
from repro.errors import ConfigError
from repro.plan import spec as _planspec
from repro.plan.fluid import integrate
from repro.plan.rates import ServiceRates

#: Relative-error tolerance the committed grid is held to, and the
#: fraction of cells that must land inside it (both metrics at once).
DEFAULT_TOLERANCE = 0.15
DEFAULT_PASS_FRACTION = 0.90

#: The validation workloads: name -> (generator kind, parameters).
#: Rates are sized for a 2-node llama3.1-8b fp16 fleet (~60-70 tok/s
#: per node at batch 8): the grid spans comfortably-stable through
#: near-saturation operating points.
VALIDATION_WORKLOADS: Dict[str, Dict] = {
    "poisson-low": {"kind": "poisson", "rate_per_s": 0.8},
    "poisson-high": {"kind": "poisson", "rate_per_s": 1.5},
    "bursty": {"kind": "bursty", "rate_calm_per_s": 0.6,
               "rate_burst_per_s": 2.4},
    "diurnal": {"kind": "diurnal", "mean_rate_per_s": 1.0},
}


@dataclass(frozen=True)
class ValidationSpec:
    """One analytic-vs-DES validation grid (frozen, content-addressable)."""

    model: str = "llama3.1-8b"
    device: str = "jetson-orin-agx-64gb"
    precision: str = "fp16"
    power_mode: str = "MAXN"
    nodes: int = 2
    n_requests: int = 60
    input_tokens: int = 64
    output_tokens: int = 64
    max_batch: int = 8
    workloads: Tuple[str, ...] = tuple(VALIDATION_WORKLOADS)
    routers: Tuple[str, ...] = ("round-robin", "jsq", "least-kv")
    runtimes: Tuple[str, ...] = ("hf-transformers", "paged", "gguf")
    tolerance: float = DEFAULT_TOLERANCE
    seed: int = 0

    def __post_init__(self) -> None:
        from repro.backends import get_backend
        from repro.cluster.router import get_router
        from repro.hardware import get_device
        from repro.models import get_model

        get_model(self.model)
        get_device(self.device)
        if not self.workloads or not self.routers or not self.runtimes:
            raise ConfigError("validation axes must be non-empty")
        for w in self.workloads:
            if w not in VALIDATION_WORKLOADS:
                known = ", ".join(sorted(VALIDATION_WORKLOADS))
                raise ConfigError(
                    f"unknown validation workload {w!r}; known: {known}")
        for r in self.routers:
            get_router(r)
        for rt in self.runtimes:
            get_backend(rt)
        if self.nodes < 1 or self.n_requests < 1:
            raise ConfigError("nodes and n_requests must be >= 1")
        if not 0.0 < self.tolerance < 1.0:
            raise ConfigError("tolerance must be in (0, 1)")

    def cache_key(self) -> str:
        """Content address folding the fluid-model version."""
        # Read through the module so a PLAN_VERSION bump invalidates
        # validation artifacts too, not just plan ones.
        return versioned_key(self, "plan_version", _planspec.PLAN_VERSION)


class ValidationReport(GridReport):
    """All grid cells plus the pass/fail roll-up."""

    @property
    def within_fraction(self) -> float:
        """Fraction of cells with both metrics inside the tolerance."""
        if not self.rows:
            return 0.0
        ok = sum(1 for r in self.rows if r["within_tol"])
        return ok / len(self.rows)


def _make_workload(spec: ValidationSpec, name: str) -> List:
    from repro.cluster.workload import (
        bursty_workload,
        diurnal_workload,
        poisson_workload,
    )

    cfg = VALIDATION_WORKLOADS[name]
    shape = dict(input_tokens=spec.input_tokens,
                 output_tokens=spec.output_tokens, seed=spec.seed)
    if cfg["kind"] == "poisson":
        return poisson_workload(cfg["rate_per_s"], spec.n_requests, **shape)
    if cfg["kind"] == "bursty":
        return bursty_workload(cfg["rate_calm_per_s"],
                               cfg["rate_burst_per_s"],
                               spec.n_requests, **shape)
    return diurnal_workload(cfg["mean_rate_per_s"], spec.n_requests, **shape)


def _rel_err(analytic: float, des: float) -> float:
    if des <= 0:
        return 0.0 if analytic <= 0 else float("inf")
    return abs(analytic - des) / des


def _run_cell(spec: ValidationSpec, workload_name: str, router: str,
              runtime: str) -> Dict:
    from repro.cluster import EdgeCluster, FleetSpec, NodeSpec

    workload = _make_workload(spec, workload_name)
    fleet = FleetSpec.of(
        [NodeSpec(spec.device, power_mode=spec.power_mode,
                  max_batch=spec.max_batch, runtime=runtime)
         for _ in range(spec.nodes)],
        model=spec.model, precision=spec.precision, policy=router,
    )
    cluster = EdgeCluster.of(fleet)
    report = cluster.run(workload)
    done = [r for r in report.requests if r.latency_s is not None]
    des_latency = (sum(r.latency_s for r in done) / len(done)
                   if done else 0.0)

    rates = ServiceRates(spec.model, spec.precision, runtime,
                         device=spec.device, power_mode=spec.power_mode)
    est = integrate(rates, [r.arrival_s for r in workload],
                    spec.input_tokens, spec.output_tokens,
                    nodes=spec.nodes, max_batch=spec.max_batch)

    tput_err = _rel_err(est.throughput_tok_s, report.throughput_tok_s)
    lat_err = _rel_err(est.latency_s, des_latency)
    return {
        "workload": workload_name,
        "router": router,
        "runtime": runtime,
        "des_tput_tok_s": round(report.throughput_tok_s, 2),
        "fluid_tput_tok_s": round(est.throughput_tok_s, 2),
        "tput_rel_err": round(tput_err, 4),
        "des_latency_s": round(des_latency, 3),
        "fluid_latency_s": round(est.latency_s, 3),
        "latency_rel_err": round(lat_err, 4),
        "des_makespan_s": round(report.makespan_s, 2),
        "fluid_makespan_s": round(est.makespan_s, 2),
        "within_tol": bool(tput_err <= spec.tolerance
                           and lat_err <= spec.tolerance),
    }


def run_validation(spec: ValidationSpec) -> ValidationReport:
    """Replay the whole grid through both tiers (deterministic order)."""
    return ValidationReport(spec, run_grid(spec, {
        "workload_name": spec.workloads,
        "router": spec.routers,
        "runtime": spec.runtimes,
    }, _run_cell))
