"""The benchmark's workloads: inputs, the timed call, and the output check.

Each timed call is one call into the program over inputs generated
before timing starts.  A cluster workload is a family of ``family``
traces (generator seeds ``0 .. family-1``, a reference digest for each
committed under ``refs/``); a run with ``--seed s`` serves the whole
family in the order ``(s + k) mod family`` as often as its time allows,
so every run measures the same work and differs only in order.
``HELDOUT_SEED`` names one more trace, with its own reference, that no
run serves.

The output check digests each request's outcome (node, rejected,
first-token and finish times, tokens generated, energy) exactly, as
float hex, then one line per node (its power samples, integrated
energy, busy energy and served tokens) and one fleet line (energy, J
per token, p99 TTFT).  A line whose digest differs from the reference
counts as one failed operation, and modelled answers that differ fail
the whole call.  Every call also asserts the ledger invariants.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

HELDOUT_SEED = 1000
#: Hex digits of the per-request (per-config) tag kept in the references.
TAG_HEX = 4

ORIN64 = "jetson-orin-agx-64gb"
ORIN32 = "jetson-orin-agx-32gb"
XAVIER32 = "jetson-xavier-agx-32gb"
NANO8 = "jetson-orin-nano-8gb"


def _hex(x: Optional[float]) -> str:
    return "-" if x is None else float(x).hex()


def tag_of(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:TAG_HEX]


@dataclass
class Outcome:
    """What one call produced, reduced to what the check compares."""

    lines: List[str]
    #: Invariant violations (empty = the books balance).
    violations: List[str] = field(default_factory=list)
    #: Modelled answers, reported alongside the host-time metrics.
    answers: Dict[str, float] = field(default_factory=dict)
    #: Operation counts (``ops`` is what the check counts) and layer
    #: outcome counts for the traced run.
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def sha(self) -> str:
        return hashlib.sha256("\n".join(self.lines).encode()).hexdigest()

    @property
    def tags(self) -> str:
        return "".join(tag_of(line) for line in self.lines)

    def failures(self, ref: dict) -> int:
        """Operations whose outcome differs from the reference."""
        n = len(self.lines)
        answers = {k: _hex(v) for k, v in self.answers.items()}
        if (self.violations or n != ref["n"]
                or answers != {k: _hex(v) for k, v in ref["answers"].items()}):
            return n
        if self.sha == ref["sha"]:
            return 0
        tags, want = self.tags, ref["tags"]
        bad = sum(tags[i:i + TAG_HEX] != want[i:i + TAG_HEX]
                  for i in range(0, len(tags), TAG_HEX))
        return max(bad, 1)


class Workload:
    """One workload: set-up, inputs, the timed call and its outcome."""

    name = ""
    kind = ""
    #: Traces in the workload's family (sized so one pass takes about
    #: the run's time on the reference host).
    family = 1

    def setup(self):
        """Everything the program does before it is ready to serve."""
        raise NotImplementedError

    def inputs(self, gen_seed: int, scale: float = 1.0):
        raise NotImplementedError

    def cold(self) -> None:
        """Drop warm state users would not have at the timed call."""

    def serve(self, target, inputs):
        """The timed call."""
        raise NotImplementedError

    def outcome(self, target, result, inputs) -> Outcome:
        raise NotImplementedError


# -- cluster workloads --------------------------------------------------------

def node_line(node) -> str:
    """A node's power-sampler trace and energy meters, exactly."""
    from repro.telemetry.energy import trapezoid_energy_j

    samples = node.sampler.samples
    trace = hashlib.sha256("\n".join(
        f"{_hex(s.time_s)}|{_hex(s.power_w)}|{s.phase}" for s in samples
    ).encode()).hexdigest()
    return (f"node{node.node_id}|{len(samples)}|{trace}|"
            f"{_hex(trapezoid_energy_j(samples))}|"
            f"{_hex(node.busy_energy_j)}|{node.served_tokens}")


class ClusterWorkload(Workload):
    """A fleet plus a trace family; the timed call serves one trace."""

    kind = "cluster"
    #: Requests (or interactions) per trace at full size.
    size = 1000

    def fleet(self):
        raise NotImplementedError

    def build(self, fleet):
        from repro import EdgeCluster

        return EdgeCluster.of(fleet)

    def setup(self):
        """The fleet spec and the cluster built from it."""
        return self.build(self.fleet())

    def serve(self, cluster, inputs):
        return cluster.run(inputs)

    def n_size(self, scale: float) -> int:
        return max(4, int(round(self.size * scale)))

    def outcome(self, cluster, report, inputs) -> Outcome:
        from repro.cluster.slo import percentile
        from repro.fairness.accounting import (build_ledger,
                                               conservation_violations)

        reqs = cluster.last_requests
        lines = [
            f"{r.req_id}|{r.node_id}|{int(bool(r.rejected))}|"
            f"{_hex(r.first_token_s)}|{_hex(r.finish_s)}|{r.generated}|"
            f"{_hex(r.energy_j)}"
            for r in reqs
        ]
        lines += [node_line(n) for n in cluster.nodes]
        completed = sum(1 for r in reqs
                        if r.finish_s is not None and not r.rejected)
        rejected = sum(1 for r in reqs if r.rejected)
        violations = []
        if completed + rejected != len(reqs):
            violations.append(f"completed {completed} + rejected {rejected} "
                              f"!= injected {len(reqs)}")
        abandoned = frozenset(i.interaction_id for i in inputs
                              if getattr(i, "abandoned", False))
        served = sum(n.served_tokens for n in cluster.nodes)
        violations += conservation_violations(
            build_ledger(reqs, abandoned), served)
        ttft = [r.first_token_s - r.arrival_s for r in reqs
                if r.first_token_s is not None and not r.rejected]
        answers = {
            "sim_p99_ttft_s": percentile(ttft, 99) if ttft else 0.0,
            "sim_j_per_token": report.j_per_token,
        }
        lines.append(f"fleet|{_hex(report.fleet_energy_j)}|"
                     f"{_hex(report.busy_energy_j)}|"
                     f"{_hex(answers['sim_j_per_token'])}|"
                     f"{_hex(answers['sim_p99_ttft_s'])}")
        counts = {
            "requests": len(reqs),
            "ops": len(reqs),
            "served_tokens": served,
            "retries": sum(r.retries for r in reqs),
            "prefix_hit_rate": report.prefix_hit_rate,
            "swap_outs": report.swap_outs,
            "sacrifices": report.sacrifices,
        }
        return Outcome(lines, violations, answers, counts)


class DecodeLong(ClusterWorkload):
    name = "decode_long"
    family = 4
    rate = 0.425  # ~83% of the ~0.52 req/s this fleet saturates at

    def fleet(self):
        from repro import FleetSpec

        return FleetSpec.of([ORIN64] * 4, model="llama", precision="fp16",
                            policy="jsq")

    def inputs(self, gen_seed, scale=1.0):
        from repro import poisson_workload

        return poisson_workload(self.rate, self.n_size(scale),
                                input_tokens=64, output_tokens=384,
                                seed=gen_seed)


class KvPressure(ClusterWorkload):
    name = "kv_pressure"
    family = 2
    rate = 0.07  # at the fleet's measured capacity (0.071 of 0.073 served)

    def fleet(self):
        from repro import FleetSpec, NodeSpec

        nodes = [NodeSpec(NANO8, runtime="paged", max_batch=16,
                          kv_policy=policy)
                 for policy in ("swap-lru", "sacrifice",
                                "swap-lru", "sacrifice")]
        return FleetSpec.of(nodes, model="phi2", precision="int8",
                            policy="prefix-affinity")

    def inputs(self, gen_seed, scale=1.0):
        from repro import shared_prefix_workload

        return shared_prefix_workload(
            self.rate, self.n_size(scale), prefix_tokens=512,
            share_ratio=0.5, unique_tokens=256, output_tokens=384,
            seed=gen_seed)


class SessionsObs(ClusterWorkload):
    name = "sessions_obs"
    family = 4
    rate = 0.16  # interactions/s, above the ~0.14/s the fleet serves
    size = 400

    def fleet(self):
        from repro import FleetSpec, NodeSpec

        nodes = [NodeSpec(d, scheduler="vtc")
                 for d in (ORIN64, ORIN64, ORIN32, XAVIER32)]
        return FleetSpec.of(nodes, model="llama", precision="int8",
                            policy="energy-aware")

    def build(self, fleet):
        from repro import EdgeCluster, Observer

        return EdgeCluster.of(fleet, observer=Observer())

    def inputs(self, gen_seed, scale=1.0):
        from repro import session_workload

        return session_workload(self.rate, self.n_size(scale),
                                seed=gen_seed)

    def serve(self, cluster, inputs):
        import repro.obs.export as export

        report = cluster.run_interactions(inputs)
        trace = export.chrome_trace_json(cluster.obs)
        metrics = export.prometheus_text(cluster.obs.metrics)
        if not trace or not metrics:
            raise RuntimeError("observer export produced no output")
        return report

    def outcome(self, cluster, report, inputs):
        out = super().outcome(cluster, report, inputs)
        out.counts["obs_records"] = len(cluster.obs)
        return out


# -- the study -----------------------------------------------------------------

#: Paper cells compared: Table 4 (batch sweep, WikiText2) and Table 6
#: (sequence-length sweep, LongBench), latency column.
def paper_latency_err_pct(results) -> float:
    """Median |simulated - paper| / paper batch latency, in percent."""
    from repro.calibration.paperdata import (TABLE4_BATCH_WIKITEXT,
                                             TABLE6_SEQLEN_LONGBENCH)

    errs = []
    for model, by_wl in results.batch_sweeps.items():
        for run in by_wl.get("wikitext2", []):
            cell = TABLE4_BATCH_WIKITEXT.get(model, {}).get(run.batch_size)
            if cell and cell[1] and not run.oom:
                errs.append(abs(run.mean_latency_s - cell[1]) / cell[1])
    for model, by_wl in results.seqlen_sweeps.items():
        for run in by_wl.get("longbench", []):
            cell = TABLE6_SEQLEN_LONGBENCH.get(model, {}).get(
                run.gen.total_tokens)
            if cell and cell[1] and not run.oom:
                errs.append(abs(run.mean_latency_s - cell[1]) / cell[1])
    errs.sort()
    if not errs:
        return 0.0
    mid = len(errs) // 2
    med = errs[mid] if len(errs) % 2 else 0.5 * (errs[mid - 1] + errs[mid])
    return 100.0 * med


def study_runs(results) -> List[Tuple[str, object]]:
    """Every config's RunResult, in the study's own (plan) order."""
    out = []
    for slot in ("batch_sweeps", "seqlen_sweeps", "power_energy_sweeps"):
        for model, by_key in getattr(results, slot).items():
            for key, runs in by_key.items():
                out += [(f"{slot}/{model}/{key}", r) for r in runs]
    for slot in ("quant_sweeps", "power_mode_sweeps"):
        for model, runs in getattr(results, slot).items():
            out += [(f"{slot}/{model}", r) for r in runs]
    return out


class StudyCold(Workload):
    """``run_full_study`` over the paper models, n_runs=1, cold trajectory
    cache, no result cache.  Its inputs do not depend on the seed."""

    name = "study_cold"
    kind = "study"

    def models(self, scale: float = 1.0) -> Tuple[str, ...]:
        from repro.models.zoo import PAPER_MODELS

        names = tuple(PAPER_MODELS)
        return names if scale >= 1.0 else names[:1]

    def setup(self):
        """Import plus the perplexity priming a study process pays once."""
        import repro.core.study as study
        from repro.hardware import get_device

        study.perplexity_table(get_device(ORIN64))
        return None

    def inputs(self, gen_seed, scale=1.0):
        from repro import StudySpec

        return StudySpec.of(self.models(scale), n_runs=1)

    def serve(self, target, spec):
        from repro import run_full_study

        return run_full_study(spec, cache=None)

    def cold(self) -> None:
        from repro.memsys.fastpath import TRAJECTORY_CACHE

        TRAJECTORY_CACHE.clear()

    def outcome(self, target, results, spec) -> Outcome:
        lines = []
        requests = 0
        violations = []
        for where, r in study_runs(results):
            lines.append(
                f"{where}|{r.model}|{r.device}|{r.workload}|{r.runtime}|"
                f"{r.precision.value}|{r.power_mode}|{r.batch_size}|"
                f"{r.gen.input_tokens}+{r.gen.output_tokens}|{int(r.oom)}|"
                f"{_hex(r.mean_latency_s)}|{_hex(r.throughput_tok_s)}|"
                f"{_hex(r.total_gb)}|{_hex(r.median_power_w)}|"
                f"{_hex(r.energy_j)}")
            requests += r.batch_size * len(r.batches)
            if not r.oom and not (math.isfinite(r.mean_latency_s)
                                  and r.mean_latency_s > 0):
                violations.append(f"{where}: latency {r.mean_latency_s}")
        for row in results.table3_perplexity + results.table1_footprints:
            lines.append("row|" + repr(sorted(row.items())))
        answers = {"paper_latency_err_pct": paper_latency_err_pct(results)}
        counts = {"requests": requests, "configs": len(study_runs(results))}
        counts["ops"] = counts["configs"]
        return Outcome(lines, violations, answers, counts)


WORKLOADS = {w.name: w for w in (DecodeLong(), KvPressure(), SessionsObs(),
                                 StudyCold())}


def trace_seeds(workload, seed: int) -> Sequence[int]:
    """Generator seeds one pass of a run with ``--seed seed`` serves."""
    n = workload.family
    return tuple((seed + k) % n for k in range(n))
