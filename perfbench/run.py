"""Host-time benchmark of the simulator: one workload, one seed, one run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload decode_long --seed 1 --seconds 12 --trace 0

With ``--trace 0`` the run times untraced calls, in whole passes over the
workload's trace family, until ``--seconds`` have passed, measures the
set-up in fresh processes between the calls, and reports the end-to-end
metrics of ``BENCHMARK.json``.  With ``--trace 1`` it alternates
untraced and traced calls on the family's first trace and reports the
per-layer metrics, the tracing overhead, and checks that tracing leaves
the outcome digest unchanged.  ``--seconds`` defaults to
``BENCHMARK.json``'s ``run_seconds``.  Every call's outcome is checked
against the committed reference in ``perfbench/refs``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy can load: one BLAS/OpenMP thread, no disk cache.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_CACHE_DIR", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs"

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, trace_seeds  # noqa: E402

#: Fresh-process set-up probes per run, besides the run's own set-up.
SETUP_PROBES = 4
#: Generator seed of the trace every traced run serves.
TRACED_SEED = 0


class BenchError(Exception):
    """The benchmark cannot run here (no program, no references)."""


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark under {src}")
    sys.path.insert(0, str(src))
    import repro  # noqa: F401


def timed_setup(workload):
    """Seconds from the first call into repro until ready to serve."""
    start = perf_counter()
    import_program()
    target = workload.setup()
    return perf_counter() - start, target


def probe_setup(name: str) -> float:
    """One set-up measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--setup-probe"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def load_refs(workload) -> dict:
    path = REFS / f"{workload.name}.json"
    if not path.is_file():
        raise BenchError(f"missing reference digests {path}")
    return json.loads(path.read_text())["traces"]


class Checker:
    """Counts attempted and failed operations across a run's calls."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, gen_seed: int, out) -> bool:
        ops = out.counts["ops"]
        bad = min(ops, out.failures(self.refs[str(gen_seed)]))
        self.attempted += ops
        self.failed += bad
        if out.violations:
            self.notes += out.violations[:3]
        elif bad:
            self.notes.append(f"trace {gen_seed}: {bad} of {ops} outcomes "
                              f"differ from the reference")
        return bad == 0

    def crashed(self, gen_seed: int) -> None:
        ops = self.refs[str(gen_seed)]["ops"]
        self.attempted += ops
        self.failed += ops
        self.notes.append(f"trace {gen_seed}: the call raised")


def one_call(workload, gen_seed: int, tracer=None, scale: float = 1.0):
    """Build, serve (timed) and digest one call; returns (seconds, outcome)."""
    inputs = workload.inputs(gen_seed, scale)
    if tracer is not None:
        tracer.install()
    try:
        target = workload.setup()
        if tracer is not None and target is not None:
            tracer.attach_cluster(target)
        workload.cold()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        start = perf_counter()
        result = workload.serve(target, inputs)
        seconds = perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, workload.outcome(target, result, inputs)


def untraced_run(workload, seed, seconds, checker, scale=1.0,
                 probes=SETUP_PROBES):
    """Whole passes over the trace family until ``seconds`` (probes not
    counted) have passed, with a fresh-process set-up probe after each call
    until ``probes`` are taken, the rest after the last call; returns
    (requests, configs, timed seconds) summed over the calls and the
    probes' set-up seconds."""
    requests = configs = busy = probing = 0.0
    setups = []

    def probe():
        nonlocal probing
        t0 = perf_counter()
        setups.append(probe_setup(workload.name))
        probing += perf_counter() - t0

    start = perf_counter()
    while busy == 0.0 or perf_counter() - start - probing < seconds:
        for gen_seed in trace_seeds(workload, seed):
            try:
                dt, out = one_call(workload, gen_seed, scale=scale)
            except Exception:  # the program failed: count it, keep going
                traceback.print_exc()
                checker.crashed(gen_seed)
                continue
            checker.check(gen_seed, out)
            print(f"call trace={gen_seed} ops={out.counts['ops']} "
                  f"seconds={dt:.4f}", file=sys.stderr, flush=True)
            requests += out.counts["requests"]
            configs += out.counts.get("configs", 1)
            busy += dt
            if len(setups) < probes:
                probe()
        if busy == 0.0:
            raise BenchError("every call of a pass failed")
    while len(setups) < probes:
        probe()
    return requests, configs, busy, setups


def layer_metrics(tracer: Tracer, out, cluster: bool) -> dict:
    """One traced call's per-layer numbers."""
    calls, self_s = tracer.calls, tracer.self_s
    counts = out.counts
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    m["sim.events"] = m.pop("sim.calls")
    m["cluster.node.resumptions"] = m.pop("cluster.node.calls")
    m["telemetry.samples"] = m.pop("telemetry.calls")  # one per resumption
    m["cluster.node.tokens_per_step"] = (
        counts["served_tokens"] / tracer.decode_steps
        if cluster and tracer.decode_steps else 0.0)
    m["cluster.admit.retry_ratio"] = (
        counts["retries"] / counts["requests"] if cluster else 0.0)
    m["cluster.slo.sim_p99_ttft_s"] = out.answers.get("sim_p99_ttft_s", 0.0)
    m["cluster.slo.sim_j_per_token"] = out.answers.get("sim_j_per_token",
                                                       0.0)
    m["engine.kernels.memo_hit_rate"] = tracer.memo_hit_rate()
    m["kvtier.prefix_hit_rate"] = counts.get("prefix_hit_rate", 0.0)
    m["kvtier.swap_outs"] = counts.get("swap_outs", 0)
    m["kvtier.sacrifices"] = counts.get("sacrifices", 0)
    m["obs.records"] = counts.get("obs_records", 0)
    m["obs.export_s"] = tracer.tagged_s.get("obs.export", 0.0)
    m["calibration.paper_latency_err_pct"] = out.answers.get(
        "paper_latency_err_pct", 0.0)
    return m


def traced_run(workload, seconds, checker, scale=1.0):
    """Alternate untraced and traced calls on one fixed trace, so the
    per-layer figures do not depend on the seed."""
    gen_seed = TRACED_SEED
    plain_s, traced_s, per_call = [], [], []
    start = perf_counter()
    while len(traced_s) < 2 or perf_counter() - start < seconds:
        dt, plain = one_call(workload, gen_seed, scale=scale)
        checker.check(gen_seed, plain)
        tracer = Tracer()
        dt_traced, traced = one_call(workload, gen_seed, tracer, scale)
        checker.check(gen_seed, traced)
        if traced.sha != plain.sha:
            checker.notes.append("traced digest differs from untraced")
            checker.failed += 1
        plain_s.append(dt)
        traced_s.append(dt_traced)
        per_call.append(layer_metrics(tracer, traced,
                                      workload.kind == "cluster"))
    metrics = {}
    for key in per_call[0]:
        values = [m[key] for m in per_call]
        if key.endswith((".self_s", ".export_s")):
            metrics[key] = statistics.median(values)
        else:
            if any(v != values[0] for v in values):
                checker.notes.append(f"{key} differs between traced calls")
                checker.failed += 1
            metrics[key] = values[0]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0)
    return metrics


def spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"missing {path}")
    return json.loads(path.read_text())


def declared_metrics(section: str) -> dict:
    return {m["name"]: m["unit"] for m in spec()[section]}


def run(name: str, seed: int, seconds: float, trace: bool,
        scale: float = 1.0, refs: dict = None, probes: int = SETUP_PROBES):
    """One benchmark run; returns the result object (not yet printed)."""
    workload = WORKLOADS[name]
    setup_s, _ = timed_setup(workload)
    checker = Checker(refs if refs is not None else load_refs(workload))
    if trace:
        values = traced_run(workload, seconds, checker, scale)
        units = declared_metrics("per_layer")
    else:
        requests, configs, busy, setups = untraced_run(
            workload, seed, seconds, checker, scale, probes)
        values = {
            "setup_s": statistics.median([setup_s] + setups),
            "sim_requests_per_s": requests / busy,
            "configs_per_s": configs / busy,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = declared_metrics("end_to_end")
    for note in checker.notes[:10]:
        print(f"check: {note}", file=sys.stderr)
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure one set-up and print its seconds")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            print(repr(timed_setup(WORKLOADS[args.workload])[0]))
            return 0
        seconds = (spec()["run_seconds"] if args.seconds is None
                   else args.seconds)
        result = run(args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    m = result["metrics"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['failed']}/{result['attempted']} failed, error_rate="
          f"{result['failed'] / max(1, result['attempted']):.4g}")
    for key, v in m.items():
        print(f"  {key:40s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
