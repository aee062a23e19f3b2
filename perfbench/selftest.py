"""Self-test of the benchmark itself.

Run from the root of a checkout::

    python3 perfbench/selftest.py

At tiny sizes it checks, for every workload, that

- the tracing wrappers leave the outcome digest unchanged;
- layers the workload never enters read zero calls, and the layers it
  exists to stress read more than zero;
- a deliberately perturbed outcome counts as a failure (error rate > 0):
  one request's energy or one config's latency, and for cluster
  workloads one power-sampler reading, which moves the fleet J/token;
- one run emits every metric ``BENCHMARK.json`` names, with its unit.

At full size it checks the held-out trace of each cluster workload
against its committed reference.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys

import run as bench
from tracer import Tracer
from workloads import HELDOUT_SEED, WORKLOADS, Outcome, trace_seeds

TINY = 0.05

#: Layers each workload must never enter, and layers it must enter.
IDLE = {
    "decode_long": ("obs", "kvtier"),
    "kv_pressure": ("obs",),
    "sessions_obs": ("kvtier",),
    "study_cold": ("cluster.node", "cluster.admit", "cluster.router",
                   "cluster.slo", "fairness.scheduler", "kvtier", "obs"),
}
BUSY = {
    "decode_long": ("sim", "cluster.node", "engine.kernels", "power"),
    "kv_pressure": ("kvtier", "cluster.node"),
    "sessions_obs": ("obs", "cluster.router", "fairness.scheduler"),
    "study_cold": ("engine.executor", "memsys", "perplexity"),
}


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def reference_of(out: Outcome) -> dict:
    return {"ops": out.counts["ops"], "n": len(out.lines), "sha": out.sha,
            "answers": out.answers, "tags": out.tags}


def perturbed(workload, gen_seed: int, what: str) -> Outcome:
    """An outcome with one value nudged by one ulp: one operation's
    energy or latency (``op``), or one power-sampler reading (``sample``)."""
    inputs = workload.inputs(gen_seed, TINY)
    target = workload.setup()
    workload.cold()
    result = workload.serve(target, inputs)
    if workload.kind == "study":
        from workloads import study_runs

        run = study_runs(result)[0][1]
        run.mean_latency_s = math.nextafter(run.mean_latency_s, math.inf)
    elif what == "op":
        r = target.last_requests[len(target.last_requests) // 2]
        r.energy_j = math.nextafter(r.energy_j, math.inf)
    else:
        samples = target.nodes[0].sampler.samples
        i = len(samples) // 2
        samples[i] = dataclasses.replace(
            samples[i], power_w=math.nextafter(samples[i].power_w, math.inf))
    return workload.outcome(target, result, inputs)


def tiny_checks(name: str) -> None:
    workload = WORKLOADS[name]
    seeds = trace_seeds(workload, 0)
    _, plain = bench.one_call(workload, seeds[0], scale=TINY)
    tracer = Tracer()
    _, traced = bench.one_call(workload, seeds[0], tracer, TINY)
    check(traced.sha == plain.sha and not plain.violations,
          f"{name}: traced digest equals untraced, books balance")
    idle = {layer: tracer.calls.get(layer, 0) for layer in IDLE[name]}
    check(not any(idle.values()), f"{name}: idle layers read 0 {idle}")
    busy = {layer: tracer.calls.get(layer, 0) for layer in BUSY[name]}
    check(all(busy.values()), f"{name}: stressed layers are entered {busy}")

    for what in ("op", "sample") if workload.kind == "cluster" else ("op",):
        checker = bench.Checker({str(seeds[0]): reference_of(plain)})
        checker.check(seeds[0], perturbed(workload, seeds[0], what))
        check(checker.failed == 1 and checker.failed / checker.attempted > 0,
              f"{name}: one perturbed {what} counts as one failure")
    ref = dict(reference_of(plain), answers={
        k: math.nextafter(v, math.inf) for k, v in plain.answers.items()})
    checker = bench.Checker({str(seeds[0]): ref})
    checker.check(seeds[0], plain)
    check(checker.failed == checker.attempted > 0,
          f"{name}: a modelled answer that differs fails the whole call")

    refs = {}
    for gen_seed in seeds:
        refs[str(gen_seed)] = reference_of(
            bench.one_call(workload, gen_seed, scale=TINY)[1])
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.run(name, 0, 0.0, trace, scale=TINY, refs=refs,
                           probes=1)
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        numbers = all(isinstance(v["value"], (int, float))
                      and math.isfinite(v["value"])
                      for v in result["metrics"].values())
        positive = trace or all(v["value"] > 0
                                for v in result["metrics"].values())
        check(got == want and numbers and positive and result["correct"],
              f"{name}: --trace {int(trace)} emits every {section} metric "
              f"with its unit")


def heldout_check(name: str) -> None:
    workload = WORKLOADS[name]
    checker = bench.Checker(bench.load_refs(workload))
    _, out = bench.one_call(workload, HELDOUT_SEED)
    checker.check(HELDOUT_SEED, out)
    check(checker.failed == 0 and checker.attempted > 0,
          f"{name}: held-out trace {HELDOUT_SEED} matches its reference")


def main(names) -> None:
    bench.import_program()
    names = names or sorted(WORKLOADS)
    for name in names:
        tiny_checks(name)
    for name in names:
        if WORKLOADS[name].kind == "cluster":
            heldout_check(name)


if __name__ == "__main__":
    main(sys.argv[1:])
