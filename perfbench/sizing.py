"""Offered vs served load behind each cluster workload's arrival rate.

Run from the root of a checkout::

    python3 perfbench/sizing.py [workload ...]

For each multiple of the workload's own rate it serves every trace of
the workload's family at the workload's own size (the traces the
benchmark serves, with the rate scaled) and prints, per trace, the
offered rate, the served rate (operations completed per simulated
second between the first arrival and the last finish) and the simulated
p50/p99 time to first token, then the mean offered and served rates
over the family.  A served rate that stops tracking the offered one
marks the fleet's capacity.  Each point runs in its own process under a
time and memory cap, so a point that does not terminate is reported as
such.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys

import run as bench
from workloads import WORKLOADS

MULTIPLES = (0.5, 0.85, 1.0, 1.2, 1.5)
POINT_TIMEOUT_S = 60
POINT_MEMORY_BYTES = 1_500_000_000


def point(name: str, mult: float, gen_seed: int) -> None:
    """Serve one sizing point and print its row."""
    resource.setrlimit(resource.RLIMIT_AS,
                       (POINT_MEMORY_BYTES, POINT_MEMORY_BYTES))
    bench.import_program()
    from repro.cluster.slo import percentile

    workload = WORKLOADS[name]
    workload.rate *= mult
    cluster = workload.setup()
    inputs = workload.inputs(gen_seed)
    workload.serve(cluster, inputs)
    reqs = cluster.last_requests
    done = [r for r in reqs if r.finish_s is not None and not r.rejected]
    if workload.name == "sessions_obs":
        arrivals = [i.arrival_s for i in inputs]
        n_ops = sum(1 for i in inputs if i.completed)
    else:
        arrivals = [r.arrival_s for r in reqs]
        n_ops = len(done)
    offered = len(arrivals) / (max(arrivals) - min(arrivals))
    served = n_ops / (max(r.finish_s for r in done) - min(arrivals))
    ttft = [r.first_token_s - r.arrival_s for r in done]
    print(f"offered={offered:.4f} served={served:.4f} "
          f"p50_ttft={percentile(ttft, 50):.1f} "
          f"p99_ttft={percentile(ttft, 99):.1f}")


def main(names) -> None:
    for name in names or ("decode_long", "kv_pressure", "sessions_obs"):
        workload = WORKLOADS[name]
        for mult in MULTIPLES:
            label = f"{name:14s} rate={workload.rate * mult:.4f}"
            rows = []
            for gen_seed in range(workload.family):
                try:
                    proc = subprocess.run(
                        [sys.executable, __file__, "--point", name, str(mult),
                         str(gen_seed)],
                        cwd=str(bench.ROOT), capture_output=True, text=True,
                        timeout=POINT_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    print(f"{label} trace={gen_seed} did not finish in "
                          f"{POINT_TIMEOUT_S} s", flush=True)
                    continue
                if proc.returncode != 0:
                    print(f"{label} trace={gen_seed} failed: "
                          f"{proc.stderr.strip().splitlines()[-1]}",
                          flush=True)
                    continue
                row = proc.stdout.strip()
                rows.append(dict(kv.split("=") for kv in row.split()))
                print(f"{label} trace={gen_seed} {row}", flush=True)
            if rows:
                mean = {k: statistics.mean(float(r[k]) for r in rows)
                        for k in ("offered", "served")}
                p99 = [float(r["p99_ttft"]) for r in rows]
                print(f"{label} family of {len(rows)}/{workload.family}: "
                      f"offered={mean['offered']:.4f}/s "
                      f"served={mean['served']:.4f}/s "
                      f"p99_ttft={min(p99):.1f}-{max(p99):.1f}s", flush=True)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--point"]:
        point(sys.argv[2], float(sys.argv[3]), int(sys.argv[4]))
    else:
        main(sys.argv[1:])
