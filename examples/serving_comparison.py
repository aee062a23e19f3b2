#!/usr/bin/env python3
"""Scenario: static batching (the paper's setup) vs continuous batching.

The paper's §4 points at dedicated inference engines as future work.
This example quantifies the headroom: a Poisson request stream is served
by the paper's run-to-completion static batching and by an Orca/vLLM
style iteration-level scheduler (a 1-node fleet's serving loop), over
the same calibrated Orin cost model.  Continuous batching collapses tail time-to-first-token because
arrivals no longer wait for a draining batch.

Run:  python examples/serving_comparison.py [requests_per_second]
"""

import copy
import sys

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec, poisson_workload
from repro.engine.scheduler import ServingReport, StaticBatchScheduler
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision
from repro.reporting import format_table


def main(rate: float = 3.0) -> None:
    model = get_model("llama")
    print(f"serving {model.name} FP16 on a simulated Orin AGX 64GB")
    print(f"workload: Poisson arrivals at {rate:.1f} req/s, "
          f"64 requests of 32 in + 64 out tokens\n")
    reqs = poisson_workload(rate, 64, input_tokens=32, output_tokens=64, seed=7)

    static = StaticBatchScheduler(get_device("jetson-orin-agx-64gb"), model,
                                  Precision.FP16, max_batch=32)
    cluster = EdgeCluster.of(FleetSpec.of(
        [NodeSpec("jetson-orin-agx-64gb", max_batch=32)],
        model="llama", precision="fp16"))
    cluster.run(copy.deepcopy(reqs))
    rows = [static.serve(copy.deepcopy(reqs)).as_row(),
            ServingReport.from_requests("continuous",
                                        cluster.last_requests).as_row()]
    print(format_table(rows, title="static vs continuous batching"))

    static, cont = rows
    print(f"\np95 time-to-first-token: {static['p95_ttft_s']}s -> "
          f"{cont['p95_ttft_s']}s "
          f"({static['p95_ttft_s'] / max(cont['p95_ttft_s'], 1e-9):.1f}x better)")
    print("Iteration-level scheduling admits arrivals mid-batch instead of")
    print("behind a draining one — the gap a dedicated inference engine buys")
    print("on this hardware before any kernel-level work.")


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 3.0)
