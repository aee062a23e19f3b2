"""Ablation: static vs continuous batching under load (extension).

Quantifies the §4 future-work headroom on the calibrated Orin model:
iteration-level scheduling must cut p95 time-to-first-token under load
without losing aggregate throughput.
"""

import copy

from repro.cluster import EdgeCluster, FleetSpec, NodeSpec, poisson_workload
from repro.engine.scheduler import ServingReport, StaticBatchScheduler
from repro.hardware import get_device
from repro.models import get_model
from repro.quant.dtypes import Precision
from repro.reporting import format_table


def _build():
    rows = []
    for rate in (1.0, 3.0, 6.0):
        reqs = poisson_workload(rate, 48, input_tokens=32, output_tokens=64,
                                seed=11)
        static = StaticBatchScheduler(
            get_device("jetson-orin-agx-64gb"), get_model("llama"),
            Precision.FP16, max_batch=32).serve(copy.deepcopy(reqs))
        # Continuous batching is a 1-node fleet's serving loop.
        cluster = EdgeCluster.of(FleetSpec.of(
            [NodeSpec("jetson-orin-agx-64gb", max_batch=32)],
            model="llama", precision="fp16"))
        cluster.run(copy.deepcopy(reqs))
        cont = ServingReport.from_requests("continuous", cluster.last_requests)
        for report in (static, cont):
            rows.append({"rate_req_s": rate, **report.as_row()})
    return rows


def test_serving_disciplines(benchmark, emit):
    rows = benchmark.pedantic(_build, rounds=1, iterations=1)
    emit(
        "ablation_serving_disciplines",
        format_table(rows, title="static vs continuous batching across load"),
        rows,
    )
    by = {(r["rate_req_s"], r["discipline"]): r for r in rows}
    for rate in (3.0, 6.0):
        static = by[(rate, "static")]
        cont = by[(rate, "continuous")]
        assert cont["p95_ttft_s"] < static["p95_ttft_s"], rate
        assert cont["throughput_tok_s"] > 0.8 * static["throughput_tok_s"], rate
