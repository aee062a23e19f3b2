"""Request-level serving simulation: the paper's static batching.

The paper serves *static* batches (HF ``generate`` over a fixed prompt
set) and points to dedicated inference engines as future work (§4).
:class:`StaticBatchScheduler` simulates that discipline over the
calibrated cost model, with Poisson request arrivals on the DES: collect
up to ``max_batch`` requests (or wait out ``max_wait_s``), run the batch
to completion, repeat.  Simple, but late arrivals wait for the whole
previous batch.

The continuous-batching counterpart (iteration-level scheduling, Orca/
vLLM style) is a 1-node fleet: :class:`~repro.cluster.node.ClusterNode`
is the one continuous-batching loop, and
:meth:`ServingReport.from_requests` folds its served requests into the
same report shape.

Reports carry per-request metrics: time-to-first-token, time-per-output-
token, end-to-end latency, plus aggregate percentiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence

import numpy as np

from repro.engine.kernels import StepTimer
from repro.errors import ExperimentError
from repro.hardware.device import EdgeDevice
from repro.models.architecture import TransformerArchitecture
from repro.models.footprint import weight_bytes
from repro.quant.dtypes import Precision
from repro.sim.environment import Environment
from repro.sim.resources import Store

if TYPE_CHECKING:
    from repro.cluster.workload import ServeRequest


@dataclass
class ServingReport:
    """Aggregate outcome of one serving simulation."""

    discipline: str
    n_requests: int
    makespan_s: float
    throughput_tok_s: float
    mean_ttft_s: float
    p95_ttft_s: float
    mean_latency_s: float
    p95_latency_s: float
    mean_tpot_s: float
    requests: List[ServeRequest] = field(default_factory=list)

    def as_row(self) -> Dict[str, float]:
        return {
            "discipline": self.discipline,
            "throughput_tok_s": round(self.throughput_tok_s, 1),
            "mean_ttft_s": round(self.mean_ttft_s, 2),
            "p95_ttft_s": round(self.p95_ttft_s, 2),
            "mean_latency_s": round(self.mean_latency_s, 2),
            "p95_latency_s": round(self.p95_latency_s, 2),
            "mean_tpot_s": round(self.mean_tpot_s, 4),
        }

    @classmethod
    def from_requests(cls, discipline: str,
                      requests: Sequence[ServeRequest]) -> "ServingReport":
        """Fold served requests into a report; the makespan is the last
        completion (rejected or unfinished requests are left out)."""
        done = [r for r in requests if r.finish_s is not None]
        if not done:
            raise ExperimentError("no request completed")
        makespan = max(r.finish_s for r in done)
        ttfts = np.array([r.ttft_s for r in done])
        lats = np.array([r.latency_s for r in done])
        tpots = np.array([r.tpot_s for r in done if r.tpot_s is not None])
        total_tokens = sum(r.input_tokens + r.output_tokens for r in done)
        return cls(
            discipline=discipline,
            n_requests=len(done),
            makespan_s=makespan,
            throughput_tok_s=total_tokens / makespan,
            mean_ttft_s=float(ttfts.mean()),
            p95_ttft_s=float(np.percentile(ttfts, 95)),
            mean_latency_s=float(lats.mean()),
            p95_latency_s=float(np.percentile(lats, 95)),
            mean_tpot_s=float(tpots.mean()) if tpots.size else 0.0,
            requests=done,
        )


class StaticBatchScheduler:
    """The paper's discipline: fixed batches run to completion."""

    def __init__(
        self,
        device: EdgeDevice,
        arch: TransformerArchitecture,
        precision: Precision,
        max_batch: int = 32,
        *,
        max_wait_s: float = 1.0,
    ):
        if max_batch < 1:
            raise ExperimentError("max_batch must be >= 1")
        # Weights plus a 1 GB workspace must leave room for some KV.
        if weight_bytes(arch, precision) + 1e9 >= device.memory.usable_bytes:
            raise ExperimentError("model leaves no KV budget on this device")
        if max_wait_s < 0:
            raise ExperimentError("max_wait_s must be >= 0")
        self.device = device
        self.arch = arch
        self.precision = precision
        self.max_batch = max_batch
        self.timer = StepTimer(arch, device, precision)
        self.max_wait_s = max_wait_s
        self._kv_per_token = arch.kv_cache_spec().bytes_per_token_per_layer \
            * arch.n_layers

    def kv_bytes(self, tokens: int) -> int:
        return tokens * self._kv_per_token

    def serve(self, requests: List[ServeRequest]) -> ServingReport:
        """Run the arrival stream to completion; returns the report."""
        env = Environment()
        queue = Store(env)

        def arrivals():
            for r in sorted(requests, key=lambda x: x.arrival_s):
                delay = r.arrival_s - env.now
                if delay > 0:
                    yield env.timeout(delay)
                yield queue.put(r)

        served = 0

        def server():
            nonlocal served
            while served < len(requests):
                first = yield queue.get()
                batch = [first]
                deadline = env.now + self.max_wait_s
                # Fill the batch until the window closes or it is full.
                while len(batch) < self.max_batch and queue.size > 0:
                    batch.append((yield queue.get()))
                if len(batch) < self.max_batch and env.now < deadline:
                    yield env.timeout(deadline - env.now)
                    while len(batch) < self.max_batch and queue.size > 0:
                        batch.append((yield queue.get()))

                bs = len(batch)
                inp = max(r.input_tokens for r in batch)
                out = max(r.output_tokens for r in batch)
                yield env.timeout(self.timer.prefill(bs, inp).seconds)
                for step in range(out):
                    context = inp + step
                    concat = 2 * self.kv_bytes(bs * context)
                    cost = self.timer.decode_step(bs, context, concat_bytes=concat)
                    yield env.timeout(cost.seconds)
                    for r in batch:
                        if step == 0:
                            r.first_token_s = env.now
                        if step == r.output_tokens - 1 and r.finish_s is None:
                            # Static batching holds finished sequences
                            # until the whole batch drains (padding), but
                            # the client sees its last token here.
                            r.finish_s = env.now
                served += bs

        env.process(arrivals(), name="arrivals")
        done = env.process(server(), name="static-server")
        env.run(until=done)
        return ServingReport.from_requests("static", requests)
