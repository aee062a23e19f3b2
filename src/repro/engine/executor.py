"""The prefill/decode loop as a discrete-event process.

One :class:`BatchExecutor` runs one batch: it allocates workspace and the
KV cache through the caching allocator (so fragmentation and OOM emerge
from the same mechanisms as on the real board), advances simulated time
per engine step using :class:`~repro.engine.kernels.StepTimer`, and
publishes utilization to :class:`~repro.engine.state.EngineState` for
the power sampler.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.engine.kernels import StepTimer
from repro.engine.request import BatchRequest, BatchResult
from repro.engine.state import EngineState
from repro.errors import OutOfMemoryError
from repro.memsys.allocator import Allocation, CachingAllocator
from repro.memsys.fastpath import TRAJECTORY_CACHE, StreamSpec, apply_delta
from repro.memsys.kvcache import KVCache
from repro.obs import kinds
from repro.obs.span import NULL_OBSERVER, Observer
from repro.power.model import ComponentUtilization
from repro.sim.environment import Environment


def _util_of(cost) -> ComponentUtilization:
    return ComponentUtilization(
        gpu_compute=cost.gpu_compute_frac,
        gpu_busy=cost.gpu_busy_frac,
        mem_bw=cost.mem_bw_frac,
        cpu_cores_active=cost.cpu_cores_active,
    )


class BatchExecutor:
    """Runs one :class:`BatchRequest` on the simulation.

    Parameters
    ----------
    timer:
        Cost model bound to (model, device, precision).
    allocator:
        The device allocator (shared with model weights).
    kv_mode:
        ``"dynamic"`` (HF DynamicCache, the paper's setup) or
        ``"static"`` (pre-allocated; ablation).
    fast_forward:
        If True (default), decode steps are collapsed: instead of one
        simulated event per generated token, steps are advanced in plain
        Python up to the next scheduled simulation event (power-sampler
        tick, end of batch) and a single absolute-time timeout covers
        the whole stretch.  Timestamps are accumulated in the same float
        order as the step-by-step path and scheduled via
        :meth:`~repro.sim.environment.Environment.timeout_at`, so every
        observable — latencies, sampler readings, energy, memory peaks —
        is bit-identical to ``fast_forward=False`` (property-tested in
        ``tests/engine/test_fast_forward.py``).  Disable when another
        process may interrupt this one mid-batch: fast-forward commits
        KV/allocator state ahead of the simulated clock within a
        stretch, which is only safe while no other process can observe
        or preempt the executor between events.
    eager_score_buffers:
        If True (legacy eager-attention models, i.e. Phi-2), hold
        per-layer full-context score buffers whose footprint grows
        quadratically with context — the phenomenological model of the
        Phi-2 memory blow-up and its sl>=512 OOM (see DESIGN.md).
    workspace_bytes:
        Fixed + batch-dependent runtime workspace to hold for the run.
    """

    def __init__(
        self,
        timer: StepTimer,
        allocator: CachingAllocator,
        kv_mode: str = "dynamic",
        eager_score_buffers: Optional[bool] = None,
        workspace_bytes: int = 0,
        fast_forward: bool = True,
    ):
        self.timer = timer
        self.allocator = allocator
        self.kv_mode = kv_mode
        arch = timer.arch
        if eager_score_buffers is None:
            eager_score_buffers = arch.attention_impl == "eager"
        self.eager_score_buffers = eager_score_buffers
        self.workspace_bytes = int(workspace_bytes)
        self.fast_forward = fast_forward
        #: Batches served by the memoized-trajectory fast path (tests).
        self.fastpath_batches = 0

    # -- memory helpers ------------------------------------------------------
    def _make_kv(self, batch_size: int, gen):
        """KV cache for one batch — the hook runtime backends override.

        The returned object must expose the growth protocol the decode
        loop drives: ``prefill(n)``, ``append_token()``, ``seq_len``,
        ``concat_traffic_bytes()`` and ``release()``.
        """
        return KVCache(
            self.timer.arch.kv_cache_spec(),
            self.allocator,
            batch_size=batch_size,
            mode=self.kv_mode,
            max_seq_len=gen.total_tokens if self.kv_mode == "static" else None,
        )

    def _eager_bytes(self, batch_size: int, context: int) -> int:
        arch = self.timer.arch
        # fp16 scores + fp32 softmax upcast per layer, all layers resident.
        return batch_size * arch.n_layers * arch.n_heads * context * context * 6

    def _activation_bytes(self, batch_size: int) -> int:
        arch = self.timer.arch
        per_seq = (4 * arch.hidden_size + 2 * arch.intermediate_size) * 2
        logits = arch.vocab_size * 4 * 2  # fp32 logits + softmax scratch
        return batch_size * (per_seq + logits)

    # -- the process -----------------------------------------------------------
    def run(
        self,
        env: Environment,
        request: BatchRequest,
        state: EngineState,
        obs: Observer = NULL_OBSERVER,
        track: str = "engine",
    ):
        """Generator process: yields timeouts; returns a BatchResult.

        On simulated OOM the result is returned with ``oom=True`` (all
        held memory is released first), mirroring a caught
        ``torch.cuda.OutOfMemoryError``.

        ``obs`` receives one prefill span and one decode span per
        fast-forward stretch (or per token in step mode), stamped with
        the same simulated timestamps either path produces — observing
        a run never perturbs its numbers.
        """
        bs = request.batch_size
        gen = request.gen
        result = BatchResult(request=request, latency_s=0.0, prefill_s=0.0, decode_s=0.0)
        start = env.now

        if self.fast_forward and self._fastpath_eligible():
            # The whole batch's allocator trajectory is timing-independent:
            # resolve it (memoized) and apply the end state up front, then
            # emit the exact same events/timestamps the loop below would.
            return (yield from self._run_trajectory(
                env, request, state, result, start, obs, track))

        held: List[Allocation] = []
        kv = None
        eager_buf: Optional[Allocation] = None
        try:
            held.append(
                self.allocator.alloc(
                    self.workspace_bytes + self._activation_bytes(bs), tag="workspace"
                )
            )
            kv = self._make_kv(bs, gen)

            # ---- prefill ----
            kv.prefill(gen.input_tokens)
            if self.eager_score_buffers:
                eager_buf = self.allocator.alloc(
                    self._eager_bytes(bs, gen.input_tokens), tag="eager-scores"
                )
            cost = self.timer.prefill(bs, gen.input_tokens)
            state.set("prefill", _util_of(cost))
            prefill_start = env.now
            yield env.timeout(cost.seconds)
            result.prefill_s = cost.seconds
            if obs.enabled:
                obs.complete(kinds.PREFILL, prefill_start, env.now,
                             cat=kinds.CAT_ENGINE, track=track, batch=bs,
                             tokens=gen.input_tokens)

            # ---- decode ----
            if self.fast_forward:
                # Collapse decode steps between scheduled events: advance
                # KV/allocator state and accumulate step times in plain
                # Python, then yield one absolute-time timeout per
                # stretch.  The stretch ends at the step whose interval
                # contains the next heap event (a power-sampler tick), so
                # the sampler always reads the utilization of the step in
                # progress at its tick — exactly as step-by-step would.
                # Timestamps accumulate left-to-right from env.now, the
                # same float-addition order the per-token path produces.
                remaining = gen.output_tokens
                while remaining:
                    horizon = env.peek()
                    t = env.now
                    stretch_start = env.now
                    stretch_tokens = remaining
                    cost = None
                    pending_oom: Optional[OutOfMemoryError] = None
                    while remaining:
                        try:
                            context = kv.seq_len
                            concat = kv.concat_traffic_bytes()
                            kv.append_token()
                            if self.eager_score_buffers:
                                assert eager_buf is not None
                                buf, eager_buf = eager_buf, None
                                self.allocator.free(buf)
                                eager_buf = self.allocator.alloc(
                                    self._eager_bytes(bs, kv.seq_len),
                                    tag="eager-scores",
                                )
                        except OutOfMemoryError as exc:
                            # Surface the OOM only after simulated time
                            # has caught up with the completed steps, so
                            # the recorded latency matches step-by-step.
                            pending_oom = exc
                            break
                        cost = self.timer.decode_step(bs, context,
                                                      concat_bytes=concat)
                        t = t + cost.seconds
                        result.step_seconds.append(cost.seconds)
                        remaining -= 1
                        if t >= horizon:
                            break
                    if cost is not None:
                        state.set("decode", _util_of(cost))
                        yield env.timeout_at(t)
                        if obs.enabled:
                            # One span per fast-forward stretch: same
                            # endpoints the per-token path would span,
                            # so traces stay bit-identical in content.
                            obs.complete(
                                kinds.DECODE, stretch_start, env.now,
                                cat=kinds.CAT_ENGINE, track=track, batch=bs,
                                tokens=stretch_tokens - remaining,
                            )
                    if pending_oom is not None:
                        raise pending_oom
            else:
                for _ in range(gen.output_tokens):
                    context = kv.seq_len
                    concat = kv.concat_traffic_bytes()
                    kv.append_token()
                    if self.eager_score_buffers:
                        assert eager_buf is not None
                        # Free-then-alloc: the runtime reuses the buffer in
                        # place when it can; only the footprint grows.  Clear
                        # the reference first so an OOM here cannot cause a
                        # double free in the cleanup path.
                        buf, eager_buf = eager_buf, None
                        self.allocator.free(buf)
                        eager_buf = self.allocator.alloc(
                            self._eager_bytes(bs, kv.seq_len), tag="eager-scores"
                        )
                    cost = self.timer.decode_step(bs, context, concat_bytes=concat)
                    state.set("decode", _util_of(cost))
                    step_start = env.now
                    yield env.timeout(cost.seconds)
                    result.step_seconds.append(cost.seconds)
                    if obs.enabled:
                        obs.complete(kinds.DECODE, step_start, env.now,
                                     cat=kinds.CAT_ENGINE, track=track,
                                     batch=bs, tokens=1)
            result.decode_s = sum(result.step_seconds)
            result.latency_s = env.now - start
        except OutOfMemoryError:
            result.oom = True
            result.latency_s = env.now - start
        finally:
            state.set_idle()
            if eager_buf is not None:
                self.allocator.free(eager_buf)
            if kv is not None:
                kv.release()
            for h in held:
                self.allocator.free(h)
        return result

    # -- memoized-trajectory fast path --------------------------------------
    def _fastpath_eligible(self) -> bool:
        """The trajectory replay assumes the stock KV growth protocol on
        the stock allocator; backends that override either (e.g. the
        paged executor's block pool) keep the generic loop above."""
        return (
            type(self)._make_kv is BatchExecutor._make_kv
            and type(self.allocator) is CachingAllocator
            and self.kv_mode in ("dynamic", "static")
        )

    def _run_trajectory(self, env, request, state, result, start, obs,
                        track):
        """Fast-forward one batch via a memoized allocator trajectory.

        Identical observables to the generic loop in :meth:`run`: the
        allocator ends in the same state (same segments, stats and
        peaks, via :class:`~repro.memsys.fastpath.TrajectoryDelta`), and
        timing/spans/utilization are emitted from the vectorized
        :meth:`~repro.engine.kernels.StepTimer.decode_run` with
        timestamps accumulated in the same float order (``np.cumsum`` is
        bit-identical to the sequential left fold).
        """
        bs = request.batch_size
        gen = request.gen
        kv_spec = self.timer.arch.kv_cache_spec()
        static = self.kv_mode == "static"
        n_out = gen.output_tokens
        if self.eager_score_buffers:
            eager_prefill = self._eager_bytes(bs, gen.input_tokens)
            eager_steps = tuple(self._eager_bytes(bs, gen.input_tokens + j + 1)
                                for j in range(n_out))
        else:
            eager_prefill = None
            eager_steps = ()
        stream = StreamSpec(
            workspace_bytes=self.workspace_bytes + self._activation_bytes(bs),
            n_kv_tensors=2 * kv_spec.n_layers,
            kv_prefill_bytes=kv_spec.layer_tensor_bytes(
                bs, gen.total_tokens if static else gen.input_tokens),
            kv_step_bytes=() if static else tuple(
                kv_spec.layer_tensor_bytes(bs, gen.input_tokens + j + 1)
                for j in range(n_out)),
            eager_prefill_bytes=eager_prefill,
            eager_step_bytes=eager_steps,
            n_tokens=n_out,
        )
        delta = TRAJECTORY_CACHE.delta_for(self.allocator, stream)
        apply_delta(self.allocator, delta)
        self.fastpath_batches += 1
        try:
            if delta.oom is not None and delta.oom[0] == "setup":
                # The generic path raises before its first yield; no
                # prefill span, zero elapsed time.
                result.oom = True
                result.latency_s = env.now - start
                return result

            # ---- prefill ----
            cost = self.timer.prefill(bs, gen.input_tokens)
            state.set("prefill", _util_of(cost))
            prefill_start = env.now
            yield env.timeout(cost.seconds)
            result.prefill_s = cost.seconds
            if obs.enabled:
                obs.complete(kinds.PREFILL, prefill_start, env.now,
                             cat=kinds.CAT_ENGINE, track=track, batch=bs,
                             tokens=gen.input_tokens)

            # ---- decode ----
            n_timed = delta.oom[1] if delta.oom is not None else n_out
            if n_timed:
                concat_coef = 0 if static else kv_spec.bytes_total(bs, 1)
                run = self.timer.decode_run(bs, gen.input_tokens, n_timed,
                                            concat_coef)
                sec = run.seconds
                ts = np.cumsum(np.concatenate(
                    ((env.now,), np.asarray(sec, dtype=np.float64))))[1:]
                i = 0
                while i < n_timed:
                    horizon = env.peek()
                    stretch_start = env.now
                    # First step whose completion time reaches the next
                    # scheduled event ends the stretch (inclusive) —
                    # the `t >= horizon` break of the generic loop.
                    end = int(np.searchsorted(ts, horizon, side="left")) + 1
                    if end <= i:
                        end = i + 1
                    if end > n_timed:
                        end = n_timed
                    result.step_seconds.extend(sec[i:end])
                    last = end - 1
                    state.set("decode", ComponentUtilization(
                        gpu_compute=run.gpu_compute_frac[last],
                        gpu_busy=run.gpu_busy_frac[last],
                        mem_bw=run.mem_bw_frac[last],
                        cpu_cores_active=run.cpu_cores_active[last],
                    ))
                    yield env.timeout_at(float(ts[last]))
                    if obs.enabled:
                        obs.complete(kinds.DECODE, stretch_start, env.now,
                                     cat=kinds.CAT_ENGINE, track=track,
                                     batch=bs, tokens=end - i)
                    i = end
            if delta.oom is not None:
                result.oom = True
                result.latency_s = env.now - start
                return result
            result.decode_s = sum(result.step_seconds)
            result.latency_s = env.now - start
            return result
        finally:
            state.set_idle()
