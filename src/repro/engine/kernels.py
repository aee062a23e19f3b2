"""Per-step cost model: time and utilization of prefill/decode iterations.

The decode step of batched LLM inference decomposes into

``t_gpu = (t_mem^p + t_comp^p)^(1/p) + n_kernels * kernel_floor``
``t_step = t_gpu + t_host``

where

- ``t_mem`` streams the weights once, gathers the KV cache (strided
  bandwidth), pays the DynamicCache concat copy, and moves activations;
- ``t_comp`` is dense math at the precision's effective FLOP rate plus
  the quantization kernel overheads of
  :class:`~repro.quant.overhead.QuantKernelModel`;
- the p-norm models partial compute/memory overlap (p=inf would be a
  perfect-overlap roofline; measured Jetson behaviour sits near p=2);
- the kernel floor is the minimum execution time of a launched kernel
  on the iGPU (occupancy ramp + launch), dominant for small models;
- ``t_host`` is the CPU-side HF ``generate`` loop (Python dispatch,
  logits post-processing, sampling), scaling inversely with CPU clock
  and linearly with batch size — and, being serial, indifferent to the
  number of online cores (which is exactly the paper's PM-E/F finding).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigError
from repro.hardware.device import EdgeDevice
from repro.models.architecture import TransformerArchitecture
from repro.models.flops import (
    PhaseCounts,
    _activation_bytes as _activation_bytes_of,
    _matmul_params as _matmul_params_of,
    decode_step_counts,
    prefill_counts,
)
from repro.models.footprint import weight_bytes
from repro.power.model import ComponentUtilization
from repro.quant.dtypes import Precision
from repro.quant.overhead import QuantKernelModel


@dataclass(frozen=True)
class EngineCostParams:
    """Calibratable constants of the cost model.

    Defaults are the values fitted against the paper's appendix tables
    (see :mod:`repro.calibration`); ``bw_scale``/``flops_scale`` let the
    fit trim the device's spec-derived capabilities without touching the
    hardware presets.
    """

    #: p-norm exponent for memory/compute overlap.
    overlap_p: float = 2.0
    #: Minimum execution seconds per launched kernel at max clocks.
    kernel_floor_s: float = 42e-6
    #: Host-side seconds per forward step at max CPU clock.
    host_step_s: float = 4.0e-3
    #: Additional host-side seconds per sequence per step.
    host_per_seq_s: float = 0.30e-3
    #: Multiplier on streaming bandwidth (calibration trim).
    bw_scale: float = 1.0
    #: Multiplier on KV-path traffic (cache reads + GQA expansion).
    kv_traffic_scale: float = 1.0
    #: Extra KV-path traffic multiplier when running INT8 (bitsandbytes
    #: attention inserts dtype-conversion copies around the cache).
    int8_kv_penalty: float = 2.0
    #: Multiplier on effective FLOP rate.
    flops_scale: float = 1.0
    #: GEMM efficiency saturates with tokens in flight:
    #: ``eff = n / (n + gemm_sat_tokens)``.
    gemm_sat_tokens: float = 4.0
    #: Quantization kernel cost model.
    quant: QuantKernelModel = field(default_factory=QuantKernelModel)

    def __post_init__(self) -> None:
        if self.overlap_p < 1.0:
            raise ConfigError("overlap_p must be >= 1")
        for name in ("kernel_floor_s", "host_step_s", "host_per_seq_s",
                     "bw_scale", "kv_traffic_scale", "int8_kv_penalty",
                     "flops_scale", "gemm_sat_tokens"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")

    def with_(self, **kwargs) -> "EngineCostParams":
        """Copy with overrides (used by the calibration fitter)."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class StepCost:
    """Time and resource view of one engine step."""

    seconds: float
    t_mem: float
    t_comp: float
    t_kernel_floor: float
    t_host: float
    bytes_moved: float
    #: Fraction of wall time the GPU executes compute-limited work.
    gpu_compute_frac: float
    #: Fraction of wall time any kernel is resident.
    gpu_busy_frac: float
    #: Achieved DRAM bandwidth / peak at current clock.
    mem_bw_frac: float
    #: Average busy CPU cores.
    cpu_cores_active: float

    @property
    def util(self) -> ComponentUtilization:
        """The utilization snapshot this step implies, built once per
        (memoized) cost instead of once per simulated step."""
        # Cached in the instance dict by hand: before Python 3.12,
        # functools.cached_property takes a lock on every first access,
        # and most steps of a long-context run are first accesses.
        util = self.__dict__.get("_util")
        if util is None:
            util = ComponentUtilization.from_step_cost(self)
            self.__dict__["_util"] = util
        return util


@dataclass(frozen=True)
class DecodeRun:
    """Per-token cost arrays for a run of consecutive decode steps.

    Produced by :meth:`StepTimer.decode_run`; token ``j`` covers the
    decode iteration at context length ``ctx_start + j``.  Every element
    is bit-identical to the corresponding field of the scalar
    :meth:`StepTimer.decode_step` cost — the vectorized path replays the
    exact float operation order of :meth:`StepTimer._combine` with numpy
    elementwise arithmetic (IEEE-exact for ``+ - * /``/``min``) and
    keeps the roofline ``**`` terms in scalar Python-float form, where
    numpy's pow is *not* bit-identical.
    """

    seconds: tuple
    gpu_compute_frac: tuple
    gpu_busy_frac: tuple
    mem_bw_frac: tuple
    cpu_cores_active: tuple

    def __len__(self) -> int:
        return len(self.seconds)


#: Run-level memo bound (entries are O(n_steps) tuples; a full study grid
#: touches a few hundred distinct (batch, ctx, run-length, clock) keys).
_RUN_MEMO_CAP = 256

#: Above this magnitude integer byte counts stop being exactly
#: representable as float64 and the coefficient-times-context
#: vectorization of the KV terms would round differently; fall back to
#: the scalar path (unreachable for any realistic model/context).
_EXACT_INT_LIMIT = 2 ** 53


class StepTimer:
    """Computes :class:`StepCost` for a (model, device, precision) triple.

    Step costs are memoized per (phase, batch, context, concat-traffic,
    device operating point): the cost model is a pure function of those
    inputs, and the measurement protocol replays identical batches
    ``warmup + n_runs`` times, so all but the first batch resolve every
    step from the memo.  The operating point token captures the clock
    and core state that :func:`~repro.power.modes.apply_power_mode`
    mutates, so a timer reused across power modes never returns a stale
    cost.  The underlying FLOP/byte counts are additionally shared
    across timers via ``functools.lru_cache`` in :mod:`repro.models.flops`.
    """

    def __init__(
        self,
        arch: TransformerArchitecture,
        device: EdgeDevice,
        precision: Precision,
        params: EngineCostParams | None = None,
    ):
        self.arch = arch
        self.device = device
        self.precision = precision
        self.params = params or EngineCostParams()
        self.weight_bytes = weight_bytes(arch, precision)
        self._memo: dict = {}
        self.memo_hits = 0
        self.memo_misses = 0
        self._run_memo: OrderedDict = OrderedDict()
        self.run_memo_hits = 0
        self.run_memo_misses = 0

    def _operating_point(self) -> tuple:
        """Everything :meth:`_combine` reads from mutable device state."""
        dev = self.device
        return (dev.gpu.freq_hz, dev.memory.freq_hz,
                dev.cpu.freq_hz, dev.cpu.online_cores)

    def _memoized(self, is_prefill: bool, batch_size: int, n_ctx: int,
                  concat_bytes: float) -> StepCost:
        key = (is_prefill, batch_size, n_ctx, concat_bytes,
               self._operating_point())
        cost = self._memo.get(key)
        if cost is not None:
            self.memo_hits += 1
            return cost
        self.memo_misses += 1
        if is_prefill:
            counts = prefill_counts(self.arch, batch_size, n_ctx,
                                    self.weight_bytes)
            cost = self._combine(counts, batch_size * n_ctx,
                                 concat_bytes=0.0, is_prefill=True)
        else:
            counts = decode_step_counts(self.arch, batch_size, n_ctx,
                                        self.weight_bytes)
            cost = self._combine(counts, batch_size,
                                 concat_bytes=concat_bytes, is_prefill=False)
        self._memo[key] = cost
        return cost

    # -- internals -----------------------------------------------------------
    def _combine(self, counts: PhaseCounts, n_tokens: int,
                 concat_bytes: float, is_prefill: bool) -> StepCost:
        p = self.params
        dev = self.device
        gpu = dev.gpu

        stream_bw = dev.memory.streaming_bandwidth() * p.bw_scale

        kv_scale = p.kv_traffic_scale
        if self.precision is Precision.INT8 and p.quant.uses_fallback(gpu, self.precision):
            kv_scale *= p.int8_kv_penalty
        traffic_mult = p.quant.weight_traffic_multiplier(gpu, self.precision)
        stream_bytes = (
            counts.weight_bytes_read * traffic_mult
            + counts.activation_bytes
            + counts.kv_bytes_written
            + concat_bytes
            + (counts.kv_bytes_read + counts.kv_expand_bytes) * kv_scale
        )
        t_mem = stream_bytes / stream_bw

        # GEMM efficiency saturates with the number of tokens in flight.
        sat = n_tokens / (n_tokens + p.gemm_sat_tokens)
        flops_rate = (
            gpu.effective_flops(self.precision)
            * p.flops_scale
            * sat
            * p.quant.math_rate_multiplier(gpu, self.precision)
        )
        t_matmul = counts.flops / flops_rate
        t_dequant = p.quant.dequant_seconds(self.arch, gpu, self.precision)
        t_actq = p.quant.activation_overhead_seconds(
            self.arch, gpu, self.precision, n_tokens
        )
        t_comp = t_matmul + t_dequant + t_actq
        # For power attribution: only ALU-saturating work counts as
        # compute; the rest of the dequant time is memory-latency stall.
        t_alu = (
            t_matmul
            + t_actq
            + t_dequant * p.quant.dequant_alu_fraction(self.precision)
        )

        t_roof = (t_mem**p.overlap_p + t_comp**p.overlap_p) ** (1.0 / p.overlap_p)
        # Kernel floors shrink with GPU clock and, partially, memory clock
        # (occupancy ramps are latency-bound).
        floor_scale = gpu.freq_ratio * dev.memory.freq_ratio**0.5
        n_kernels = self.arch.kernels_per_step
        if is_prefill:
            n_kernels += self.arch.n_layers  # attention mask/materialisation
        t_floor = n_kernels * p.kernel_floor_s / floor_scale
        t_gpu = t_roof + t_floor

        t_host = (p.host_step_s + p.host_per_seq_s * self._host_seqs(n_tokens, is_prefill)) \
            / dev.cpu.freq_ratio
        seconds = t_gpu + t_host

        busy_cap = p.quant.gpu_utilization(self.precision)
        gpu_busy = (t_gpu / seconds) * busy_cap
        denom = t_mem + t_comp
        gpu_compute = gpu_busy * (t_alu / denom if denom > 0 else 0.0)
        bytes_moved = stream_bytes
        peak_bw_now = dev.memory.peak_bandwidth * dev.memory.effective_ratio
        mem_bw_frac = min(1.0, bytes_moved / (peak_bw_now * seconds))
        # PyTorch's dispatch thread plus worker/GC threads keep a couple
        # of cores busy throughout; the serial generate loop adds more
        # while host-bound.
        cpu_cores = 2.2 + 0.8 * (t_host / seconds)
        return StepCost(
            seconds=seconds,
            t_mem=t_mem,
            t_comp=t_comp,
            t_kernel_floor=t_floor,
            t_host=t_host,
            bytes_moved=bytes_moved,
            gpu_compute_frac=gpu_compute,
            gpu_busy_frac=gpu_busy,
            mem_bw_frac=mem_bw_frac,
            cpu_cores_active=min(cpu_cores, float(dev.cpu.online_cores)),
        )

    @staticmethod
    def _host_seqs(n_tokens: int, is_prefill: bool) -> float:
        # Host post-processing is per sequence; during prefill HF does the
        # same work once for the whole batch.
        return 1.0 if is_prefill else float(n_tokens)

    # -- public --------------------------------------------------------------
    def prefill(self, batch_size: int, prompt_tokens: int) -> StepCost:
        """Cost of ingesting the prompt for the whole batch."""
        return self._memoized(True, batch_size, prompt_tokens, 0.0)

    def decode_step(self, batch_size: int, context_len: int,
                    concat_bytes: float = 0.0) -> StepCost:
        """Cost of one decode iteration at the given context length."""
        return self._memoized(False, batch_size, context_len, concat_bytes)

    def decode_run(self, batch_size: int, ctx_start: int, n_steps: int,
                   concat_coef: int = 0) -> DecodeRun:
        """Costs for ``n_steps`` consecutive decode iterations, batched.

        Token ``j`` decodes at context length ``ctx_start + j`` with
        DynamicCache concat traffic ``concat_coef * ctx + concat_coef *
        (ctx + 1)`` (``concat_coef`` is the per-context-token KV byte
        count of the whole batch; 0 for static/preallocated caches —
        exactly what :meth:`~repro.memsys.kvcache.KVCache.concat_traffic_bytes`
        feeds the scalar path).

        The whole run is computed as numpy array ops — one pass instead
        of ``n_steps`` Python-level cost evaluations — and memoized per
        (batch, ctx_start, n_steps, concat_coef, operating point).
        Subclasses that override :meth:`_combine` (e.g. the GGUF timer)
        transparently fall back to the scalar per-step path, as does any
        byte count too large for exact float64 integer arithmetic.
        """
        if n_steps <= 0:
            empty = ()
            return DecodeRun(empty, empty, empty, empty, empty)
        key = (batch_size, ctx_start, n_steps, concat_coef,
               self._operating_point())
        run = self._run_memo.get(key)
        if run is not None:
            self.run_memo_hits += 1
            self._run_memo.move_to_end(key)
            return run
        self.run_memo_misses += 1
        run = self._decode_run_compute(batch_size, ctx_start, n_steps,
                                       concat_coef)
        self._run_memo[key] = run
        if len(self._run_memo) > _RUN_MEMO_CAP:
            self._run_memo.popitem(last=False)
        return run

    def _decode_run_compute(self, batch_size: int, ctx_start: int,
                            n_steps: int, concat_coef: int) -> DecodeRun:
        arch = self.arch
        kv_spec = arch.kv_cache_spec(2)
        kv_coef = kv_spec.bytes_total(batch_size, 1)
        ctx_max = ctx_start + n_steps
        vectorizable = (
            type(self)._combine is StepTimer._combine
            and kv_coef * ctx_max < _EXACT_INT_LIMIT
            and concat_coef * 2 * (ctx_max + 1) < _EXACT_INT_LIMIT
        )
        if not vectorizable:
            costs = [
                self._memoized(False, batch_size, ctx_start + j,
                               concat_coef * (ctx_start + j)
                               + concat_coef * (ctx_start + j + 1))
                for j in range(n_steps)
            ]
            return DecodeRun(
                seconds=tuple(c.seconds for c in costs),
                gpu_compute_frac=tuple(c.gpu_compute_frac for c in costs),
                gpu_busy_frac=tuple(c.gpu_busy_frac for c in costs),
                mem_bw_frac=tuple(c.mem_bw_frac for c in costs),
                cpu_cores_active=tuple(c.cpu_cores_active for c in costs),
            )

        p = self.params
        dev = self.device
        gpu = dev.gpu
        n_tokens = batch_size

        # Scalar constants, computed with the exact expressions (and float
        # operation order) of decode_step_counts()/_combine().
        ctx = np.arange(ctx_start, ctx_max, dtype=np.float64)
        dense_flops = 2.0 * n_tokens * _matmul_params_of(arch)
        attn_coef = 4.0 * n_tokens * arch.n_layers * arch.n_heads * arch.head_dim
        flops = dense_flops + attn_coef * ctx

        kv_read = float(kv_coef) * ctx
        kv_written = float(kv_spec.bytes_total(batch_size, 1))
        if arch.gqa_ratio > 1:
            kv_tail = kv_read + (2.0 * (arch.gqa_ratio - 1)) * kv_read
        else:
            kv_tail = kv_read + 0.0
        activation = _activation_bytes_of(arch, n_tokens)

        stream_bw = dev.memory.streaming_bandwidth() * p.bw_scale
        kv_scale = p.kv_traffic_scale
        if self.precision is Precision.INT8 and p.quant.uses_fallback(gpu, self.precision):
            kv_scale *= p.int8_kv_penalty
        traffic_mult = p.quant.weight_traffic_multiplier(gpu, self.precision)
        stream_base = (
            float(self.weight_bytes) * traffic_mult
            + activation
            + kv_written
        )
        if concat_coef:
            cc = float(concat_coef)
            concat = cc * ctx + cc * (ctx + 1.0)
        else:
            concat = 0.0
        stream_bytes = stream_base + concat + kv_tail * kv_scale
        t_mem = stream_bytes / stream_bw

        sat = n_tokens / (n_tokens + p.gemm_sat_tokens)
        flops_rate = (
            gpu.effective_flops(self.precision)
            * p.flops_scale
            * sat
            * p.quant.math_rate_multiplier(gpu, self.precision)
        )
        t_matmul = flops / flops_rate
        t_dequant = p.quant.dequant_seconds(arch, gpu, self.precision)
        t_actq = p.quant.activation_overhead_seconds(
            arch, gpu, self.precision, n_tokens
        )
        t_comp = t_matmul + t_dequant + t_actq
        t_alu = t_matmul + t_actq + t_dequant * p.quant.dequant_alu_fraction(self.precision)

        # numpy's elementwise ** is not bit-identical to Python's float
        # pow — keep the roofline in scalar Python-float form.
        pw = p.overlap_p
        inv_pw = 1.0 / p.overlap_p
        t_roof = np.array(
            [(m ** pw + c ** pw) ** inv_pw
             for m, c in zip(t_mem.tolist(), t_comp.tolist())],
            dtype=np.float64,
        )
        floor_scale = gpu.freq_ratio * dev.memory.freq_ratio**0.5
        t_floor = arch.kernels_per_step * p.kernel_floor_s / floor_scale
        t_gpu = t_roof + t_floor

        t_host = (p.host_step_s + p.host_per_seq_s * self._host_seqs(n_tokens, False)) \
            / dev.cpu.freq_ratio
        seconds = t_gpu + t_host

        busy_cap = p.quant.gpu_utilization(self.precision)
        gpu_busy = (t_gpu / seconds) * busy_cap
        denom = t_mem + t_comp
        ratio = np.divide(t_alu, denom, out=np.zeros_like(t_alu),
                          where=denom > 0)
        gpu_compute = gpu_busy * ratio
        peak_bw_now = dev.memory.peak_bandwidth * dev.memory.effective_ratio
        mem_bw_frac = np.minimum(1.0, stream_bytes / (peak_bw_now * seconds))
        cpu_cores = 2.2 + 0.8 * (t_host / seconds)
        cpu_active = np.minimum(cpu_cores, float(dev.cpu.online_cores))
        return DecodeRun(
            seconds=tuple(seconds.tolist()),
            gpu_compute_frac=tuple(gpu_compute.tolist()),
            gpu_busy_frac=tuple(gpu_busy.tolist()),
            mem_bw_frac=tuple(mem_bw_frac.tolist()),
            cpu_cores_active=tuple(cpu_active.tolist()),
        )
