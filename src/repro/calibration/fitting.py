"""Least-squares calibration of the engine against the paper's tables.

``fit_cost_params`` tunes the handful of free constants in
:class:`~repro.engine.kernels.EngineCostParams` so the simulated latency
matches the appendix latency columns (Tables 4, 6) in relative terms.
``fit_ppl_sensitivity`` anchors the quantization->perplexity model on
Table 3's INT4 column.

Both run offline in seconds (``examples/recalibrate.py``) and their
output is frozen into :mod:`repro.calibration.constants`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.calibration import paperdata
from repro.engine.kernels import EngineCostParams, StepTimer
from repro.errors import CalibrationError
from repro.models.zoo import PAPER_MODELS
from repro.quant.dtypes import Precision
from repro.quant.error import measure_quant_error


def _latency_targets() -> List[Tuple[str, int, int, int, float]]:
    """(model, bs, input_tokens, output_tokens, latency_s) tuples."""
    out: List[Tuple[str, int, int, int, float]] = []
    for model, rows in paperdata.TABLE4_BATCH_WIKITEXT.items():
        for bs, (_ram, lat, _tp) in rows.items():
            if lat is not None:
                out.append((model, bs, 32, 64, lat))
    for model, rows in paperdata.TABLE6_SEQLEN_LONGBENCH.items():
        for sl, (_ram, lat, _tp) in rows.items():
            if lat is None:
                continue
            inp, outp = paperdata.SEQLEN_SPLIT[sl]
            out.append((model, 32, inp, outp, lat))
    return out


def predict_latency(
    params: EngineCostParams,
    model_name: str,
    batch_size: int,
    input_tokens: int,
    output_tokens: int,
    device_factory=None,
    stride: int = 1,
) -> float:
    """Closed-form batch latency (no DES) for fitting speed.

    Sums the analytic prefill cost and per-step decode costs — identical
    math to the executor, minus allocator effects.  ``stride`` > 1
    samples every n-th decode step and scales (costs are smooth in
    context length, so the error is negligible; used by the fitter).
    """
    from repro.hardware.jetson import orin_agx_64gb
    from repro.memsys.kvcache import KVCacheSpec

    device = (device_factory or orin_agx_64gb)()
    arch = PAPER_MODELS[model_name]
    precision = Precision.parse(paperdata.SWEEP_PRECISION[model_name])
    timer = StepTimer(arch, device, precision, params)
    spec: KVCacheSpec = arch.kv_cache_spec()

    total = timer.prefill(batch_size, input_tokens).seconds
    steps = range(0, output_tokens, stride)
    scale = output_tokens / len(steps)
    decode = 0.0
    for step in steps:
        context = input_tokens + step
        concat = spec.bytes_total(batch_size, context) + spec.bytes_total(
            batch_size, context + 1
        )
        decode += timer.decode_step(batch_size, context, concat_bytes=concat).seconds
    return total + decode * scale


def fit_cost_params(
    base: EngineCostParams | None = None,
    targets: Sequence[Tuple[str, int, int, int, float]] | None = None,
    verbose: bool = False,
) -> EngineCostParams:
    """Fit the engine's free constants to the paper's latency tables.

    Free parameters: kernel floor, host overheads, bandwidth trims and
    the INT8 dequant cycle count.  Residuals are log-ratios, so every
    configuration (40 ms or 1600 s) carries equal weight.
    """
    base = base or EngineCostParams()
    targets = list(targets if targets is not None else _latency_targets())
    if not targets:
        raise CalibrationError("no calibration targets supplied")

    # Physically bounded fit: bandwidth and FLOP trims may not push the
    # device past its theoretical peaks.
    names = ("kernel_floor_s", "host_step_s", "host_per_seq_s", "bw_scale",
             "kv_traffic_scale", "int8_kv_penalty", "gemm_sat_tokens",
             "flops_scale")
    lo = np.array([5e-6, 1e-3, 1e-5, 0.70, 0.5, 1.0, 0.1, 0.50, 10.0])
    hi = np.array([90e-6, 30e-3, 2e-3, 1.28, 8.0, 4.0, 256.0, 1.61, 80.0])
    x0 = np.clip(
        np.array([getattr(base, n) for n in names] + [base.quant.int8_cycles_per_param]),
        lo, hi,
    )

    def build(x: np.ndarray) -> EngineCostParams:
        quant = type(base.quant)(
            int8_cycles_per_param=float(x[len(names)]),
            int4_cycles_per_param=base.quant.int4_cycles_per_param,
            act_quant_cycles_per_elem=base.quant.act_quant_cycles_per_elem,
            int8_gemm_speedup=base.quant.int8_gemm_speedup,
        )
        return base.with_(
            **{n: float(v) for n, v in zip(names, x[: len(names)])}, quant=quant
        )

    def residuals(x: np.ndarray) -> np.ndarray:
        params = build(x)
        res = []
        for model, bs, inp, outp, lat in targets:
            pred = predict_latency(params, model, bs, inp, outp, stride=8)
            res.append(math.log(pred / lat))
        return np.array(res)

    # Imported here: scipy costs ~0.5 s and ~40 MB on ``import repro``.
    from scipy.optimize import least_squares

    sol = least_squares(
        residuals, x0, bounds=(lo, hi), method="trf",
        x_scale=np.maximum(np.abs(x0), lo), max_nfev=200,
    )
    fitted = build(sol.x)
    if verbose:  # pragma: no cover - diagnostic path
        r = residuals(sol.x)
        print(f"fit rms log-error: {float(np.sqrt(np.mean(r**2))):.3f}")
    return fitted


def fit_ppl_sensitivity(
    exponent: float = 0.75, seed: int = 0
) -> Dict[str, float]:
    """Per-model sensitivity anchored on Table 3's INT4 perplexities.

    Solves ``s`` in ``ln(ppl_int4/ppl_anchor) = s * err_int4**exponent``
    per model, averaging the two workloads.  Models whose anchor is INT8
    (Deepseek) use the INT4/INT8 ratio with the error *difference*.
    """
    from repro.calibration.constants import PPL_ANCHOR_PRECISION

    out: Dict[str, float] = {}
    for model in paperdata.MODELS:
        arch = PAPER_MODELS[model]
        e4 = measure_quant_error(arch, Precision.INT4, seed=seed).rel_matmul_error
        e_anchor_prec = Precision.parse(PPL_ANCHOR_PRECISION[model])
        e_anchor = measure_quant_error(arch, e_anchor_prec, seed=seed).rel_matmul_error
        deltas = []
        for ds in ("wikitext2", "longbench"):
            table = paperdata.TABLE3_PERPLEXITY[ds][model]
            p4 = table["int4"]
            p_anchor = table[e_anchor_prec.value]
            if p4 is None or p_anchor is None:
                continue
            num = math.log(p4 / p_anchor)
            den = e4**exponent - e_anchor**exponent
            if den <= 0:
                raise CalibrationError(f"degenerate error gap for {model}")
            deltas.append(num / den)
        if not deltas:
            raise CalibrationError(f"no usable Table 3 rows for {model}")
        out[model] = float(np.mean(deltas))
    return out
