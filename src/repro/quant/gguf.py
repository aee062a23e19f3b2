"""GGUF/GGML k-quant weight formats (llama.cpp's on-disk dtypes).

The llama.cpp runtime stores weights in fixed-layout *blocks* rather
than bitsandbytes' row/blockwise scale tensors.  The two formats the
edge-serving literature sweeps most often (Husom et al., "Sustainable
LLM Inference for Edge AI"; Abstreiter et al.) are modelled here with
their exact storage layouts:

- **Q8_0** — blocks of 32 weights: one fp16 scale + 32 int8 codes
  = 34 bytes / 32 weights = 8.5 bits per weight.
- **Q4_K** — super-blocks of 256 weights split into 8 sub-blocks of 32:
  two fp16 super-scales (``d``, ``dmin``) + 12 bytes of 6-bit packed
  sub-block scales/mins + 128 bytes of 4-bit codes = 144 bytes / 256
  weights = 4.5 bits per weight.  Sub-block scales are themselves
  quantized against the super-block scale — the "k" in k-quant.

Both quantizers are implemented for real in numpy so the dequantization
*error* model is measured, not asserted; :func:`gguf_rel_error` mirrors
:func:`repro.quant.error.measure_quant_error` and feeds the same
perplexity-delta machinery.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.quant.dtypes import Precision


@dataclass(frozen=True)
class GGMLQuantType:
    """Storage layout of one GGUF weight dtype.

    ``block_weights`` weights are stored in ``block_bytes`` bytes, so
    ``bits_per_weight`` includes every scale/min amortised exactly.
    """

    name: str
    block_weights: int
    block_bytes: int

    @property
    def bits_per_weight(self) -> float:
        return 8.0 * self.block_bytes / self.block_weights

    def tensor_bytes(self, n_weights: int) -> int:
        """Storage for ``n_weights`` values (block-rounded, as on disk)."""
        n_blocks = -(-n_weights // self.block_weights)
        return n_blocks * self.block_bytes


#: fp16 scale + 32 int8 codes.
Q8_0 = GGMLQuantType("Q8_0", block_weights=32, block_bytes=34)
#: 2 fp16 super-scales + 12B packed 6-bit sub-scales + 128B nibbles.
Q4_K = GGMLQuantType("Q4_K", block_weights=256, block_bytes=144)
#: Unquantized half/full precision tensors (1 "block" per weight).
F16 = GGMLQuantType("F16", block_weights=1, block_bytes=2)
F32 = GGMLQuantType("F32", block_weights=1, block_bytes=4)

GGUF_TYPES: Dict[str, GGMLQuantType] = {
    t.name: t for t in (Q8_0, Q4_K, F16, F32)
}

#: Which GGUF dtype a :class:`Precision` maps onto when a spec asks the
#: gguf runtime for that precision (k-quants stand in for bitsandbytes).
_PRECISION_TO_GGUF: Dict[Precision, GGMLQuantType] = {
    Precision.FP32: F32,
    Precision.FP16: F16,
    Precision.INT8: Q8_0,
    Precision.INT4: Q4_K,
}


def gguf_type_for(precision: Precision) -> GGMLQuantType:
    """The GGUF weight dtype serving a given abstract precision."""
    try:
        return _PRECISION_TO_GGUF[precision]
    except KeyError:  # pragma: no cover - exhaustive enum
        raise QuantizationError(
            f"no GGUF dtype for precision {precision}") from None


# -- real quantizers ---------------------------------------------------------

def _pad_blocks(w: np.ndarray, block: int) -> Tuple[np.ndarray, int]:
    flat = np.asarray(w, dtype=np.float32).reshape(-1)
    if flat.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    pad = (-flat.size) % block
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.float32)])
    return flat.reshape(-1, block), flat.size - pad


def quantize_q8_0(weights: np.ndarray) -> np.ndarray:
    """Quantize-dequantize through the Q8_0 layout (blocks of 32)."""
    blocks, n = _pad_blocks(weights, Q8_0.block_weights)
    absmax = np.abs(blocks).max(axis=1, keepdims=True)
    d = (absmax / 127.0).astype(np.float16).astype(np.float32)
    scale = np.where(d > 0, d, 1.0)
    q = np.clip(np.round(blocks / scale), -127, 127)
    out = (q * d).reshape(-1)[:n]
    return out.reshape(np.asarray(weights).shape)


def quantize_q4_k(weights: np.ndarray) -> np.ndarray:
    """Quantize-dequantize through the Q4_K layout.

    Affine 4-bit sub-blocks (codes in [0, 15] against a per-sub-block
    scale and min), with the sub-block scales and mins themselves
    quantized to 6 bits against fp16 super-block maxima.
    """
    sub = 32
    blocks, n = _pad_blocks(weights, Q4_K.block_weights)
    subs = blocks.reshape(blocks.shape[0], -1, sub)  # (super, 8, 32)
    wmin = subs.min(axis=2)
    wmax = subs.max(axis=2)
    scales = (wmax - wmin) / 15.0
    mins = -wmin
    # k-quant second level: 6-bit scales/mins against fp16 super maxima.
    d = (scales.max(axis=1, keepdims=True) / 63.0)
    d = d.astype(np.float16).astype(np.float32)
    dmin = (mins.max(axis=1, keepdims=True) / 63.0)
    dmin = dmin.astype(np.float16).astype(np.float32)
    ls = np.clip(np.round(scales / np.where(d > 0, d, 1.0)), 0, 63)
    lm = np.clip(np.round(mins / np.where(dmin > 0, dmin, 1.0)), 0, 63)
    eff_scale = (d * ls)[..., None]
    eff_min = (dmin * lm)[..., None]
    denom = np.where(eff_scale > 0, eff_scale, 1.0)
    q = np.clip(np.round((subs + eff_min) / denom), 0, 15)
    deq = q * eff_scale - eff_min
    out = deq.reshape(-1)[:n]
    return out.reshape(np.asarray(weights).shape)


_QUANTIZERS = {"Q8_0": quantize_q8_0, "Q4_K": quantize_q4_k}


@dataclass(frozen=True)
class GGUFErrorReport:
    """Measured dequantization error of one (model, dtype) pair."""

    model: str
    gguf_type: str
    rel_matmul_error: float


@lru_cache(maxsize=256)
def gguf_rel_error(arch, qtype_name: str, seed: int = 0,
                   n_tokens: int = 256) -> GGUFErrorReport:
    """Matmul-level relative error of a k-quant dtype on LLM-like weights.

    Same protocol as :func:`repro.quant.error.measure_quant_error`:
    synthetic weights/activations with the model's scale statistics, the
    real quantizer, and the relative error of ``x @ w.T``.  Memoized and
    seeded via crc32 of the model name, so it is stable across processes.
    """
    from repro.quant.error import synth_activations, synth_weights

    if qtype_name not in GGUF_TYPES:
        raise QuantizationError(
            f"unknown GGUF dtype {qtype_name!r}; "
            f"known: {', '.join(sorted(GGUF_TYPES))}")
    rng = np.random.default_rng(
        seed ^ (zlib.crc32(arch.name.encode()) & 0xFFFF))
    w = synth_weights(arch, rng)
    if qtype_name == "F32":
        err = 0.0
    elif qtype_name == "F16":
        w16 = w.astype(np.float16).astype(np.float32)
        err = float(np.linalg.norm(w16 - w) / np.linalg.norm(w))
    else:
        x = synth_activations(arch, rng, n_tokens)
        wq = _QUANTIZERS[qtype_name](w)
        ref = x @ w.T
        approx = x @ wq.T
        err = float(np.linalg.norm(approx - ref) / np.linalg.norm(ref))
    return GGUFErrorReport(model=arch.name, gguf_type=qtype_name,
                           rel_matmul_error=err)


def gguf_weight_bytes(arch, precision: Precision) -> int:
    """Model weight bytes in a GGUF file at the dtype for ``precision``.

    llama.cpp quantizes the linear (matmul) tensors to the k-quant
    dtype; embeddings, norms and biases stay fp16 — the same split
    bitsandbytes applies, so footprints are comparable across runtimes.
    """
    qtype = gguf_type_for(precision)
    pb = arch.param_breakdown()
    linear = qtype.tensor_bytes(pb.linear)
    rest = pb.non_linear * 2  # fp16
    return int(linear + rest)
