"""Blockwise 4-bit quantization: uniform INT4 and NF4 (NormalFloat-4).

bitsandbytes 4-bit stores weights in blocks of 64 values, each scaled by
its own absmax.  Uniform INT4 maps the block to the 15-level symmetric
integer grid; NF4 maps to the 16 quantiles of a standard normal — the
information-theoretically optimal codebook for normally distributed
weights (Dettmers et al., QLoRA).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import QuantizationError

#: The 16 NF4 code points from the QLoRA reference implementation.
NF4_CODEBOOK = np.array(
    [
        -1.0,
        -0.6961928009986877,
        -0.5250730514526367,
        -0.39491748809814453,
        -0.28444138169288635,
        -0.18477343022823334,
        -0.09105003625154495,
        0.0,
        0.07958029955625534,
        0.16093020141124725,
        0.24611230194568634,
        0.33791524171829224,
        0.44070982933044434,
        0.5626170039176941,
        0.7229568362236023,
        1.0,
    ],
    dtype=np.float32,
)

#: Symmetric 4-bit integer grid, normalised to [-1, 1].
INT4_CODEBOOK = (np.arange(-7, 8, dtype=np.float32) / 7.0)


@dataclass(frozen=True)
class BlockwiseQuantized:
    """Result of :func:`blockwise_quantize`.

    ``codes`` holds codebook indices (uint8, one per weight — packing two
    per byte is a storage detail the simulator accounts separately);
    ``absmax`` the per-block scales; ``shape`` the original shape.
    """

    codes: np.ndarray
    absmax: np.ndarray
    shape: tuple
    codebook: np.ndarray
    block_size: int


def blockwise_quantize(
    weights: np.ndarray, block_size: int = 64, scheme: str = "nf4"
) -> BlockwiseQuantized:
    """Quantize to 4 bits with per-block absmax scales.

    Parameters
    ----------
    weights:
        Any-shape float array (flattened internally, like bitsandbytes).
    block_size:
        Values per scale block (64 in bnb 4-bit).
    scheme:
        ``"nf4"`` or ``"int4"``.
    """
    w = np.asarray(weights, dtype=np.float32)
    if w.size == 0:
        raise QuantizationError("cannot quantize an empty tensor")
    if block_size < 1:
        raise QuantizationError(f"block size must be >= 1, got {block_size}")
    if scheme == "nf4":
        codebook = NF4_CODEBOOK
    elif scheme == "int4":
        codebook = INT4_CODEBOOK
    else:
        raise QuantizationError(f"unknown 4-bit scheme {scheme!r}")

    flat = w.reshape(-1)
    pad = (-flat.size) % block_size
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.float32)])
    blocks = flat.reshape(-1, block_size)
    absmax = np.abs(blocks).max(axis=1, keepdims=True)
    safe = np.where(absmax == 0.0, 1.0, absmax)
    normed = blocks / safe
    return BlockwiseQuantized(
        codes=_nearest_code(normed, codebook),
        absmax=absmax.astype(np.float32),
        shape=w.shape,
        codebook=codebook,
        block_size=block_size,
    )


def _nearest_code(x: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Index of the nearest entry of the ascending ``codebook`` per value.

    The same pick as ``np.abs(x[..., None] - codebook).argmin(-1)`` on
    finite input, without its ``x.size * len(codebook)`` distance array:
    ``searchsorted`` on the midpoints gives a candidate, then the float32
    distances of it and its two neighbours decide, ties going to the
    lower index as ``argmin``'s first minimum does.  Codes are spaced far
    wider than a float32 ulp, so the nearest code is always in that window.
    """
    last = len(codebook) - 1
    cand = np.searchsorted((codebook[:-1] + codebook[1:]) / 2, x)
    best = np.maximum(cand - 1, 0)
    dist = np.abs(x - codebook[best])
    for nxt in (cand, np.minimum(cand + 1, last)):
        d = np.abs(x - codebook[nxt])
        closer = d < dist
        best = np.where(closer, nxt, best)
        dist = np.where(closer, d, dist)
    return best.astype(np.uint8)


def blockwise_dequantize(q: BlockwiseQuantized) -> np.ndarray:
    """Reconstruct the float32 tensor from a blockwise quantization."""
    values = q.codebook[q.codes] * q.absmax
    flat = values.reshape(-1)
    n = int(np.prod(q.shape))
    return flat[:n].reshape(q.shape)
