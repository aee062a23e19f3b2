"""absmax INT8, LLM.int8() and blockwise 4-bit quantizers."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import (
    LLMInt8Linear,
    NF4_CODEBOOK,
    absmax_dequantize_int8,
    absmax_quantize_int8,
    blockwise_dequantize,
    blockwise_quantize,
    llm_int8_decompose,
)
from repro.quant.blockwise import INT4_CODEBOOK, _nearest_code


class TestAbsmax:
    def test_roundtrip_error_bounded(self, rng):
        w = rng.standard_normal((64, 128)).astype(np.float32)
        q, scales = absmax_quantize_int8(w)
        back = absmax_dequantize_int8(q, scales)
        # Max error per element is half a quantization step.
        steps = scales.repeat(w.shape[1], axis=1)
        assert np.all(np.abs(back - w) <= steps * 0.5 + 1e-7)

    def test_preserves_extremes(self, rng):
        w = rng.standard_normal((8, 16)).astype(np.float32)
        q, _ = absmax_quantize_int8(w)
        assert q.max() == 127 or q.min() == -127

    def test_zero_rows_handled(self):
        w = np.zeros((4, 8), dtype=np.float32)
        q, scales = absmax_quantize_int8(w)
        assert (q == 0).all()
        assert np.isfinite(scales).all()

    def test_axis0_quantization(self, rng):
        w = rng.standard_normal((16, 8)).astype(np.float32)
        q, scales = absmax_quantize_int8(w, axis=0)
        assert scales.shape == (1, 8)

    def test_validation(self):
        with pytest.raises(QuantizationError):
            absmax_quantize_int8(np.ones(5))
        with pytest.raises(QuantizationError):
            absmax_quantize_int8(np.ones((2, 2)), axis=2)
        with pytest.raises(QuantizationError):
            absmax_quantize_int8(np.empty((0, 3)))
        with pytest.raises(QuantizationError):
            absmax_dequantize_int8(np.ones((2, 2), dtype=np.int32), np.ones((2, 1)))


class TestBlockwise:
    def test_nf4_codebook_properties(self):
        assert NF4_CODEBOOK.size == 16
        assert NF4_CODEBOOK[0] == -1.0 and NF4_CODEBOOK[-1] == 1.0
        assert (np.diff(NF4_CODEBOOK) > 0).all()
        assert 0.0 in NF4_CODEBOOK

    @pytest.mark.parametrize("scheme", ["nf4", "int4"])
    def test_roundtrip_shape_and_bound(self, rng, scheme):
        w = (rng.standard_normal((37, 53)) * 0.05).astype(np.float32)
        q = blockwise_quantize(w, block_size=64, scheme=scheme)
        back = blockwise_dequantize(q)
        assert back.shape == w.shape
        # Error bounded by the coarsest code gap times the block absmax.
        gap = np.max(np.diff(q.codebook))
        blocks = np.abs(w).reshape(-1)  # loose bound via global max
        assert np.abs(back - w).max() <= gap * np.abs(w).max() + 1e-7

    def test_nf4_beats_int4_on_gaussian(self, rng):
        """NF4's quantile codebook is optimal for normal weights."""
        w = rng.standard_normal((128, 128)).astype(np.float32) * 0.02
        e_nf4 = np.linalg.norm(blockwise_dequantize(blockwise_quantize(w, scheme="nf4")) - w)
        e_int4 = np.linalg.norm(blockwise_dequantize(blockwise_quantize(w, scheme="int4")) - w)
        assert e_nf4 < e_int4

    def test_padding_for_non_multiple_sizes(self, rng):
        w = rng.standard_normal(100).astype(np.float32)  # not a multiple of 64
        q = blockwise_quantize(w, block_size=64)
        assert blockwise_dequantize(q).shape == (100,)

    def test_codes_fit_4_bits(self, rng):
        w = rng.standard_normal((16, 16)).astype(np.float32)
        q = blockwise_quantize(w)
        assert q.codes.max() <= 15

    @staticmethod
    def _argmin_codes(x, codebook):
        """The n x 16 distance-array pick the quantizer used to make."""
        return np.abs(x[..., None] - codebook).argmin(axis=-1).astype(np.uint8)

    @pytest.mark.parametrize("codebook", [NF4_CODEBOOK, INT4_CODEBOOK],
                             ids=["nf4", "int4"])
    def test_nearest_code_equals_argmin_on_random_slabs(self, rng, codebook):
        for scale in (1.0, 0.05, 1e-3):
            x = np.clip(rng.standard_normal((257, 64)) * scale,
                        -1, 1).astype(np.float32)
            np.testing.assert_array_equal(_nearest_code(x, codebook),
                                          self._argmin_codes(x, codebook))

    @pytest.mark.parametrize("codebook", [NF4_CODEBOOK, INT4_CODEBOOK],
                             ids=["nf4", "int4"])
    def test_nearest_code_equals_argmin_at_midpoints(self, codebook):
        """Ties and near-ties: each midpoint (float32 and float64-rounded),
        one ulp either side, the codes themselves and the ends."""
        mids = np.concatenate([
            (codebook[:-1] + codebook[1:]) / 2,
            ((codebook[:-1].astype(np.float64) + codebook[1:]) / 2
             ).astype(np.float32),
        ])
        up = np.float32(2)
        x = np.concatenate([
            mids, np.nextafter(mids, up), np.nextafter(mids, -up),
            codebook, np.nextafter(codebook, up),
            np.nextafter(codebook, -up),
        ]).astype(np.float32)
        np.testing.assert_array_equal(_nearest_code(x, codebook),
                                      self._argmin_codes(x, codebook))

    def test_quantize_codes_equal_argmin_pick(self, rng):
        w = rng.standard_normal((40, 64)).astype(np.float32)
        normed = w / np.abs(w).max(axis=1, keepdims=True)
        for scheme in ("nf4", "int4"):
            q = blockwise_quantize(w, block_size=64, scheme=scheme)
            np.testing.assert_array_equal(
                q.codes, self._argmin_codes(normed, q.codebook))

    def test_validation(self):
        with pytest.raises(QuantizationError):
            blockwise_quantize(np.array([]))
        with pytest.raises(QuantizationError):
            blockwise_quantize(np.ones(8), block_size=0)
        with pytest.raises(QuantizationError):
            blockwise_quantize(np.ones(8), scheme="fp4x")


class TestLLMInt8:
    def test_outlier_decomposition_finds_planted_columns(self, rng):
        x = rng.standard_normal((32, 64)).astype(np.float32)
        x[:, [3, 40]] *= 20.0
        dec = llm_int8_decompose(x, threshold=6.0)
        assert set([3, 40]) <= set(dec.outlier_cols.tolist())
        assert dec.outlier_fraction < 0.2

    def test_no_outliers_below_threshold(self):
        x = np.full((4, 8), 0.5, dtype=np.float32)
        dec = llm_int8_decompose(x)
        assert dec.outlier_cols.size == 0

    def test_mixed_product_more_accurate_than_naive_int8(self, rng):
        """Keeping outlier columns in FP16 must beat quantizing them."""
        w = (rng.standard_normal((64, 128)) * 0.02).astype(np.float32)
        x = rng.standard_normal((16, 128)).astype(np.float32)
        x[:, :4] *= 25.0  # systematic outliers
        layer = LLMInt8Linear(w)
        err_mixed = layer.relative_error(x)

        # Naive: quantize everything including outliers.
        xq, xs = absmax_quantize_int8(x, axis=1)
        wq, ws = absmax_quantize_int8(w, axis=1)
        naive = (xq.astype(np.int32) @ wq.astype(np.int32).T).astype(np.float32) * xs * ws.T
        ref = layer.exact(x)
        err_naive = np.linalg.norm(naive - ref) / np.linalg.norm(ref)
        assert err_mixed < err_naive

    def test_relative_error_small_for_typical_inputs(self, rng):
        w = (rng.standard_normal((128, 256)) * 0.02).astype(np.float32)
        x = rng.standard_normal((32, 256)).astype(np.float32)
        assert LLMInt8Linear(w).relative_error(x) < 0.03

    def test_forward_shape_and_validation(self, rng):
        w = rng.standard_normal((8, 16)).astype(np.float32)
        layer = LLMInt8Linear(w)
        y = layer.forward(rng.standard_normal((3, 16)).astype(np.float32))
        assert y.shape == (3, 8)
        with pytest.raises(QuantizationError):
            layer.forward(rng.standard_normal((3, 5)))
        with pytest.raises(QuantizationError):
            LLMInt8Linear(np.ones(4))
        with pytest.raises(QuantizationError):
            llm_int8_decompose(np.ones((2, 2)), threshold=0.0)


class TestInt8BlasAccumulation:
    """The float64-GEMM INT8 accumulate must equal int32 bit-for-bit."""

    def test_float64_gemm_equals_int32_accumulator(self, rng):
        for rows, inner, cols in [(7, 64, 5), (32, 2560, 16), (3, 8192, 2)]:
            aq = rng.integers(-127, 128, size=(rows, inner), dtype=np.int8)
            wq = rng.integers(-127, 128, size=(cols, inner), dtype=np.int8)
            via_f64 = aq.astype(np.float64) @ wq.astype(np.float64).T
            via_i32 = aq.astype(np.int32) @ wq.astype(np.int32).T
            assert via_f64.dtype == np.float64
            assert np.array_equal(via_f64, via_i32.astype(np.float64))

    def test_worst_case_magnitudes_stay_exact(self):
        # All-|127| inputs maximize every partial product; the sum
        # 127*127*inner is still far below 2^53, so float64 stays exact.
        inner = 65536
        aq = np.full((2, inner), 127, dtype=np.int8)
        wq = np.full((3, inner), -127, dtype=np.int8)
        via_f64 = aq.astype(np.float64) @ wq.astype(np.float64).T
        expected = float(127 * -127 * inner)
        assert np.all(via_f64 == expected)
        assert via_f64[0, 0] == np.int64(127) * -127 * inner
