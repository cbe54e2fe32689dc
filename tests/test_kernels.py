"""Tests for the numerical kernels: im2col, GEMM, qgemm, pooling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.kernels import (avg_pool, conv_output_hw, flatten_filters,
                           gemm_f16, gemm_f32, global_avg_pool, im2col,
                           max_pool, qgemm, qgemm_accumulate,
                           quantize_bias)
from repro.tensor import QuantParams


def naive_max_pool(x, kernel, stride, padding):
    """Per-window reference max pool over the unpadded cells only, so
    a padded position can never be the maximum."""
    batch, channels, in_h, in_w = x.shape
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    out = np.empty((batch, channels, out_h, out_w), dtype=x.dtype)
    for i in range(out_h):
        top = i * stride - padding
        for j in range(out_w):
            left = j * stride - padding
            window = x[:, :, max(top, 0):top + kernel,
                       max(left, 0):left + kernel]
            out[:, :, i, j] = window.max(axis=(2, 3))
    return out


def naive_conv(x, weights, bias, stride, padding):
    """O(n^7) reference convolution for correctness checks."""
    batch, in_c, in_h, in_w = x.shape
    out_c, _, k, _ = weights.shape
    out_h, out_w = conv_output_hw(in_h, in_w, k, stride, padding)
    padded = np.zeros((batch, in_c, in_h + 2 * padding,
                       in_w + 2 * padding), dtype=np.float64)
    padded[:, :, padding:padding + in_h, padding:padding + in_w] = x
    out = np.zeros((batch, out_c, out_h, out_w), dtype=np.float64)
    for b in range(batch):
        for oc in range(out_c):
            for oy in range(out_h):
                for ox in range(out_w):
                    window = padded[b, :, oy * stride:oy * stride + k,
                                    ox * stride:ox * stride + k]
                    out[b, oc, oy, ox] = (window
                                          * weights[oc]).sum() + bias[oc]
    return out.astype(np.float32)


class TestConvOutputHw:
    def test_basic(self):
        assert conv_output_hw(28, 28, 5, 1, 2) == (28, 28)

    def test_stride(self):
        assert conv_output_hw(224, 224, 7, 2, 3) == (112, 112)

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            conv_output_hw(2, 2, 5, 1, 0)


class TestIm2col:
    def test_conv_via_im2col_matches_naive(self, rng):
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        weights = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(4).astype(np.float32)
        for stride, padding in ((1, 0), (1, 1), (2, 1)):
            columns = im2col(x, 3, stride, padding)
            flat = flatten_filters(weights)
            out = columns @ flat.T + bias
            out_h, out_w = conv_output_hw(8, 8, 3, stride, padding)
            out = out.reshape(2, out_h, out_w, 4).transpose(0, 3, 1, 2)
            expected = naive_conv(x, weights, bias, stride, padding)
            np.testing.assert_allclose(out, expected, rtol=1e-4,
                                       atol=1e-4)

    def test_custom_pad_value(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        columns = im2col(x, 2, 1, 1, pad_value=9.0)
        assert (columns == 9.0).any()

    def test_non_nchw_rejected(self):
        with pytest.raises(ShapeError):
            im2col(np.zeros((2, 2)), 1, 1, 0)

    def test_column_count(self):
        x = np.zeros((3, 2, 10, 10), dtype=np.float32)
        columns = im2col(x, 3, 1, 0)
        assert columns.shape == (3, 64, 18)

    def test_flatten_filters_shape(self):
        filters = np.zeros((4, 3, 5, 5))
        assert flatten_filters(filters).shape == (4, 75)

    def test_flatten_filters_rank_check(self):
        with pytest.raises(ShapeError):
            flatten_filters(np.zeros((4, 75)))


class TestGemm:
    def test_f32_matches_numpy(self, rng):
        a = rng.standard_normal((8, 16)).astype(np.float32)
        b = rng.standard_normal((16, 4)).astype(np.float32)
        np.testing.assert_allclose(gemm_f32(a, b), a @ b, rtol=1e-6)

    def test_f32_bias(self, rng):
        a = rng.standard_normal((2, 3)).astype(np.float32)
        b = rng.standard_normal((3, 5)).astype(np.float32)
        bias = rng.standard_normal(5).astype(np.float32)
        np.testing.assert_allclose(gemm_f32(a, b, bias), a @ b + bias,
                                   rtol=1e-6)

    def test_f16_output_dtype(self, rng):
        a = rng.standard_normal((4, 4)).astype(np.float16)
        out = gemm_f16(a, a)
        assert out.dtype == np.float16

    def test_f16_close_to_f32(self, rng):
        a = rng.standard_normal((16, 32)).astype(np.float32)
        b = rng.standard_normal((32, 8)).astype(np.float32)
        full = a @ b
        half = gemm_f16(a, b).astype(np.float32)
        np.testing.assert_allclose(half, full, rtol=2e-2, atol=2e-2)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            gemm_f32(np.zeros((2, 3), np.float32),
                     np.zeros((4, 5), np.float32))


class TestQgemm:
    def test_accumulator_matches_float_affine(self, rng):
        """The integer accumulator must equal the exact centred
        product sum: sum (ql - zl)(qr - zr)."""
        lhs_q = rng.integers(0, 256, (6, 12)).astype(np.uint8)
        rhs_q = rng.integers(0, 256, (12, 5)).astype(np.uint8)
        zl, zr = 100, 140
        acc = qgemm_accumulate(lhs_q, zl, rhs_q, zr)
        expected = ((lhs_q.astype(np.int64) - zl)
                    @ (rhs_q.astype(np.int64) - zr))
        np.testing.assert_array_equal(acc, expected.astype(np.int32))

    def test_full_qgemm_approximates_float_gemm(self, rng):
        real_lhs = rng.uniform(-1, 1, (8, 32)).astype(np.float32)
        real_rhs = rng.uniform(-0.5, 0.5, (32, 6)).astype(np.float32)
        lhs_params = QuantParams.from_array(real_lhs)
        rhs_params = QuantParams.from_array(real_rhs)
        real_out = real_lhs @ real_rhs
        out_params = QuantParams.from_array(real_out)
        codes = qgemm(lhs_params.quantize(real_lhs), lhs_params,
                      rhs_params.quantize(real_rhs), rhs_params,
                      out_params)
        approx = out_params.dequantize(codes)
        # Error from two 8-bit operands accumulates; stay within a few
        # output steps.
        assert np.max(np.abs(approx - real_out)) < 6 * out_params.scale

    def test_bias_folding(self, rng):
        real_lhs = rng.uniform(-1, 1, (4, 16)).astype(np.float32)
        real_rhs = rng.uniform(-1, 1, (16, 3)).astype(np.float32)
        bias = np.array([0.5, -0.25, 1.0], dtype=np.float32)
        lhs_params = QuantParams.from_array(real_lhs)
        rhs_params = QuantParams.from_array(real_rhs)
        real_out = real_lhs @ real_rhs + bias
        out_params = QuantParams.from_array(real_out)
        codes = qgemm(lhs_params.quantize(real_lhs), lhs_params,
                      rhs_params.quantize(real_rhs), rhs_params,
                      out_params, bias=bias)
        approx = out_params.dequantize(codes)
        assert np.max(np.abs(approx - real_out)) < 6 * out_params.scale

    def test_fused_relu_clamps_at_zero_point(self, rng):
        real_lhs = rng.uniform(-1, 1, (4, 8)).astype(np.float32)
        real_rhs = rng.uniform(-1, 1, (8, 4)).astype(np.float32)
        lhs_params = QuantParams.from_array(real_lhs)
        rhs_params = QuantParams.from_array(real_rhs)
        out_params = QuantParams.from_range(-2.0, 2.0)
        codes = qgemm(lhs_params.quantize(real_lhs), lhs_params,
                      rhs_params.quantize(real_rhs), rhs_params,
                      out_params, relu=True)
        assert codes.min() >= out_params.zero_point

    def test_quantize_bias_units(self):
        bias = np.array([1.0])
        assert quantize_bias(bias, 0.1, 0.1)[0] == 100

    def test_non_uint8_rejected(self):
        with pytest.raises(ShapeError):
            qgemm_accumulate(np.zeros((2, 2), np.int32), 0,
                             np.zeros((2, 2), np.uint8), 0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            qgemm_accumulate(np.zeros((2, 3), np.uint8), 0,
                             np.zeros((4, 2), np.uint8), 0)


class TestPooling:
    def test_max_pool_basic(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 1, 4, 4)
        out = max_pool(x, 2, 2)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_uint8(self):
        x = np.arange(16, dtype=np.uint8).reshape(1, 1, 4, 4)
        out = max_pool(x, 2, 2)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_padding_never_wins(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        out = max_pool(x, 3, 1, padding=1)
        assert np.all(out == -1.0)

    def test_avg_pool_basic(self):
        x = np.ones((1, 2, 4, 4), dtype=np.float32)
        out = avg_pool(x, 2, 2)
        assert np.all(out == 1.0)

    def test_avg_pool_count_include_pad(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        # 3x3 window with padding 1 centred on a corner: 4 ones of 9.
        out = avg_pool(x, 3, 2, padding=1, count_include_pad=True)
        assert out[0, 0, 0, 0] == pytest.approx(4.0 / 9.0)

    def test_avg_pool_exclude_pad(self):
        x = np.ones((1, 1, 2, 2), dtype=np.float32)
        out = avg_pool(x, 3, 2, padding=1, count_include_pad=False)
        assert out[0, 0, 0, 0] == pytest.approx(1.0)

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((2, 3, 5, 5)).astype(np.float32)
        out = global_avg_pool(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out[:, :, 0, 0], x.mean(axis=(2, 3)),
                                   rtol=1e-5)

    def test_pool_rejects_non_nchw(self):
        with pytest.raises(ShapeError):
            max_pool(np.zeros((4, 4)), 2, 2)


@st.composite
def max_pool_cases(draw):
    """(input, kernel, stride, padding) with padding 0..kernel-1,
    strides up to past the kernel and maps down to 1x1."""
    kernel = draw(st.integers(1, 4))
    stride = draw(st.integers(1, kernel + 2))
    padding = draw(st.integers(0, kernel - 1))
    low = max(1, kernel - 2 * padding)
    height = draw(st.integers(low, low + 9))
    width = draw(st.integers(low, low + 9))
    batch = draw(st.integers(1, 4))
    channels = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.uint8, np.float16, np.float32]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (batch, channels, height, width)
    if dtype is np.uint8:
        x = rng.integers(0, 256, shape).astype(np.uint8)
    else:
        # Quarter steps give ties; adding 0.0 turns -0.0 into +0.0,
        # whose sign a max over ties would otherwise pick arbitrarily.
        x = (np.round(rng.standard_normal(shape) * 4) / 4 + 0.0
             ).astype(dtype)
    return x, kernel, stride, padding


class TestMaxPoolIdentity:
    """The shifted-view max pool against a per-window loop."""

    @given(max_pool_cases())
    @settings(max_examples=300, deadline=None)
    def test_byte_identical_to_window_loop(self, case):
        x, kernel, stride, padding = case
        got = max_pool(x, kernel, stride, padding)
        want = naive_max_pool(x, kernel, stride, padding)
        assert got.dtype == x.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.float16,
                                       np.float32])
    def test_padding_never_wins(self, dtype):
        # Every real cell sits at the dtype's floor (the uint8 pad
        # value itself) or far below zero.
        low = 0 if dtype is np.uint8 else -60000.0
        x = np.full((2, 3, 3, 4), low, dtype=dtype)
        for kernel, padding in ((2, 1), (3, 1), (3, 2), (4, 3)):
            out = max_pool(x, kernel, 1, padding)
            assert np.all(out == low) and out.dtype == x.dtype

    def test_one_by_one_map(self):
        x = np.array([[[[7]], [[3]]]], dtype=np.uint8)
        for kernel, padding in ((1, 0), (2, 1), (3, 1), (3, 2)):
            out = max_pool(x, kernel, 2, padding)
            assert out.tobytes() == naive_max_pool(
                x, kernel, 2, padding).tobytes()

    def test_input_not_modified(self, rng):
        x = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
        before = x.copy()
        max_pool(x, 3, 2, 1)
        max_pool(x, 2, 2, 0)
        np.testing.assert_array_equal(x, before)
