"""Tests for 8-bit linear quantization and gemmlowp requantization."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quant import (quantize, dequantize, quantize_tensor,
                         quantized_multiplier, requantize,
                         requantize_float_reference, requantize_prepared)
from repro.tensor import DType, QuantParams, Tensor

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


def _gemmlowp_high_mul(a, multiplier):
    """gemmlowp's SaturatingRoundingDoublingHighMul on int32 arrays
    (the epilogue's former formulation, kept as the oracle)."""
    product = a.astype(np.int64) * np.int64(multiplier)
    nudge = np.where(product >= 0, np.int64(1 << 30),
                     np.int64(1 - (1 << 30)))
    result = (product + nudge) >> 31
    return np.clip(result, INT32_MIN, INT32_MAX).astype(np.int32)


def _gemmlowp_divide_by_pot(value, exponent):
    """gemmlowp's RoundingDivideByPOT (half away from zero); a negative
    exponent is TFLite's saturating left shift.  Only defined for
    exponents below 32 (the int32 mask overflows beyond)."""
    if exponent == 0:
        return value
    if exponent < 0:
        shifted = value.astype(np.int64) << (-exponent)
        return np.clip(shifted, INT32_MIN, INT32_MAX).astype(np.int32)
    mask = np.int32((1 << exponent) - 1)
    remainder = value & mask
    threshold = (mask >> 1) + np.where(value < 0, 1, 0).astype(np.int32)
    return (value >> exponent) + (remainder > threshold).astype(np.int32)


def gemmlowp_requantize(acc, mantissa, shift, output):
    """The requantization epilogue as the gemmlowp pipeline of int32
    steps.  The zero-point add is done in int64: in int32 it wraps
    when the high product lies within ``zero_point`` of INT32_MAX,
    where the saturating result is 255."""
    acc = np.asarray(acc, dtype=np.int32)
    if shift < 0:
        acc = _gemmlowp_divide_by_pot(acc, shift)
        shift = 0
    scaled = _gemmlowp_high_mul(acc, mantissa)
    scaled = _gemmlowp_divide_by_pot(scaled, shift)
    shifted = scaled.astype(np.int64) + output.zero_point
    return np.clip(shifted, 0, 255).astype(np.uint8)


def exact_requantize(acc, mantissa, shift, zero_point):
    """The same pipeline on Python integers, valid for any shift."""
    codes = []
    for a in np.asarray(acc, dtype=np.int64).tolist():
        if shift < 0:
            a = min(max(a << -shift, INT32_MIN), INT32_MAX)
        product = a * mantissa
        high = (product + ((1 << 30) if product >= 0
                           else 1 - (1 << 30))) >> 31
        right = max(shift, 0)
        if right:
            half = 1 << (right - 1)
            high = ((high + half) >> right if high >= 0
                    else -((-high + half) >> right))
        codes.append(min(max(high + zero_point, 0), 255))
    return np.array(codes, dtype=np.uint8)


class TestQuantizeDequantize:
    def test_quantize_matches_qparams(self, rng):
        qp = QuantParams.from_range(-2.0, 2.0)
        values = rng.uniform(-2, 2, 100)
        np.testing.assert_array_equal(quantize(values, qp),
                                      qp.quantize(values))

    def test_dequantize_matches_qparams(self):
        qp = QuantParams.from_range(-2.0, 2.0)
        codes = np.arange(256, dtype=np.uint8)
        np.testing.assert_array_equal(dequantize(codes, qp),
                                      qp.dequantize(codes))

    def test_quantize_tensor_from_float(self, rng):
        t = Tensor.from_float(rng.uniform(-1, 1, 50).astype(np.float32))
        q = quantize_tensor(t)
        assert q.dtype is DType.QUINT8
        assert np.max(np.abs(q.to_float() - t.to_float())) <= q.qparams.scale

    def test_quantize_tensor_explicit_params(self, rng):
        qp = QuantParams.from_range(-4.0, 4.0)
        t = Tensor.from_float(rng.uniform(-1, 1, 10).astype(np.float32))
        q = quantize_tensor(t, qp)
        assert q.qparams == qp


class TestQuantizedMultiplier:
    def test_decomposition_accuracy(self):
        for value in (0.001, 0.3, 0.4999, 0.5, 0.77, 0.9999):
            mantissa, shift = quantized_multiplier(value)
            reconstructed = mantissa * 2.0 ** (-31 - shift)
            assert reconstructed == pytest.approx(value, rel=1e-6)

    def test_mantissa_in_q31_range(self):
        for value in (0.01, 0.5, 0.99):
            mantissa, _ = quantized_multiplier(value)
            assert (1 << 30) <= mantissa <= (1 << 31)

    def test_multiplier_above_one_uses_left_shift(self):
        mantissa, shift = quantized_multiplier(3.7)
        assert shift < 0
        assert mantissa * 2.0 ** (-31 - shift) == pytest.approx(3.7,
                                                                rel=1e-6)

    def test_zero_multiplier_raises(self):
        with pytest.raises(QuantizationError):
            quantized_multiplier(0.0)

    def test_negative_multiplier_raises(self):
        with pytest.raises(QuantizationError):
            quantized_multiplier(-0.5)


class TestRequantize:
    def test_matches_float_reference(self, rng):
        acc = rng.integers(-100000, 100000, size=(64, 64)).astype(np.int32)
        out = QuantParams(scale=0.05, zero_point=128)
        fixed = requantize(acc, 0.01, 0.002, out)
        ref = requantize_float_reference(acc, 0.01, 0.002, out)
        # The fixed-point pipeline may differ by at most 1 code from the
        # float reference (round-to-even boundary cases).
        assert np.max(np.abs(fixed.astype(int) - ref.astype(int))) <= 1

    def test_exact_for_small_accumulators(self):
        acc = np.arange(-128, 128, dtype=np.int32)
        out = QuantParams(scale=0.02, zero_point=128)
        fixed = requantize(acc, 0.1, 0.1, out)
        ref = requantize_float_reference(acc, 0.1, 0.1, out)
        assert np.max(np.abs(fixed.astype(int) - ref.astype(int))) <= 1

    def test_saturates_to_uint8(self):
        acc = np.array([10 ** 9, -10 ** 9], dtype=np.int32)
        out = QuantParams(scale=0.05, zero_point=128)
        codes = requantize(acc, 0.01, 0.01, out)
        assert codes[0] == 255
        assert codes[1] == 0

    def test_zero_accumulator_maps_to_zero_point(self):
        out = QuantParams(scale=0.05, zero_point=77)
        codes = requantize(np.array([0], dtype=np.int32), 0.01, 0.01, out)
        assert codes[0] == 77

    def test_large_multiplier_path(self):
        # Narrow output range -> multiplier > 1 -> left-shift path.
        acc = np.array([5, -5, 100], dtype=np.int32)
        out = QuantParams(scale=1e-4, zero_point=128)
        fixed = requantize(acc, 0.01, 0.01, out)
        ref = requantize_float_reference(acc, 0.01, 0.01, out)
        assert np.max(np.abs(fixed.astype(int) - ref.astype(int))) <= 1

    def test_output_dtype(self):
        out = QuantParams(scale=0.05, zero_point=128)
        codes = requantize(np.zeros(4, dtype=np.int32), 0.01, 0.01, out)
        assert codes.dtype == np.uint8


class TestRequantizeEpilogue:
    """The int64 epilogue against the gemmlowp int32 formulation."""

    EXTREMES = np.array([INT32_MIN, INT32_MAX, 0, 1, -1, 1 << 30,
                         -(1 << 30), (1 << 30) - 1, 1 - (1 << 30),
                         INT32_MIN + 1, INT32_MAX - 1], dtype=np.int32)

    @pytest.mark.parametrize("shift", range(-4, 32))
    def test_byte_identical_to_gemmlowp(self, shift):
        rng = np.random.default_rng(1000 + shift)
        mantissas = [1 << 30, (1 << 31) - 1] + [
            int(m) for m in rng.integers(1 << 30, 1 << 31, 38)]
        for mantissa in mantissas:
            zero_point = int(rng.integers(0, 256))
            out = QuantParams(scale=0.1, zero_point=zero_point)
            acc = np.concatenate([
                self.EXTREMES,
                rng.integers(INT32_MIN, INT32_MAX, 500, endpoint=True),
                rng.integers(-(1 << 16), 1 << 16, 500),
                rng.integers(-300, 300, 200)]).astype(np.int32)
            got = requantize_prepared(acc, mantissa, shift, out)
            want = gemmlowp_requantize(acc, mantissa, shift, out)
            assert got.dtype == np.uint8
            assert got.tobytes() == want.tobytes(), (mantissa,
                                                     zero_point)

    def test_agrees_with_exact_integer_pipeline(self):
        rng = np.random.default_rng(7)
        acc = np.concatenate([self.EXTREMES, rng.integers(
            INT32_MIN, INT32_MAX, 200, endpoint=True)]).astype(np.int32)
        for shift in (-4, -1, 0, 1, 13, 31, 32, 33, 40):
            mantissa = int(rng.integers(1 << 30, 1 << 31))
            out = QuantParams(scale=0.1, zero_point=int(
                rng.integers(0, 256)))
            np.testing.assert_array_equal(
                requantize_prepared(acc, mantissa, shift, out),
                exact_requantize(acc, mantissa, shift, out.zero_point))

    def test_zero_point_add_saturates(self):
        # The high product of INT32_MAX is 2**31 - 2: adding the zero
        # point must saturate to 255, not wrap around to 0.
        out = QuantParams(scale=0.1, zero_point=25)
        codes = requantize_prepared(
            np.array([INT32_MAX, INT32_MIN], dtype=np.int32),
            (1 << 31) - 1, 0, out)
        np.testing.assert_array_equal(codes, [255, 0])

    def test_input_not_modified(self):
        acc = np.arange(-50, 50, dtype=np.int32)
        before = acc.copy()
        requantize_prepared(acc, 1 << 30, 3, QuantParams(0.1, 9))
        np.testing.assert_array_equal(acc, before)


class TestRequantizeLargeShift:
    """Right shifts of 32 or more used to raise OverflowError."""

    def test_tiny_multiplier_has_large_shift(self):
        assert quantized_multiplier(1e-10)[1] == 33

    @pytest.mark.parametrize("shift", [32, 33, 40, 62])
    def test_rounds_to_zero_point(self, shift):
        acc = np.array([INT32_MIN + 1, -1, 0, 1, INT32_MAX],
                       dtype=np.int32)
        out = QuantParams(scale=0.1, zero_point=100)
        codes = requantize_prepared(acc, (1 << 31) - 1, shift, out)
        np.testing.assert_array_equal(codes, [100] * 5)

    def test_int32_min_high_product_rounds_away_at_shift_32(self):
        # acc * (2**31 - 1) has high product INT32_MIN: exactly -1/2
        # after a 32-bit shift, which rounds away from zero.
        out = QuantParams(scale=0.1, zero_point=100)
        acc = np.array([INT32_MIN], dtype=np.int32)
        assert requantize_prepared(acc, (1 << 31) - 1, 32, out)[0] == 99
        assert requantize_prepared(acc, (1 << 31) - 1, 33, out)[0] == 100

    def test_requantize_with_tiny_scales(self):
        # The interpreter calls requantize, the compiled path
        # requantize_prepared; both share the epilogue.
        acc = np.array([INT32_MIN, -12345, 0, 12345, INT32_MAX],
                       dtype=np.int32)
        out = QuantParams(scale=1.0, zero_point=128)
        mantissa, shift = quantized_multiplier(1e-10)
        codes = requantize(acc, 1e-5, 1e-5, out)
        np.testing.assert_array_equal(codes, [128] * 5)
        np.testing.assert_array_equal(
            codes, exact_requantize(acc, mantissa, shift, 128))
