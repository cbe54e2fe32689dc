"""8-bit linear quantization primitives (Jacob et al., CVPR 2018).

These functions implement the arithmetic the paper's Section 4.1
describes: values are stored as 8-bit unsigned integers related to reals
by ``real = scale * (q - zero_point)``; multiplying two 8-bit values
yields 16 bits and sums accumulate in 32 bits; *requantization* converts
the 32-bit accumulators back to 8-bit codes using the pre-trained output
range.  The requantization path mirrors gemmlowp's fixed-point
multiplier so the integer pipeline is faithful to what runs on a real
CPU's vector ALUs.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import QuantizationError
from ..tensor import DType, QuantParams, Tensor
from ..tensor.qparams import QMAX, QMIN

_INT32_MIN = -(1 << 31)
_INT32_MAX = (1 << 31) - 1


def quantize(values: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Quantize real values to uint8 codes under ``qparams``."""
    return qparams.quantize(values)


def dequantize(codes: np.ndarray, qparams: QuantParams) -> np.ndarray:
    """Dequantize uint8 codes to float32 reals under ``qparams``."""
    return qparams.dequantize(codes)


def quantize_tensor(tensor: Tensor,
                    qparams: "QuantParams | None" = None) -> Tensor:
    """Return a QUInt8 version of ``tensor``.

    When ``qparams`` is omitted the parameters are derived from the
    tensor's own min/max (post-training quantization).
    """
    values = tensor.to_float()
    if qparams is None:
        qparams = QuantParams.from_array(values)
    return Tensor(qparams.quantize(values), DType.QUINT8, qparams)


def quantized_multiplier(real_multiplier: float) -> Tuple[int, int]:
    """Decompose a real multiplier as ``m * 2**-shift`` with m in Q31.

    gemmlowp/TFLite represent the requantization multiplier
    ``input_scale * weight_scale / output_scale`` as a 32-bit
    fixed-point mantissa in [0.5, 1.0) and a shift, so the whole
    pipeline stays in integer arithmetic.  Multipliers below one use a
    right shift (positive); multipliers of one or more (possible with
    narrow output ranges) use a left shift (negative), as in TFLite's
    ``QuantizeMultiplier``.

    Returns:
        (quantized_multiplier, right_shift) with
        ``real_multiplier ~= quantized_multiplier * 2**(-31 - right_shift)``.

    Raises:
        QuantizationError: if the multiplier is not positive and finite.
    """
    if not math.isfinite(real_multiplier) or real_multiplier <= 0.0:
        raise QuantizationError(
            f"requantization multiplier must be positive and finite, "
            f"got {real_multiplier!r}")
    shift = 0
    while real_multiplier < 0.5:
        real_multiplier *= 2.0
        shift += 1
    while real_multiplier >= 1.0:
        real_multiplier /= 2.0
        shift -= 1
    q = int(round(real_multiplier * (1 << 31)))
    if q == (1 << 31):  # round-up to 1.0: renormalize
        q //= 2
        shift -= 1
    return q, shift


def prepare_requantize(input_scale: float, weight_scale: float,
                       output: QuantParams) -> Tuple[int, int]:
    """Pre-decompose the requantization multiplier of one layer.

    The multiplier ``input_scale * weight_scale / output.scale`` and
    its fixed-point (mantissa, shift) decomposition depend only on the
    quantization parameters, so a compiled program computes them once
    at compile time and :func:`requantize_prepared` replays only the
    integer arithmetic per call.
    """
    real_multiplier = (input_scale * weight_scale) / output.scale
    return quantized_multiplier(real_multiplier)


def requantize_prepared(acc: np.ndarray, mantissa: int, shift: int,
                        output: QuantParams) -> np.ndarray:
    """Convert i32 accumulators to uint8 codes with a pre-decomposed
    multiplier (see :func:`prepare_requantize`).

    Byte-identical to :func:`requantize` called with the scales the
    (mantissa, shift) pair was prepared from.

    The gemmlowp pipeline -- a rounding doubling high multiply
    (``floor((acc * mantissa + nudge) / 2**31)``, nudge ``2**30`` or
    ``1 - 2**30`` by sign) followed by a rounding right shift (half
    away from zero) -- runs as one in-place int64 pass.  Nested floor
    divisions by powers of two compose, and the high multiply keeps
    the accumulator's sign, so both roundings fold into a single
    nudge and one arithmetic shift by ``31 + shift``.  The mantissa
    lies in [2**30, 2**31), so the product fits in int64 and the high
    multiply never saturates.  Right shifts of 32 or more leave at
    most half a unit, which rounds to 0 (or to -1 for an INT32_MIN
    high product at shift 32, the one exact half).  The zero point is
    added in int64 too, so a high product within ``zero_point`` of
    INT32_MAX saturates to 255 rather than wrapping.
    """
    acc = np.asarray(acc, dtype=np.int32)
    if shift < 0:
        # Multiplier >= 1: apply the saturating left shift *before*
        # the rounding high-mul (TFLite's MultiplyByQuantizedMultiplier
        # order), otherwise small accumulators lose all precision.
        wide = acc.astype(np.int64)
        wide <<= -shift
        np.clip(wide, _INT32_MIN, _INT32_MAX, out=wide)
        wide *= mantissa
        shift = 0
    elif shift > 32:
        # |high product| <= 2**31 is at most a quarter unit here.
        return np.full(acc.shape, np.clip(output.zero_point, QMIN, QMAX),
                       dtype=np.uint8)
    else:
        wide = np.multiply(acc, np.int64(mantissa), dtype=np.int64)
    if shift == 0:
        nudge, negative_offset = 1 << 30, (1 << 31) - 1
    else:
        nudge = (1 << 30) + (1 << (30 + shift))
        negative_offset = (1 << 32) - 1
    negative = wide < 0
    wide += nudge
    # A boolean-times-scalar product beats np.subtract(where=) by ~10x.
    wide -= negative * np.int64(negative_offset)
    wide >>= 31 + shift
    wide += output.zero_point
    np.clip(wide, QMIN, QMAX, out=wide)
    return wide.astype(np.uint8)


def requantize(acc: np.ndarray, input_scale: float, weight_scale: float,
               output: QuantParams) -> np.ndarray:
    """Convert i32 accumulators to uint8 codes under ``output``.

    Implements the gemmlowp fixed-point pipeline: the accumulator (which
    represents ``real / (input_scale * weight_scale)``) is rescaled by
    the fixed-point multiplier and shifted to land on the output grid,
    then offset by the output zero point and saturated to [0, 255].
    """
    mantissa, shift = prepare_requantize(input_scale, weight_scale, output)
    return requantize_prepared(acc, mantissa, shift, output)


def requantize_float_reference(acc: np.ndarray, input_scale: float,
                               weight_scale: float,
                               output: QuantParams) -> np.ndarray:
    """Float-domain reference for :func:`requantize` (used in tests)."""
    acc = np.asarray(acc, dtype=np.float64)
    real = acc * (input_scale * weight_scale)
    return output.quantize(real)
