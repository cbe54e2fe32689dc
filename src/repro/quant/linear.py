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

import dataclasses
import math
from typing import Optional, Tuple

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
    at compile time (see :class:`Requantizer`) and replays only the
    per-element arithmetic per call.
    """
    real_multiplier = (input_scale * weight_scale) / output.scale
    return quantized_multiplier(real_multiplier)


def _nudges(shift: int) -> Tuple[int, int]:
    """The rounding nudges of :func:`requantize_prepared` at a right
    shift of ``shift`` (0..32): ``(positive, negative)``, added to
    ``acc * mantissa`` before the arithmetic shift by ``31 + shift``
    for non-negative and negative accumulators respectively."""
    if shift == 0:
        return 1 << 30, 1 - (1 << 30)
    positive = (1 << 30) + (1 << (30 + shift))
    return positive, positive - (1 << 32) + 1


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
    nudge, negative_nudge = _nudges(shift)
    negative = wide < 0
    wide += nudge
    # A boolean-times-scalar product beats np.subtract(where=) by ~10x.
    wide -= negative * np.int64(nudge - negative_nudge)
    wide >>= 31 + shift
    wide += output.zero_point
    np.clip(wide, QMIN, QMAX, out=wide)
    return wide.astype(np.uint8)


#: Largest right shift the float64 form of :class:`Requantizer` takes.
#: In the window ``|acc| * mantissa`` and ``zero_point * 2**(31 +
#: shift)`` each stay within about ``255 * 2**(31 + shift)``, so with
#: the nudge their sum stays below ``512 * 2**(31 + 13) = 2**53`` up to
#: here (:meth:`Requantizer.from_multiplier` checks the bound exactly).
FLOAT_REQUANTIZE_MAX_SHIFT = 13


def _first_code_reaching(code: int, mantissa: int, shift: int,
                         output: QuantParams) -> int:
    """The smallest accumulator whose unclamped
    :func:`requantize_prepared` code ``((acc * mantissa + nudge) >>
    (31 + shift)) + zero_point`` is at least ``code``, for ``0 <=
    shift <= 32``: solved exactly on each side of the sign-dependent
    nudge (negative accumulators first, as the code is monotone),
    then limited to ``[INT32_MIN, INT32_MAX + 1]``."""
    need = (code - output.zero_point) << (31 + shift)
    nudge, negative_nudge = _nudges(shift)
    negative = -((negative_nudge - need) // mantissa)     # ceil division
    if negative < 0:
        return max(negative, _INT32_MIN)
    return min(max(-((nudge - need) // mantissa), 0), _INT32_MAX + 1)


@dataclasses.dataclass(frozen=True)
class Requantizer:
    """One layer's requantization epilogue, prepared at compile time.

    Calling it maps a *fresh* int32 accumulator array to uint8 codes,
    byte-identical to :func:`requantize_prepared` followed (under
    ``relu``) by ``np.maximum(codes, zero_point)``.  The accumulator
    is clobbered: it is the kernel's own scratch.

    For right shifts in ``[0, FLOAT_REQUANTIZE_MAX_SHIFT]`` the
    fixed-point pipeline ``floor((acc * mantissa + nudge) / 2**k) +
    zero_point`` (``k = 31 + shift``) runs as the float64 expression
    ``acc * multiplier + offset`` cast to uint8, exactly:

    * the code is monotone in the accumulator, so clamping the
      accumulator to ``window`` -- from the last accumulator at code 0
      to the first at code 255, solved from the pipeline's arithmetic
      and confirmed by evaluating :func:`requantize_prepared` at both
      ends -- changes no code, and inside the window no saturation
      remains;
    * ``multiplier = mantissa / 2**k`` and ``offset = (nudge +
      zero_point * 2**k) / 2**k`` are exact dyadic floats, and every
      in-window numerator is below 2**53, so the product, the sum and
      the truncating cast (the value is in ``[0, 256)``) are exact;
    * under ReLU the window's lower end becomes 0: ``code(0)`` is the
      zero point, so ``max(code(acc), zero_point) ==
      code(max(acc, 0))``, and no accumulator left is negative -- the
      negative nudge is dead.

    Other shifts, and the rare multiplier whose window ends the float
    form cannot hit (see :meth:`from_multiplier`), call
    :func:`requantize_prepared`, the definition.
    """

    mantissa: int
    shift: int
    output: QuantParams
    relu: bool
    #: Clamp bounds of the float form; None selects the int64 pipeline.
    window: Optional[Tuple[int, int]]
    multiplier: float
    offset: float
    #: ``offset`` minus the offset of negative accumulators.
    negative_step: float

    @classmethod
    def prepare(cls, input_scale: float, weight_scale: float,
                output: QuantParams, relu: bool = False) -> "Requantizer":
        mantissa, shift = prepare_requantize(input_scale, weight_scale,
                                             output)
        return cls.from_multiplier(mantissa, shift, output, relu)

    @classmethod
    def from_multiplier(cls, mantissa: int, shift: int,
                        output: QuantParams,
                        relu: bool = False) -> "Requantizer":
        """The epilogue of a pre-decomposed ``(mantissa, shift)``."""
        if not 0 <= shift <= FLOAT_REQUANTIZE_MAX_SHIFT:
            return cls(mantissa, shift, output, relu, None, 0.0, 0.0, 0.0)
        # Shifts this small saturate both ends of the int32 range, so
        # the window runs from the last accumulator at code 0 (the
        # zero point under ReLU: code(0) is the zero point, so
        # clamping at 0 is the ReLU) to the first at code 255.
        if relu:
            lo, bottom = 0, output.zero_point
        else:
            lo = max(_first_code_reaching(QMIN + 1, mantissa, shift,
                                          output) - 1, _INT32_MIN)
            bottom = QMIN
        hi = max(min(_first_code_reaching(QMAX, mantissa, shift, output),
                     _INT32_MAX), lo)
        scale = 1 << (31 + shift)
        nudge, negative_nudge = _nudges(shift)
        multiplier = mantissa / scale
        offset = (nudge + output.zero_point * scale) / scale
        negative_step = (nudge - negative_nudge) / scale
        numerator = (max(abs(lo), abs(hi)) * mantissa
                     + max(abs(nudge), abs(negative_nudge))
                     + output.zero_point * scale)
        # The checks that make the float form exact, whatever solved
        # for the window: requantize_prepared gives the end codes at
        # its ends (so, by monotonicity, clamping changes nothing),
        # and the float form there -- unclamped and uncast -- lies in
        # [0, 256) on those same codes (so every in-window value is an
        # unsaturated code).  The latter fails only where a jump
        # across the sign boundary skips a code next to a saturated
        # end (shift 0, zero point 1: codes go 0 -> 1 between
        # accumulators -1 and 0 while the unclamped value goes -1 -> 1).
        ends = [end * multiplier + offset
                - (negative_step if end < 0 else 0.0) for end in (lo, hi)]
        codes = requantize_prepared(np.array([lo, hi], dtype=np.int32),
                                    mantissa, shift, output).tolist()
        if (numerator >= 1 << 53 or codes != [bottom, QMAX]
                or not all(0.0 <= end < 256.0 for end in ends)
                or [math.floor(end) for end in ends] != codes):
            return cls(mantissa, shift, output, relu, None, 0.0, 0.0, 0.0)
        return cls(mantissa, shift, output, relu, (lo, hi), multiplier,
                   offset, negative_step)

    def __call__(self, acc: np.ndarray) -> np.ndarray:
        if self.window is None:
            codes = requantize_prepared(acc, self.mantissa, self.shift,
                                        self.output)
            if self.relu:
                np.maximum(codes, np.uint8(self.output.zero_point),
                           out=codes)
            return codes
        lo, hi = self.window
        np.clip(acc, lo, hi, out=acc)
        values = np.multiply(acc, self.multiplier, dtype=np.float64)
        values += self.offset
        if not self.relu:
            values -= (acc < 0) * self.negative_step
        return values.astype(np.uint8)


def quantize_store(values: np.ndarray, output: QuantParams,
                   relu: bool = False) -> np.ndarray:
    """Store float pipeline output (f16 or f32) as uint8 codes, with
    an optional fused ReLU.

    Byte-identical to ``output.quantize(np.maximum(values, 0))`` under
    ``relu`` and to ``output.quantize(values)`` otherwise: widening to
    float64 is exact, so the divide, round-half-to-even and zero-point
    add agree value for value, and ``rint(max(v, 0) / s) ==
    max(rint(v / s), 0)`` turns the ReLU into the clip's lower bound.
    The whole chain runs in place on one float64 array.
    """
    q = np.divide(values, output.scale, dtype=np.float64)
    np.rint(q, out=q)
    q += output.zero_point
    np.clip(q, output.zero_point if relu else QMIN, QMAX, out=q)
    return q.astype(np.uint8)


def half_store_table(output: QuantParams, relu: bool = False
                     ) -> np.ndarray:
    """:func:`quantize_store` of all 65,536 float16 bit patterns.

    Entry ``i`` is the code of the f16 value whose bits are ``i``, so
    ``np.take(table, rows.view(np.uint16))`` stores f16 rows
    byte-identically to ``quantize_store(rows, output, relu)`` -- it
    *is* that function, evaluated once per pattern -- for every value
    but NaN (whose uint8 cast is undefined; its entries are whatever
    this host's cast gave).  ±65504 and ±inf saturate like any other
    out-of-range value.
    """
    halves = np.arange(1 << 16, dtype=np.uint32).astype(
        np.uint16).view(np.float16)
    with np.errstate(invalid="ignore"):
        return quantize_store(halves, output, relu)


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
