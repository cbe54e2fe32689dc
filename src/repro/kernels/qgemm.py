"""gemmlowp-style quantized GEMM with 32-bit integer accumulation.

This is the CPU arithmetic path of the paper's processor-friendly
quantization (Figure 9a): uint8 inputs and filters are combined with
integer multiply-accumulates; products of 8-bit values occupy 16 bits
and are accumulated into 32-bit integers; the accumulator is finally
requantized back to uint8 using the pre-trained output range.

The affine decomposition used below is the standard gemmlowp identity.
With ``real = s * (q - z)`` for LHS (activations) and RHS (weights):

    sum_k (ql - zl)(qr - zr)
        = sum_k ql*qr - zl * sum_k qr - zr * sum_k ql + K * zl * zr

so a single integer matmul plus row/column sums produces the exact
integer accumulator.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..quant.linear import Requantizer, requantize
from ..tensor import QuantParams


def qgemm_accumulate(lhs_q: np.ndarray, lhs_zero: int, rhs_q: np.ndarray,
                     rhs_zero: int,
                     bias_i32: "np.ndarray | None" = None,
                     rhs_i32: "np.ndarray | None" = None,
                     rhs_sums: "np.ndarray | None" = None) -> np.ndarray:
    """Integer accumulator of a quantized GEMM.

    Args:
        lhs_q: (m, k) uint8 activation codes.
        lhs_zero: activation zero point.
        rhs_q: (k, n) uint8 weight codes.
        rhs_zero: weight zero point.
        bias_i32: optional (n,) int32 bias already scaled to
            ``lhs_scale * rhs_scale`` units.
        rhs_i32: optional pre-widened ``rhs_q.astype(int32)`` -- weights
            are static across inferences, so callers may pack them once
            and skip the per-call widening.
        rhs_sums: optional pre-computed (1, n) weight-side column sums
            (``rhs_q.sum(axis=0)``), the ``zl * sum_k qr`` term of the
            affine decomposition; like ``rhs_i32`` it depends only on
            the weights.

    Returns:
        (m, n) int32 accumulators representing
        ``real / (lhs_scale * rhs_scale)``.
    """
    lhs_q = np.asarray(lhs_q)
    rhs_q = np.asarray(rhs_q)
    if lhs_q.dtype != np.uint8 or rhs_q.dtype != np.uint8:
        raise ShapeError(
            f"qgemm operands must be uint8, got {lhs_q.dtype} and "
            f"{rhs_q.dtype}")
    if lhs_q.shape[-1] != rhs_q.shape[0]:
        raise ShapeError(
            f"qgemm inner dimensions differ: {lhs_q.shape} @ {rhs_q.shape}")
    depth = lhs_q.shape[-1]
    if rhs_i32 is None:
        rhs_i32 = rhs_q.astype(np.int32)
    elif rhs_i32.shape != rhs_q.shape:
        raise ShapeError(
            f"rhs_i32 shape {rhs_i32.shape} != rhs shape {rhs_q.shape}")
    raw = lhs_q.astype(np.int32) @ rhs_i32
    lhs_sums = lhs_q.astype(np.int32).sum(axis=-1, keepdims=True)  # (m, 1)
    if rhs_sums is None:
        rhs_sums = rhs_q.astype(np.int32).sum(axis=0, keepdims=True)
    acc = (raw
           - np.int32(lhs_zero) * rhs_sums
           - np.int32(rhs_zero) * lhs_sums
           + np.int32(depth) * np.int32(lhs_zero) * np.int32(rhs_zero))
    if bias_i32 is not None:
        acc = acc + np.asarray(bias_i32, dtype=np.int32)
    return acc.astype(np.int32)


def quantize_bias(bias: np.ndarray, lhs_scale: float,
                  rhs_scale: float) -> np.ndarray:
    """Scale a float bias into i32 accumulator units.

    gemmlowp folds the bias into the accumulator before requantization,
    so the bias must be expressed in ``lhs_scale * rhs_scale`` units.
    """
    return np.round(np.asarray(bias, dtype=np.float64)
                    / (lhs_scale * rhs_scale)).astype(np.int32)


def fused_const_row(rhs_i32: np.ndarray, lhs_zero: int, rhs_zero: int,
                    bias_i32: np.ndarray) -> np.ndarray:
    """The weight-only constant row of the fused quantized GEMM.

    Of the four terms of the gemmlowp identity only
    ``- zr * sum_k ql`` depends on the activations; the remaining
    ``bias - zl * sum_k qr + K * zl * zr`` is folded into one row at
    compile time.  Integer addition wraps modulo 2^32 and is therefore
    associative, so re-associating the sum this way -- and returning
    the row already wrapped to int32 -- keeps the final int32
    accumulator byte-identical to :func:`qgemm_accumulate`.
    """
    depth = rhs_i32.shape[0]
    rhs_sums = rhs_i32.sum(axis=0, keepdims=True)
    const = (np.asarray(bias_i32, dtype=np.int64)
             - np.int64(lhs_zero) * rhs_sums
             + np.int64(depth) * np.int64(lhs_zero) * np.int64(rhs_zero))
    return const.astype(np.int32)


#: Largest GEMM depth for which the uint8 x uint8 accumulator provably
#: fits an int32 (and, a fortiori, is exactly representable in f64):
#: ``depth * 255 * 255 < 2**31``.
EXACT_GEMM_MAX_DEPTH = (2 ** 31 - 1) // (255 * 255)


def qgemm_fused(lhs_q: np.ndarray, rhs: np.ndarray, rhs_zero: int,
                const_row: np.ndarray,
                requantizer: Requantizer) -> np.ndarray:
    """Fully fused quantized GEMM: one matmul plus epilogue.

    The compiled execution path's integer kernel: all weight-side
    operands are pre-packed (``rhs`` widened once,
    :func:`fused_const_row` folding bias and zero-point terms, the
    requantization epilogue prepared as a
    :class:`~repro.quant.linear.Requantizer`, ReLU included), leaving
    a single integer matmul, the activation-side row-sum correction
    and the epilogue, which consumes the fresh accumulator in place.

    ``rhs`` holds the weight codes widened to int32, or to float64 so
    the raw product matmul runs through BLAS dgemm instead of numpy's
    generic integer loop.  The float64 form is *exact*, not
    approximate: for ``depth <= EXACT_GEMM_MAX_DEPTH`` every partial
    sum of uint8 x uint8 products is an integer below 2**31 < 2**53,
    so each f64 addition is performed without rounding regardless of
    summation order, and the truncation back to int32 recovers the
    identical accumulator.  Callers must enforce the depth bound.

    Byte-identical to :func:`qgemm` over the same operands: the whole
    pipeline stays in wrapping int32 arithmetic (sums, products, and
    additions all agree with the int64-then-truncate formulation
    modulo 2^32 by associativity), and the epilogue is
    :func:`~repro.quant.linear.requantize_prepared`'s, exactly.
    """
    if rhs.dtype == np.float64:
        acc = (lhs_q.astype(np.float64) @ rhs).astype(np.int32)
        lhs_sums = np.sum(lhs_q, axis=-1, keepdims=True,
                          dtype=np.int32)
    else:
        lhs_i32 = lhs_q.astype(np.int32)
        acc = lhs_i32 @ rhs
        lhs_sums = lhs_i32.sum(axis=-1, keepdims=True, dtype=np.int32)
    lhs_sums *= np.int32(rhs_zero)
    acc -= lhs_sums
    acc += const_row
    return requantizer(acc)


def qgemm(lhs_q: np.ndarray, lhs_params: QuantParams, rhs_q: np.ndarray,
          rhs_params: QuantParams, output_params: QuantParams,
          bias: "np.ndarray | None" = None,
          relu: bool = False,
          rhs_i32: "np.ndarray | None" = None,
          rhs_sums: "np.ndarray | None" = None,
          bias_i32: "np.ndarray | None" = None) -> np.ndarray:
    """Full quantized GEMM: accumulate, add bias, requantize to uint8.

    Args:
        lhs_q / rhs_q: uint8 codes of activations / weights.
        lhs_params / rhs_params: their quantization parameters.
        output_params: the pre-trained output range used to requantize.
        bias: optional float bias (folded in integer domain).
        relu: fuse a ReLU by clamping the output at the code that
            represents real zero (gemmlowp's fused activation).
        rhs_i32 / rhs_sums: optional pre-packed weight-side operands
            (see :func:`qgemm_accumulate`).
        bias_i32: optional pre-quantized bias in accumulator units;
            takes precedence over ``bias``.

    Returns:
        (m, n) uint8 output codes.
    """
    if bias_i32 is None and bias is not None:
        bias_i32 = quantize_bias(bias, lhs_params.scale, rhs_params.scale)
    acc = qgemm_accumulate(lhs_q, lhs_params.zero_point, rhs_q,
                           rhs_params.zero_point, bias_i32,
                           rhs_i32=rhs_i32, rhs_sums=rhs_sums)
    out = requantize(acc, lhs_params.scale, rhs_params.scale, output_params)
    if relu:
        out = np.maximum(out, np.uint8(output_params.zero_point))
    return out
