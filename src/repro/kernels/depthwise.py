"""Direct integer depthwise convolution over shifted strided views.

A depthwise conv applies one ``k x k`` filter per channel.  Lowering it
through im2col copies every input value ``k*k`` times before a tiny
per-channel contraction; mobile inference engines instead run it as a
direct per-tap kernel.  :func:`depthwise_direct` does the same in
numpy: one zero-padded int32 copy of the centred input, then ``k*k``
whole-array multiply-accumulate passes, each over the strided view
that holds one filter tap's input for every output position (the
``max_pool`` technique, with a multiply-add in place of the maximum).

The accumulator is int32 and wraps modulo 2**32.  The interpreter's
im2col path sums exactly in int64 and truncates to int32, and modular
addition is associative and commutative, so the two agree byte for
byte in any summation order -- including a bias large enough to wrap.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .im2col import conv_output_hw


def pack_depthwise_taps(weight_codes: np.ndarray,
                        zero_point: int) -> np.ndarray:
    """Centred per-tap weights for :func:`depthwise_direct`.

    ``weight_codes`` is ``(channels, k, k)`` uint8; returns int32
    ``(k*k, channels, 1, 1)``, row ``i*k + j`` holding every channel's
    tap ``(i, j)`` minus the weight zero point, shaped to broadcast
    against an NCHW view.
    """
    if (weight_codes.ndim != 3
            or weight_codes.shape[1] != weight_codes.shape[2]):
        raise ShapeError(
            f"depthwise weights must be (channels, k, k), got "
            f"{weight_codes.shape}")
    channels = weight_codes.shape[0]
    centred = weight_codes.astype(np.int32) - np.int32(zero_point)
    return np.ascontiguousarray(
        centred.reshape(channels, -1).T).reshape(-1, channels, 1, 1)


def depthwise_direct(x: np.ndarray, taps: np.ndarray, bias: np.ndarray,
                     kernel: int, stride: int, padding: int,
                     zero_point: int) -> np.ndarray:
    """int32 accumulators of an integer depthwise conv.

    ``x`` is NCHW uint8 codes (any view, e.g. a channel slice),
    ``taps`` comes from :func:`pack_depthwise_taps` and ``bias`` is an
    int32 ``(channels, 1, 1)`` column.  Padding takes the input zero
    point, i.e. 0 once centred.  Returns ``(batch, channels, out_h,
    out_w)`` int32, equal modulo 2**32 to the exact sum of
    ``bias + sum_taps (x - zero_point) * tap``.
    """
    if x.ndim != 4:
        raise ShapeError(
            f"depthwise conv expects NCHW input, got shape {x.shape}")
    batch, channels, in_h, in_w = x.shape
    if (taps.shape != (kernel * kernel, channels, 1, 1)
            or bias.shape != (channels, 1, 1)):
        raise ShapeError(
            f"depthwise taps {taps.shape} / bias {bias.shape} do not "
            f"fit {channels} channels of a {kernel}x{kernel} kernel")
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    padded = np.zeros((batch, channels, in_h + 2 * padding,
                       in_w + 2 * padding), dtype=np.int32)
    np.subtract(x, zero_point, dtype=np.int32,
                out=padded[:, :, padding:padding + in_h,
                           padding:padding + in_w])
    span_h = stride * (out_h - 1) + 1
    span_w = stride * (out_w - 1) + 1
    acc = np.empty((batch, channels, out_h, out_w), dtype=np.int32)
    acc[...] = bias
    product = np.empty_like(acc)
    for i in range(kernel):
        for j in range(kernel):
            np.multiply(padded[:, :, i:i + span_h:stride,
                               j:j + span_w:stride],
                        taps[i * kernel + j], out=product)
            acc += product
    return acc
