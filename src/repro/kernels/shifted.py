"""Integer stride-1 convolution as shifted-tap GEMMs over one padded copy.

im2col copies every input value ``k*k`` times and widens the copy
before a single GEMM.  For a stride-1 convolution the same contraction
splits into ``k*k`` GEMMs, one per filter tap ``(i, j)``, each over a
*shifted view* of one zero-padded image.  :func:`shifted_input` lays
that image out channel-major, every sample's ``Hp x Wp`` padded plane
flat and back to back, plus ``k - 1`` tail elements.  In that layout
the input of tap ``(i, j)`` for every output position is the
contiguous run of each channel's row starting at ``i*Wp + j``, so
:func:`conv_shifted` multiplies ``taps[i*k + j] (OC, C)`` against a
plain strided view of the buffer with no copy.  The run also covers
``Wp - W_out`` wrap columns per output row (and, between samples, the
``k - 1`` rows that straddle two planes); the final crop drops them and
lands the result in NCHW order, with no output fold.  Given a stride,
:func:`shifted_input` also splits each plane's rows into stride
phases, the layout :func:`~repro.kernels.depthwise.depthwise_rows`
reads.

**Exact in float32.**  The buffer holds the input codes minus their
zero point (so the padding, which takes the zero point, is 0) and the
taps hold the weight codes minus theirs.  Every product in one output
sum is then bounded by ``|x - zx| * |w - zw|``, and every partial sum
any GEMM, in any blocking or FMA order, or any tap addition can form
is bounded by ``max(zx, 255 - zx) * max_oc sum |w - zw|``.  When
:func:`exact_in_f32` proves that bound below ``2**24``, every partial
sum is an integer float32 holds exactly, so the float32 result *is* the
exact centred sum.  The wrap columns read in-buffer values of the same
bounds.  Casting to int32 and adding the int32 bias with wrapping then
gives the gemmlowp accumulator modulo ``2**32``, byte for byte
(:func:`~repro.kernels.qgemm.qgemm_fused` makes the same argument for
float64 under ``EXACT_GEMM_MAX_DEPTH``).  A layer that fails the bound
keeps im2col.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError
from .im2col import conv_output_hw

#: Every integer of magnitude below this is exactly a float32.
F32_EXACT_LIMIT = 2 ** 24


def pack_shifted_taps(weight_codes: np.ndarray,
                      zero_point: int) -> np.ndarray:
    """Centred per-tap weights for :func:`conv_shifted`.

    ``weight_codes`` is ``(out_c, in_c, k, k)`` uint8; returns float32
    ``(k*k, out_c, in_c)``, entry ``i*k + j`` holding tap ``(i, j)``
    of every filter minus the weight zero point.
    """
    if (weight_codes.ndim != 4
            or weight_codes.shape[2] != weight_codes.shape[3]):
        raise ShapeError(
            f"conv weights must be (out_c, in_c, k, k), got "
            f"{weight_codes.shape}")
    out_c, in_c, kernel, _ = weight_codes.shape
    centred = weight_codes.astype(np.float32) - np.float32(zero_point)
    return np.ascontiguousarray(centred.transpose(2, 3, 0, 1)).reshape(
        kernel * kernel, out_c, in_c)


def exact_in_f32(weight_codes: np.ndarray, weight_zero: int,
                 input_zero: int) -> bool:
    """Whether :func:`conv_shifted` is exact for these weights.

    True when ``max(zx, 255 - zx) * max_oc sum |w - zw| < 2**24``: the
    largest centred input times the largest L1 norm of one centred
    filter bounds every partial sum of every output.
    """
    centred = np.abs(weight_codes.astype(np.int64) - weight_zero)
    worst_filter = int(centred.reshape(centred.shape[0], -1)
                       .sum(axis=1).max())
    worst_input = max(input_zero, 255 - input_zero)
    return worst_input * worst_filter < F32_EXACT_LIMIT


def padded_plane(in_h: int, in_w: int, padding: int,
                 stride: int = 1) -> Tuple[int, int]:
    """``(rows, cols)`` of one sample's zero-padded plane in
    :func:`shifted_input`'s layout: the padded map, each side rounded
    up to a whole multiple of ``stride``."""
    return (-(-(in_h + 2 * padding) // stride) * stride,
            -(-(in_w + 2 * padding) // stride) * stride)


def shifted_input(x: np.ndarray, kernel: int, padding: int,
                  zero_point: int, stride: int = 1) -> np.ndarray:
    """The centred, zero-padded float32 buffer :func:`conv_shifted`
    and :func:`~repro.kernels.depthwise.depthwise_rows` read.

    ``x`` is NCHW uint8 codes.  Returns ``(channels, phases*batch*Hp*
    Wp/stride + kernel - 1)`` float32, ``Hp x Wp`` from
    :func:`padded_plane` and ``phases = min(stride, kernel)``: per
    channel, row phase ``a`` holds padded rows ``a, a + stride, ...``
    of ``x - zero_point`` for each sample back to back, row-major; then
    ``kernel - 1`` zeros that the last tap's view runs into.  At stride
    1 that is each sample's padded plane, back to back.
    """
    if x.ndim != 4:
        raise ShapeError(
            f"shifted conv expects NCHW input, got shape {x.shape}")
    batch, channels, in_h, in_w = x.shape
    pad_h, pad_w = padded_plane(in_h, in_w, padding, stride)
    phases = min(stride, kernel)
    rows = pad_h // stride
    plane = phases * batch * rows * pad_w
    buf = np.zeros((channels, plane + kernel - 1), dtype=np.float32)
    image = buf[:, :plane].reshape(channels, phases, batch, rows, pad_w)
    by_channel = x.transpose(1, 0, 2, 3)
    for phase in range(phases):
        # Input row h lands on padded row h + padding.
        first = (phase - padding) % stride
        src = by_channel[:, :, first::stride]
        top = (first + padding) // stride
        np.subtract(src, np.float32(zero_point), dtype=np.float32,
                    out=image[:, phase, :, top:top + src.shape[2],
                              padding:padding + in_w])
    return buf


def conv_shifted(buf: np.ndarray, taps: np.ndarray, bias: np.ndarray,
                 batch: int, in_h: int, in_w: int, kernel: int,
                 padding: int) -> np.ndarray:
    """int32 accumulators of a stride-1 integer convolution.

    ``buf`` comes from :func:`shifted_input` over a ``(batch, in_c,
    in_h, in_w)`` input, ``taps`` from :func:`pack_shifted_taps` and
    ``bias`` is an int32 ``(out_c, 1, 1)`` column.  Returns ``(batch,
    out_c, out_h, out_w)`` int32 equal modulo 2**32 to ``bias +
    sum (x - zx) * (w - zw)`` -- exactly, given :func:`exact_in_f32`.
    """
    taps_n, out_c, in_c = taps.shape
    pad_h, pad_w = in_h + 2 * padding, in_w + 2 * padding
    if (taps_n != kernel * kernel or bias.shape != (out_c, 1, 1)
            or buf.shape != (in_c, batch * pad_h * pad_w + kernel - 1)):
        raise ShapeError(
            f"shifted conv taps {taps.shape} / bias {bias.shape} / "
            f"buffer {buf.shape} do not fit a {kernel}x{kernel} kernel "
            f"over {batch}x{in_c}x{in_h}x{in_w}")
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, 1, padding)
    # One column per padded position from the first output row of the
    # first sample to the last output row of the last one.
    span = ((batch - 1) * pad_h + out_h) * pad_w
    acc = np.matmul(taps[0], buf[:, :span])
    if kernel > 1:
        product = np.empty_like(acc)
        for tap in range(1, kernel * kernel):
            start = (tap // kernel) * pad_w + tap % kernel
            np.matmul(taps[tap], buf[:, start:start + span],
                      out=product)
            acc += product
    item = acc.itemsize
    valid = np.ndarray((batch, out_c, out_h, out_w), acc.dtype, acc, 0,
                       (pad_h * pad_w * item, span * item, pad_w * item,
                        item))
    out = np.empty((batch, out_c, out_h, out_w), dtype=np.int32)
    np.copyto(out, valid, casting="unsafe")
    out += bias
    return out
