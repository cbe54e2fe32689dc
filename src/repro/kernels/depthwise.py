"""Integer depthwise convolution as ``k`` row-GEMMs over one buffer.

A depthwise conv applies one ``k x k`` filter per channel.  Lowering it
through im2col copies every input value ``k*k`` times before a tiny
per-channel contraction; :func:`depthwise_rows` instead centres the
input once into :func:`~repro.kernels.shifted.shifted_input`'s flat
float32 buffer (``x - zx``, so the padding is 0; rows rounded up to a
multiple of the stride ``s`` and split into ``min(s, k)`` row phases)
and works in three steps:

1. one ``np.matmul`` per row phase ``a``, of the taps' rows ``i = a,
   a + s, ...`` against ``V[c, j, t] = buf[c, base_a + s*t + j]``
   (a strided view of the buffer, copied contiguous so that numpy
   hands it to BLAS), gives every row sum ``T[c, i, t] = sum_j
   w[c, i, j] * V[c, j, t]``;
2. the ``k`` rows, each shifted by its tap row's offset in the buffer,
   are added together;
3. a strided view crops the wrap columns, the cast lands the sums in
   int32 NCHW and the int32 bias is added with wrapping, as
   :func:`~repro.kernels.shifted.conv_shifted` does.

Row phases keep a stride-``s`` kernel from computing the ``s - 1`` of
every ``s`` buffer rows that start no output row: each phase only
carries the tap rows that read it.

**Exact in float32.**  ``|x - zx|`` and ``|w - zw|`` are each at most
255, so every partial sum of one row is below ``k * 255**2``, an
integer float32 holds exactly for ``k <= 258``, and every partial sum
of the ``k`` rows is below ``k**2 * 255**2 < 2**24`` for ``k <= 16``.
Whatever order the matmul or the row additions take, the float32
result is then the exact centred sum.  Above ``k = 16`` (no zoo or mini
model comes near) the kernel adds the rows in int32 instead; above
``k = 258`` :func:`pack_depthwise_taps` refuses the layer.  The int32
accumulator wraps modulo ``2**32``, and so does the interpreter's exact
int64 im2col sum truncated to int32, so the two agree byte for byte --
including a bias large enough to wrap.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from .im2col import conv_output_hw
from .shifted import F32_EXACT_LIMIT, padded_plane, shifted_input

#: The largest centred code magnitude, of inputs and weights alike.
_MAX_CENTRED = 255


def pack_depthwise_taps(weight_codes: np.ndarray,
                        zero_point: int) -> np.ndarray:
    """Centred float32 taps for :func:`depthwise_rows`.

    ``weight_codes`` is ``(channels, k, k)`` uint8; returns float32
    ``(channels, k, k)`` holding the codes minus the weight zero point.
    Refuses a kernel whose single row sum float32 cannot hold exactly.
    """
    if (weight_codes.ndim != 3
            or weight_codes.shape[1] != weight_codes.shape[2]):
        raise ShapeError(
            f"depthwise weights must be (channels, k, k), got "
            f"{weight_codes.shape}")
    kernel = weight_codes.shape[1]
    if kernel * _MAX_CENTRED ** 2 >= F32_EXACT_LIMIT:
        raise ShapeError(
            f"a {kernel}x{kernel} depthwise kernel's row sums can "
            f"leave float32's exact integer range")
    return weight_codes.astype(np.float32) - np.float32(zero_point)


def depthwise_rows(x: np.ndarray, taps: np.ndarray, bias: np.ndarray,
                   stride: int, padding: int,
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
    kernel = taps.shape[-1]
    if (taps.shape != (channels, kernel, kernel)
            or bias.shape != (channels, 1, 1)):
        raise ShapeError(
            f"depthwise taps {taps.shape} / bias {bias.shape} do not "
            f"fit {channels} channels")
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    buf = shifted_input(x, kernel, padding, zero_point, stride)
    pad_h, pad_w = padded_plane(in_h, in_w, padding, stride)
    # Buffer columns (``t`` units, ``stride`` elements each) per padded
    # row, per sample within one row phase, and elements per phase.
    row = pad_w // stride
    plane = pad_h // stride * row
    phase = batch * plane * stride
    # One column per output position from the first output row of the
    # first sample to the last output row of the last one.
    span = (batch - 1) * plane + out_h * row
    length = span + (kernel - 1) // stride * row
    item = buf.itemsize
    # Strided views are built with the ndarray constructor, which
    # checks them against the buffer's bounds at a tenth of
    # ``as_strided``'s call cost.
    sums = []
    for a in range(min(stride, kernel)):
        view = np.ndarray((channels, kernel, length), np.float32, buf,
                          a * phase * item,
                          (buf.strides[0], item, stride * item))
        # Contiguous, the view goes to BLAS; strided, numpy's own
        # matmul loop takes it, up to twice as slow at stride 2.
        sums.append(np.matmul(taps[:, a::stride],
                              np.ascontiguousarray(view)))
    # Tap row i lives in phase i % stride, i // stride rows down.
    rows = []
    for i in range(kernel):
        start = i // stride * row
        rows.append(sums[i % stride][:, i // stride, start:start + span])
    exact = (kernel * _MAX_CENTRED) ** 2 < F32_EXACT_LIMIT
    acc = rows[0].astype(np.float32 if exact else np.int32)
    for tap_row in rows[1:]:
        acc += tap_row if exact else tap_row.astype(np.int32)
    valid = np.ndarray((batch, channels, out_h, out_w), acc.dtype, acc,
                       0, (plane * item, span * item, row * item, item))
    out = np.empty((batch, channels, out_h, out_w), dtype=np.int32)
    np.copyto(out, valid, casting="unsafe")
    out += bias
    return out
