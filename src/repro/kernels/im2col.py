"""im2col lowering of convolutions to matrix multiplication.

ARM Compute Library (the paper's middleware) executes convolutions by
lowering them to GEMM via im2col; we do the same so that a single GEMM
kernel per data type serves both convolutional and fully-connected
layers, mirroring the paper's observation that GEMM is "a key operation
of convolutional and FC layers" (Section 6).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError


def conv_output_hw(in_h: int, in_w: int, kernel: int, stride: int,
                   padding: int) -> Tuple[int, int]:
    """Output height/width of a convolution or pooling window sweep.

    Raises:
        ShapeError: if the window never fits inside the padded input.
    """
    out_h = (in_h + 2 * padding - kernel) // stride + 1
    out_w = (in_w + 2 * padding - kernel) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} stride {stride} padding {padding} does not "
            f"fit input {in_h}x{in_w}")
    return out_h, out_w


def im2col(images: np.ndarray, kernel: int, stride: int, padding: int,
           pad_value: float = 0.0) -> np.ndarray:
    """Unfold NCHW images into GEMM-ready patch columns.

    Args:
        images: array of shape (batch, channels, height, width).
        kernel: square window side length.
        stride: window step.
        padding: zero padding applied on all four sides.
        pad_value: the value used for padding.  Float paths pad with
            0.0; the QUInt8 path pads with the input zero point so the
            padding represents real zero.

    Returns:
        Array of shape (batch, out_h * out_w, channels * kernel * kernel)
        where each row is one receptive field flattened channel-major.
    """
    if images.ndim != 4:
        raise ShapeError(
            f"im2col expects NCHW input, got shape {images.shape}")
    batch, channels, in_h, in_w = images.shape
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    if padding > 0:
        padded = np.full(
            (batch, channels, in_h + 2 * padding, in_w + 2 * padding),
            pad_value, dtype=images.dtype)
        padded[:, :, padding:padding + in_h, padding:padding + in_w] = images
    else:
        padded = images
    # Strided-view extraction of all kernel x kernel windows.
    stride_b, stride_c, stride_h, stride_w = padded.strides
    windows = np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(stride_b, stride_c, stride_h * stride, stride_w * stride,
                 stride_h, stride_w),
        writeable=False,
    )
    # (batch, out_h, out_w, channels, kernel, kernel) -> rows.
    columns = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        batch, out_h * out_w, channels * kernel * kernel)
    return np.ascontiguousarray(columns)


def fold_gemm_output(out_rows: np.ndarray,
                     shape: Tuple[int, ...]) -> np.ndarray:
    """GEMM output rows back to the layer's output layout.

    A conv GEMM over :func:`im2col` columns yields one row per output
    position, ``(batch * out_h * out_w, out_c)``; this folds them to
    NCHW ``shape`` (a contiguous copy).  Any other ``shape`` (an FC
    layer's ``(batch, features)``) is a plain reshape.
    """
    if len(shape) == 4:
        batch, out_c, out_h, out_w = shape
        out = out_rows.reshape(batch, out_h, out_w, out_c)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    return out_rows.reshape(shape)


def flatten_filters(filters: np.ndarray) -> np.ndarray:
    """Reshape (out_c, in_c, k, k) filters to a (out_c, in_c*k*k) matrix.

    The row order matches :func:`im2col`'s column order (channel-major,
    then kernel row, then kernel column).
    """
    if filters.ndim != 4:
        raise ShapeError(
            f"filters must have shape (out_c, in_c, k, k), got "
            f"{filters.shape}")
    out_c = filters.shape[0]
    return filters.reshape(out_c, -1)
