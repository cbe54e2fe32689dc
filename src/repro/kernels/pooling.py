"""Max- and average-pooling kernels for NCHW activations.

Pooling has no filters and applies its global function per channel
(Section 2.1), which is why the channel-wise workload distribution
splits the *input* of a pooling layer across processors (Figure 7b).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError
from .im2col import conv_output_hw


def _padded(images: np.ndarray, kernel: int, stride: int, padding: int,
            pad_value: float) -> Tuple[np.ndarray, int, int]:
    """The input bordered by ``padding`` cells of ``pad_value`` (the
    input itself when unpadded), plus the pooled output size."""
    if images.ndim != 4:
        raise ShapeError(
            f"pooling expects NCHW input, got shape {images.shape}")
    batch, channels, in_h, in_w = images.shape
    out_h, out_w = conv_output_hw(in_h, in_w, kernel, stride, padding)
    if padding == 0:
        return images, out_h, out_w
    padded = np.full(
        (batch, channels, in_h + 2 * padding, in_w + 2 * padding),
        pad_value, dtype=images.dtype)
    padded[:, :, padding:padding + in_h, padding:padding + in_w] = images
    return padded, out_h, out_w


def _pool_windows(images: np.ndarray, kernel: int, stride: int,
                  padding: int, pad_value: float) -> np.ndarray:
    """All pooling windows as a strided view.

    Returns an array of shape (batch, channels, out_h, out_w, k, k).
    """
    padded, out_h, out_w = _padded(images, kernel, stride, padding,
                                   pad_value)
    batch, channels = padded.shape[:2]
    stride_b, stride_c, stride_h, stride_w = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded,
        shape=(batch, channels, out_h, out_w, kernel, kernel),
        strides=(stride_b, stride_c, stride_h * stride, stride_w * stride,
                 stride_h, stride_w),
        writeable=False,
    )


def max_pool(images: np.ndarray, kernel: int, stride: int,
             padding: int = 0) -> np.ndarray:
    """Max pooling as the elementwise maximum of ``kernel * kernel``
    shifted strided views of the (padded) input.

    Each view holds one window offset for every output position, so
    the reduction runs as whole-array ``np.maximum`` calls instead of
    a reduction over a 6-D window view.  Max is exact, so the result
    equals the per-window maximum on every dtype.  Padding uses the
    dtype's lowest value so padded positions never win; the output
    dtype equals the input dtype.
    """
    if np.issubdtype(images.dtype, np.integer):
        pad_value = np.iinfo(images.dtype).min
    else:
        pad_value = -np.inf
    padded, out_h, out_w = _padded(images, kernel, stride, padding,
                                   pad_value)
    span_h = stride * (out_h - 1) + 1
    span_w = stride * (out_w - 1) + 1
    result = padded[:, :, :span_h:stride, :span_w:stride].copy()
    for i in range(kernel):
        for j in range(kernel):
            if i or j:
                np.maximum(result,
                           padded[:, :, i:i + span_h:stride,
                                  j:j + span_w:stride],
                           out=result)
    return result


def avg_pool(images: np.ndarray, kernel: int, stride: int, padding: int = 0,
             count_include_pad: bool = True) -> np.ndarray:
    """Average pooling.

    With ``count_include_pad`` (Caffe's default, matching the evaluated
    networks) the divisor is always ``kernel * kernel`` and padded
    positions contribute zeros.
    """
    windows = _pool_windows(
        images.astype(np.float32), kernel, stride, padding, 0.0)
    if count_include_pad:
        return windows.mean(axis=(-1, -2)).astype(np.float32)
    ones = np.ones(images.shape[2:], dtype=np.float32)[None, None]
    counts = _pool_windows(ones, kernel, stride, padding, 0.0).sum(
        axis=(-1, -2))
    return (windows.sum(axis=(-1, -2)) / counts).astype(np.float32)


def global_avg_pool(images: np.ndarray) -> np.ndarray:
    """Average over the full spatial extent, keeping 1x1 spatial dims."""
    if images.ndim != 4:
        raise ShapeError(
            f"pooling expects NCHW input, got shape {images.shape}")
    return images.astype(np.float32).mean(
        axis=(2, 3), keepdims=True).astype(np.float32)
