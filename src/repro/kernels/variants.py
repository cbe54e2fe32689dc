"""Alternative kernel lowerings offered to the autotuner.

The compiled path's default lowering (im2col + GEMM with a fused
epilogue) is one point in the implementation space; :mod:`repro.tune`
times the legal alternatives below per step and bakes the winner into
the program.  Every function here is a complete drop-in computation
for one step family:

* :func:`depthwise_matvec` -- the depthwise per-channel contraction as
  one batched mat-vec instead of an einsum.  Identical on the integer
  pipelines (both accumulate exactly); float pipelines are subject to
  the tuner's byte-identity check.
* :func:`conv1x1_direct_f32` -- a 1x1/stride-1/no-padding convolution
  as a direct GEMM over the NCHW layout, skipping both the im2col
  copy and the NHWC->NCHW output fold.
* :func:`winograd_conv3x3` -- F(2x2, 3x3) Winograd convolution.  This
  trades multiplications for additions and is *approximate* relative
  to direct convolution (different float rounding), so the tuner only
  offers it under ``allow_approx`` with a tolerance check instead of
  the byte-identity check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from .im2col import conv_output_hw


def depthwise_matvec(columns: np.ndarray,
                     filters: np.ndarray) -> np.ndarray:
    """Per-channel depthwise contraction as one batched mat-vec.

    ``columns`` is ``(batch*channels, patches, k*k)``, ``filters`` is
    ``(batch*channels, k*k)``; returns ``(batch*channels, patches)``,
    the same contraction ``einsum("npk,nk->np", ...)`` performs.
    """
    return np.matmul(columns, filters[:, :, None])[:, :, 0]


def conv1x1_direct_f32(x: np.ndarray, weights: np.ndarray,
                       bias: Optional[np.ndarray] = None) -> np.ndarray:
    """1x1/stride-1 convolution as a direct GEMM over NCHW (f32).

    Contracts ``weights (OC, C)`` against the free ``(N, C, H*W)``
    view of the input -- no im2col copy, no output transpose.
    """
    if weights.ndim == 4:
        if weights.shape[-2:] != (1, 1):
            raise ShapeError(
                f"conv1x1_direct_f32 needs 1x1 filters, got "
                f"{weights.shape}")
        weights = weights.reshape(weights.shape[0], weights.shape[1])
    batch, channels, height, width = x.shape
    acc = np.matmul(weights, x.reshape(batch, channels, height * width))
    if bias is not None:
        acc = acc + bias[:, None]
    return acc.reshape(batch, weights.shape[0], height, width)


#: F(2x2, 3x3) Winograd transform matrices (Lavin & Gray 2016).
_WINO_BT = np.array([[1, 0, -1, 0],
                     [0, 1, 1, 0],
                     [0, -1, 1, 0],
                     [0, 1, 0, -1]], dtype=np.float32)
_WINO_G = np.array([[1.0, 0.0, 0.0],
                    [0.5, 0.5, 0.5],
                    [0.5, -0.5, 0.5],
                    [0.0, 0.0, 1.0]], dtype=np.float32)
_WINO_AT = np.array([[1, 1, 1, 0],
                     [0, 1, -1, -1]], dtype=np.float32)


def winograd_filter_transform(weights: np.ndarray) -> np.ndarray:
    """``G w G^T`` per (out-channel, in-channel) 3x3 filter.

    Returns the transformed filters reorganized as ``(16, OC, C)`` so
    the 16 per-position contractions run as one batched matmul.
    """
    if weights.shape[-2:] != (3, 3):
        raise ShapeError(
            f"Winograd F(2,3) needs 3x3 filters, got {weights.shape}")
    u = np.einsum("ij,ocjk,kl->ocil", _WINO_G,
                  weights.astype(np.float32), _WINO_G.T)
    out_c, in_c = weights.shape[0], weights.shape[1]
    return np.ascontiguousarray(
        u.transpose(2, 3, 0, 1).reshape(16, out_c, in_c))


def winograd_conv3x3(x: np.ndarray, u16: np.ndarray,
                     bias: Optional[np.ndarray] = None,
                     padding: int = 0, relu: bool = False) -> np.ndarray:
    """F(2x2, 3x3) Winograd convolution at stride 1 (f32).

    Args:
        x: input activations ``(N, C, H, W)``.
        u16: transformed filters from
            :func:`winograd_filter_transform`, ``(16, OC, C)``.
        bias: per-output-channel bias, added after the inverse
            transform.
        padding: symmetric zero padding of the input.
        relu: clamp the output at zero.

    Returns:
        ``(N, OC, OH, OW)`` float32 output.  Approximate relative to
        direct convolution: the transforms change the float rounding.
    """
    batch, channels, height, width = x.shape
    out_c = u16.shape[1]
    out_h, out_w = conv_output_hw(height, width, 3, 1, padding)
    tiles_h, tiles_w = -(-out_h // 2), -(-out_w // 2)
    padded = np.zeros((batch, channels, 2 * tiles_h + 2, 2 * tiles_w + 2),
                      dtype=np.float32)
    padded[:, :, padding:padding + height,
           padding:padding + width] = x
    windows = np.lib.stride_tricks.sliding_window_view(
        padded, (4, 4), axis=(2, 3))[:, :, ::2, ::2]
    tiles = windows.reshape(batch, channels, tiles_h * tiles_w, 4, 4)
    v = np.einsum("ij,nctjk,kl->nctil", _WINO_BT, tiles, _WINO_BT.T)
    v16 = np.ascontiguousarray(
        v.transpose(3, 4, 1, 0, 2).reshape(
            16, channels, batch * tiles_h * tiles_w))
    m16 = np.matmul(u16, v16)    # (16, OC, N*T)
    m = m16.reshape(4, 4, out_c, batch, tiles_h * tiles_w)
    y = np.einsum("ij,jkonl,km->imonl", _WINO_AT, m, _WINO_AT.T)
    y = y.reshape(2, 2, out_c, batch, tiles_h, tiles_w)
    out = np.ascontiguousarray(
        y.transpose(3, 2, 4, 0, 5, 1)).reshape(
        batch, out_c, 2 * tiles_h, 2 * tiles_w)[:, :, :out_h, :out_w]
    if bias is not None:
        out = out + bias.astype(np.float32)[None, :, None, None]
    if relu:
        out = np.maximum(out, 0.0)
    return np.ascontiguousarray(out, dtype=np.float32)
