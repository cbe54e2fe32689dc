"""Alternative kernel lowerings offered to the autotuner.

The compiled path's default lowering (im2col + GEMM with a fused
epilogue) is one point in the implementation space; :mod:`repro.tune`
times the legal alternatives below per step and bakes the winner into
the program.  Every function here is a complete drop-in computation
for one step family:

* :func:`conv1x1_direct_f32` -- a 1x1/stride-1/no-padding convolution
  as a direct GEMM over the NCHW layout, skipping both the im2col
  copy and the NHWC->NCHW output fold.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError


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
