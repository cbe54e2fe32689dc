"""Numerical kernels: im2col, float GEMM, quantized GEMM, pooling,
row-GEMM integer depthwise, shifted-tap integer convolution."""

from .depthwise import depthwise_rows, pack_depthwise_taps
from .gemm import gemm_f16, gemm_f32
from .im2col import (col2im_shape, conv_output_hw, flatten_filters, im2col)
from .pooling import avg_pool, global_avg_pool, max_pool
from .qgemm import (fused_const_row, qgemm, qgemm_accumulate, qgemm_fused,
                    quantize_bias)
from .shifted import (conv_shifted, exact_in_f32, pack_shifted_taps,
                      shifted_input)

__all__ = [
    "depthwise_rows",
    "pack_depthwise_taps",
    "gemm_f16",
    "gemm_f32",
    "col2im_shape",
    "conv_output_hw",
    "flatten_filters",
    "im2col",
    "avg_pool",
    "global_avg_pool",
    "max_pool",
    "fused_const_row",
    "qgemm",
    "qgemm_accumulate",
    "qgemm_fused",
    "quantize_bias",
    "conv_shifted",
    "exact_in_f32",
    "pack_shifted_taps",
    "shifted_input",
]
