"""Tensors, data types, and quantization parameters."""

from .dtype import DType, EXECUTION_DTYPES, parse_dtype
from .qparams import QMAX, QMIN, QuantParams
from .tensor import Tensor, concat_channels, require_finite

__all__ = [
    "DType",
    "EXECUTION_DTYPES",
    "parse_dtype",
    "QMIN",
    "QMAX",
    "QuantParams",
    "Tensor",
    "concat_channels",
    "require_finite",
]
