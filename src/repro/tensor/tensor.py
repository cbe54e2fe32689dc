"""The :class:`Tensor` container used throughout the reproduction.

A tensor couples a numpy array with a :class:`~repro.tensor.dtype.DType`
and, for QUInt8 tensors, the affine :class:`QuantParams` needed to
interpret the stored codes.  Activations follow the NCHW layout the
paper's Figure 1 uses: ``(batch, channels, height, width)``.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Tuple

import numpy as np

from ..errors import (DTypeError, NonFiniteInputError, QuantizationError,
                      ShapeError)
from .dtype import DType
from .qparams import QuantParams


@dataclasses.dataclass
class Tensor:
    """An n-dimensional array tagged with a data type.

    Attributes:
        data: the backing numpy array; its numpy dtype always matches
            ``dtype.numpy_dtype``.
        dtype: the logical element type.
        qparams: affine quantization parameters; present if and only if
            ``dtype`` is quantized.
    """

    data: np.ndarray
    dtype: DType
    qparams: Optional[QuantParams] = None

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data)
        if self.data.dtype != self.dtype.numpy_dtype:
            raise DTypeError(
                f"backing array has numpy dtype {self.data.dtype}, "
                f"expected {self.dtype.numpy_dtype} for {self.dtype}")
        if self.dtype.is_quantized and self.qparams is None:
            raise QuantizationError(
                "QUInt8 tensors require quantization parameters")
        if not self.dtype.is_quantized and self.qparams is not None:
            raise QuantizationError(
                f"{self.dtype} tensors must not carry quantization "
                "parameters")

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_float(cls, values: np.ndarray, dtype: DType = DType.F32,
                   qparams: Optional[QuantParams] = None) -> "Tensor":
        """Build a tensor of ``dtype`` from real-valued data.

        For QUInt8 the values are quantized with ``qparams`` (derived
        from the data's min/max when omitted).  For F16/F32 the values
        are cast.
        """
        values = np.asarray(values, dtype=np.float32)
        if dtype is DType.QUINT8:
            if qparams is None:
                qparams = QuantParams.from_array(values)
            return cls(qparams.quantize(values), dtype, qparams)
        if dtype in (DType.F32, DType.F16):
            return cls(values.astype(dtype.numpy_dtype), dtype)
        raise DTypeError(f"cannot build a {dtype} tensor from floats")

    @classmethod
    def zeros(cls, shape: Tuple[int, ...], dtype: DType = DType.F32,
              qparams: Optional[QuantParams] = None) -> "Tensor":
        """An all-zero tensor of the given shape and dtype."""
        if dtype is DType.QUINT8:
            if qparams is None:
                qparams = QuantParams(scale=1.0, zero_point=0)
            data = np.full(shape, qparams.zero_point, dtype=np.uint8)
            return cls(data, dtype, qparams)
        return cls(np.zeros(shape, dtype=dtype.numpy_dtype), dtype)

    # -- views ------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the backing array."""
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        """Number of elements."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Bytes occupied by the stored representation."""
        return self.size * self.dtype.itemsize

    def to_float(self) -> np.ndarray:
        """Real values as float32, dequantizing when needed."""
        if self.dtype is DType.QUINT8:
            assert self.qparams is not None
            return self.qparams.dequantize(self.data)
        return self.data.astype(np.float32)

    def astype(self, dtype: DType,
               qparams: Optional[QuantParams] = None) -> "Tensor":
        """Convert to another data type via the real-valued domain."""
        if dtype is self.dtype and (qparams is None
                                    or qparams == self.qparams):
            return self
        return Tensor.from_float(self.to_float(), dtype, qparams)

    def slice_channels(self, start: int, stop: int, axis: int = 1) -> "Tensor":
        """A view of channels ``[start, stop)`` along ``axis``.

        Used by the channel-wise workload distribution to hand each
        processor its disjoint portion of a tensor.
        """
        if not 0 <= start <= stop <= self.shape[axis]:
            raise ShapeError(
                f"channel slice [{start}, {stop}) out of bounds for axis "
                f"{axis} of shape {self.shape}")
        index = [slice(None)] * self.data.ndim
        index[axis] = slice(start, stop)
        return Tensor(self.data[tuple(index)], self.dtype, self.qparams)


def concat_channels(parts: "list[Tensor]", axis: int = 1) -> Tensor:
    """Concatenate tensors along the channel axis.

    All parts must share dtype; QUInt8 parts must share quantization
    parameters (the merge after a channel-wise split is a pure
    concatenation, Section 3.2).
    """
    if not parts:
        raise ShapeError("cannot concatenate an empty list of tensors")
    dtype = parts[0].dtype
    qparams = parts[0].qparams
    for part in parts[1:]:
        if part.dtype is not dtype:
            raise DTypeError(
                f"cannot concatenate {part.dtype} with {dtype}")
        if part.qparams != qparams:
            raise QuantizationError(
                "cannot concatenate QUInt8 tensors with differing "
                "quantization parameters")
    data = np.concatenate([part.data for part in parts], axis=axis)
    return Tensor(data, dtype, qparams)


def require_finite(x: np.ndarray) -> None:
    """Raise :class:`~repro.errors.NonFiniteInputError` unless every
    element of the inference input ``x`` is finite."""
    if x.dtype.kind in "fc" and not np.isfinite(x).all():
        nan = int(np.isnan(x).sum())
        raise NonFiniteInputError(
            f"input holds {nan} NaN and {int(np.isinf(x).sum())} "
            f"infinite value(s) of {x.size}; inference inputs must be "
            f"finite")
