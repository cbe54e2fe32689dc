"""Structural and elementwise layers: input, flatten, relu, concat,
add, softmax, LRN."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ...errors import ShapeError
from ..layer import Layer, LayerKind, LayerWork, Shape


class Input(Layer):
    """The graph's entry point; carries the declared input shape."""

    kind = LayerKind.INPUT

    def __init__(self, name: str, shape: Shape) -> None:
        super().__init__(name)
        if any(dim < 1 for dim in shape):
            raise ShapeError(
                f"input {name!r}: all dimensions must be positive, got "
                f"{shape}")
        self.shape = tuple(shape)

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        if input_shapes:
            raise ShapeError(
                f"input layer {self.name!r} takes no inputs")
        return self.shape

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        raise ShapeError(
            f"input layer {self.name!r} is fed externally, not executed")

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = int(np.prod(self.shape[1:]))
        return LayerWork(macs=0, simple_ops=0, param_elements=0,
                         input_elements=0, output_elements=elements)


class Flatten(Layer):
    """Collapse all non-batch dimensions into one feature axis."""

    kind = LayerKind.FLATTEN

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        shape = self._expect_single_input(input_shapes)
        return (shape[0], int(np.prod(shape[1:])))

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        return np.ascontiguousarray(x.reshape(x.shape[0], -1))

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = int(np.prod(input_shapes[0][1:]))
        return LayerWork(macs=0, simple_ops=0, param_elements=0,
                         input_elements=elements, output_elements=elements)


class ReLU(Layer):
    """Standalone rectified linear unit (usually fused into conv/FC)."""

    kind = LayerKind.RELU

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        return self._expect_single_input(input_shapes)

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        return np.maximum(x, 0.0).astype(np.float32)

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = int(np.prod(input_shapes[0][1:]))
        return LayerWork(macs=0, simple_ops=elements, param_elements=0,
                         input_elements=elements, output_elements=elements)


class Concat(Layer):
    """Concatenate along the channel axis.

    The join point of divergent branches: GoogLeNet's Inception module
    "concatenates the outcomes along the channel dimension" (Section 5).
    """

    kind = LayerKind.CONCAT

    def __init__(self, name: str, axis: int = 1) -> None:
        super().__init__(name)
        self.axis = axis

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise ShapeError(
                f"concat {self.name!r} needs at least two inputs")
        first = tuple(input_shapes[0])
        total = 0
        for shape in input_shapes:
            shape = tuple(shape)
            if len(shape) != len(first):
                raise ShapeError(
                    f"concat {self.name!r}: rank mismatch {shape} vs "
                    f"{first}")
            for axis, (a, b) in enumerate(zip(shape, first)):
                if axis != self.axis and a != b:
                    raise ShapeError(
                        f"concat {self.name!r}: non-concat dims differ: "
                        f"{shape} vs {first}")
            total += shape[self.axis]
        out = list(first)
        out[self.axis] = total
        return tuple(out)

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        return np.concatenate(inputs, axis=self.axis)

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = sum(int(np.prod(shape[1:])) for shape in input_shapes)
        return LayerWork(macs=0, simple_ops=0, param_elements=0,
                         input_elements=elements, output_elements=elements)


class EltwiseAdd(Layer):
    """Elementwise addition of equally shaped inputs (residual links)."""

    kind = LayerKind.ADD

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        if len(input_shapes) < 2:
            raise ShapeError(
                f"add {self.name!r} needs at least two inputs")
        first = tuple(input_shapes[0])
        for shape in input_shapes[1:]:
            if tuple(shape) != first:
                raise ShapeError(
                    f"add {self.name!r}: shape mismatch {shape} vs {first}")
        return first

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        out = inputs[0].astype(np.float32)
        for other in inputs[1:]:
            out = out + other
        return out

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = int(np.prod(input_shapes[0][1:]))
        return LayerWork(macs=0,
                         simple_ops=elements * (len(input_shapes) - 1),
                         param_elements=0,
                         input_elements=elements * len(input_shapes),
                         output_elements=elements)


class Softmax(Layer):
    """Softmax over the feature axis of a (batch, features) tensor."""

    kind = LayerKind.SOFTMAX

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        shape = self._expect_single_input(input_shapes)
        if len(shape) != 2:
            raise ShapeError(
                f"softmax {self.name!r} expects (batch, features) input, "
                f"got shape {shape}")
        return shape

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        x = x.astype(np.float32)
        shifted = x - x.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        return (exp / exp.sum(axis=1, keepdims=True)).astype(np.float32)

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = int(np.prod(input_shapes[0][1:]))
        # exp + sum + divide: ~3 simple ops per element.
        return LayerWork(macs=0, simple_ops=3 * elements, param_elements=0,
                         input_elements=elements, output_elements=elements)


class LRN(Layer):
    """Local response normalization (AlexNet, GoogLeNet).

    Normalizes each activation by the sum of squares over ``size``
    adjacent channels: ``x / (k + alpha/size * sum)**beta``.
    """

    kind = LayerKind.LRN

    def __init__(self, name: str, size: int = 5, alpha: float = 1e-4,
                 beta: float = 0.75, k: float = 1.0) -> None:
        super().__init__(name)
        if size < 1 or size % 2 == 0:
            # The window centres on its channel, so it needs an odd
            # size (Caffe's local_size is odd too).
            raise ShapeError(
                f"lrn {name!r}: size must be a positive odd number, "
                f"got {size}")
        self.size = size
        self.alpha = alpha
        self.beta = beta
        self.k = k

    def infer_shape(self, input_shapes: Sequence[Shape]) -> Shape:
        return self._expect_nchw(self._expect_single_input(input_shapes))

    def forward_f32(self, inputs: List[np.ndarray]) -> np.ndarray:
        (x,) = inputs
        x = x.astype(np.float32, copy=False)
        batch, channels, height, width = x.shape
        half = self.size // 2
        # Sum of squares over a sliding channel window via cumulative
        # sums: a zero channel, ``half`` zero channels, the squares and
        # ``half`` zero channels, summed up in place.
        sums = np.empty((batch, channels + 2 * half + 1, height, width),
                        dtype=np.float32)
        sums[:, :half + 1] = 0.0
        sums[:, half + 1 + channels:] = 0.0
        np.multiply(x, x, out=sums[:, half + 1:half + 1 + channels])
        np.cumsum(sums, axis=1, out=sums)
        denom = sums[:, self.size:] - sums[:, :-self.size]
        denom *= np.float32(self.alpha / self.size)
        denom += np.float32(self.k)
        # ``self.beta`` as given: numpy maps a Python-float exponent
        # such as 0.5 or 2.0 to its fast ufunc (sqrt, square).
        denom **= self.beta
        return np.divide(x, denom, out=denom)

    def work(self, input_shapes: Sequence[Shape]) -> LayerWork:
        elements = int(np.prod(input_shapes[0][1:]))
        # square + windowed sum + pow + divide: ~(size + 3) ops/elem.
        return LayerWork(macs=0, simple_ops=(self.size + 3) * elements,
                         param_elements=0, input_elements=elements,
                         output_elements=elements)
