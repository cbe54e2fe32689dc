"""Functional layer execution under a quantization policy.

The :class:`LayerComputer` produces the actual numbers an execution
computes -- on the integer pipeline for QUInt8 compute (Figure 9a), on
the half-precision pipeline for F16 GPU compute over QUInt8 storage
(Figure 9b), or on plain float pipelines for the uniform baselines.

Placement only changes the *numerics* of GEMM-shaped layers (conv, FC):
under the processor-friendly policy the CPU's channels come from the
integer pipeline and the GPU's from the F16 pipeline, both requantized
into the same calibrated output range, so a cooperative layer's output
is the channel-wise concatenation of the two pipelines' results.
Non-GEMM layers (pooling, ReLU, concat, ...) are computed identically
on either processor, which keeps their cooperative split bit-exact.

The computer is the **uncached reference oracle**: every call computes
its operands from scratch -- weights are re-quantized, filters
re-packed and inputs re-lowered through ``im2col`` per placement --
so its outputs depend on nothing but the graph's current arrays, the
policy and the calibration table.  Fast execution is the compiled
program's job (:mod:`repro.compile`), which packs every operand once
at compile time and is held byte-identical to this interpreter by
``tests/test_compiled_identity.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PlanError, QuantizationError
from ..kernels import (conv_output_hw, flatten_filters, gemm_f16,
                       im2col, max_pool, qgemm)
from ..nn import Graph, LayerKind
from ..nn.layers import (Conv2D, DepthwiseConv2D, FullyConnected)
from ..kernels.qgemm import quantize_bias
from ..quant import dequantize_lut, dequantize_to_half, requantize
from ..quant.calibrate import CalibrationTable
from ..tensor import DType, QuantParams, Tensor, concat_channels
from .distribution import channel_ranges
from .pfq import QuantizationPolicy

#: Kinds computed identically regardless of processor placement.
_PLACEMENT_INVARIANT_KINDS = frozenset({
    LayerKind.MAX_POOL, LayerKind.AVG_POOL, LayerKind.RELU,
    LayerKind.CONCAT, LayerKind.ADD, LayerKind.SOFTMAX, LayerKind.LRN,
    LayerKind.FLATTEN,
})


class LayerComputer:
    """Computes layer outputs under one quantization policy.

    Args:
        graph: the network.
        policy: data types per processor and storage.
        calibration: per-layer activation ranges (required when the
            policy stores activations as QUInt8).
    """

    def __init__(self, graph: Graph, policy: QuantizationPolicy,
                 calibration: Optional[CalibrationTable] = None) -> None:
        if policy.is_quantized and calibration is None:
            raise QuantizationError(
                "QUInt8 activation storage requires a calibration table "
                "(run repro.nn.calibrate_graph first)")
        self._graph = graph
        self._policy = policy
        self._calibration = calibration
        # Shape memo: Graph.infer_shapes() returns a fresh dict copy on
        # every call, which turns the per-layer channel lookups of a
        # cooperative run into O(layers^2) dict copies.  A computer is
        # bound to one (already complete) graph, so the shapes are
        # resolved once and reused.
        self._shapes: "Optional[Dict[str, Tuple[int, ...]]]" = None

    # -- public API ---------------------------------------------------------

    def input_tensor(self, layer_name: str, data: np.ndarray) -> Tensor:
        """Convert external input data into storage representation."""
        data = np.asarray(data, dtype=np.float32)
        storage = self._policy.activation_storage
        if storage is DType.QUINT8:
            return Tensor.from_float(data, storage,
                                     self._out_qparams(layer_name))
        return Tensor.from_float(data, storage)

    def run_full(self, name: str, inputs: List[Tensor],
                 resource: str) -> Tensor:
        """Execute one whole layer on ``resource`` (``"cpu"``/``"gpu"``)."""
        layer = self._graph.layer(name)
        if layer.kind in (LayerKind.CONV, LayerKind.FC):
            return self._run_gemm_layer(name, inputs, resource,
                                        channel_range=None)
        if layer.kind is LayerKind.DEPTHWISE_CONV:
            return self._run_depthwise(name, inputs, resource,
                                       channel_range=None)
        return self._run_invariant(name, inputs)

    def run_cooperative(self, name: str, inputs: List[Tensor],
                        split: float) -> Tensor:
        """Execute one layer split channel-wise between CPU and GPU."""
        return self.run_cooperative_shares(
            name, inputs, {"cpu": split, "gpu": 1.0 - split})

    def run_cooperative_shares(self, name: str, inputs: List[Tensor],
                               shares: "dict[str, float]") -> Tensor:
        """Execute one layer split channel-wise by per-processor shares.

        Supports the three-way CPU/NPU/GPU distribution of the paper's
        Section 8.3 extension: each processor computes its contiguous
        channel range through its own pipeline (integer for CPU/NPU,
        F16 for the GPU under the processor-friendly policy), and the
        parts concatenate in channel order.
        """
        layer = self._graph.layer(name)
        if not layer.supports_channel_split:
            raise PlanError(
                f"layer {name!r} ({layer.kind}) cannot be split")
        total = self._output_channels(name)
        ranges = channel_ranges(total, shares)
        parts: List[Tensor] = []
        if layer.kind in (LayerKind.CONV, LayerKind.FC):
            for resource, (lo, hi) in ranges.items():
                parts.append(self._run_gemm_layer(
                    name, inputs, resource, channel_range=(lo, hi)))
            return concat_channels(parts,
                                   axis=self._channel_axis(name))
        if layer.kind is LayerKind.DEPTHWISE_CONV:
            for resource, (lo, hi) in ranges.items():
                parts.append(self._run_depthwise(
                    name, inputs, resource, channel_range=(lo, hi)))
            return concat_channels(parts)
        # Input-split kinds compute identically on every processor, so
        # split, process, and merge channel slices.
        (x,) = inputs
        for _, (lo, hi) in ranges.items():
            parts.append(self._run_invariant(
                name, [x.slice_channels(lo, hi)]))
        return concat_channels(parts)

    # -- helpers --------------------------------------------------------------

    def _shape_of(self, name: str) -> Tuple[int, ...]:
        if self._shapes is None:
            self._shapes = self._graph.infer_shapes()
        return self._shapes[name]

    def _channel_axis(self, name: str) -> int:
        shape = self._shape_of(name)
        return 1 if len(shape) >= 2 else 0

    def _output_channels(self, name: str) -> int:
        shape = self._shape_of(name)
        return shape[1]

    def _out_qparams(self, name: str) -> QuantParams:
        assert self._calibration is not None
        return self._calibration.get(name)

    @staticmethod
    def _quantized_weights(weights: np.ndarray
                           ) -> Tuple[np.ndarray, QuantParams]:
        """Quantized filter codes of the layer's current weights."""
        qparams = QuantParams.from_array(weights)
        return qparams.quantize(weights), qparams

    def _store(self, name: str, values: np.ndarray) -> Tensor:
        """Pack float results into the storage representation."""
        storage = self._policy.activation_storage
        if storage is DType.QUINT8:
            qparams = self._out_qparams(name)
            return Tensor(qparams.quantize(values), storage, qparams)
        return Tensor.from_float(values, storage)

    # -- GEMM layers (conv / FC) ----------------------------------------------

    def _run_gemm_layer(self, name: str, inputs: List[Tensor],
                        resource: str,
                        channel_range: Optional[Tuple[int, int]]) -> Tensor:
        layer = self._graph.layer(name)
        (x,) = inputs
        if isinstance(layer, (Conv2D, FullyConnected)):
            weights, bias = layer.weights, layer.bias
        else:
            raise PlanError(f"layer {name!r} is not GEMM-shaped")
        if weights is None or bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        compute_dtype = self._policy.compute_dtype(resource)
        storage = self._policy.activation_storage
        if storage is DType.QUINT8 and compute_dtype is DType.QUINT8:
            return self._gemm_integer(name, layer, x, weights, bias,
                                      channel_range)
        if storage is DType.QUINT8:
            return self._gemm_float_over_quant(name, layer, x, weights,
                                               bias, channel_range,
                                               compute_dtype)
        return self._gemm_float(name, layer, x, weights, bias,
                                channel_range, compute_dtype)

    def _conv_out_shape(self, layer: Conv2D, x_arr: np.ndarray,
                        out_channels: int) -> Tuple[int, ...]:
        out_h, out_w = conv_output_hw(x_arr.shape[2], x_arr.shape[3],
                                      layer.kernel, layer.stride,
                                      layer.padding)
        return (x_arr.shape[0], out_channels, out_h, out_w)

    @staticmethod
    def _fold_gemm_output(out_rows: np.ndarray,
                          shape: Tuple[int, ...]) -> np.ndarray:
        if len(shape) == 4:
            batch, out_c, out_h, out_w = shape
            out = out_rows.reshape(batch, out_h, out_w, out_c)
            return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
        return out_rows.reshape(shape)

    def _gemm_integer(self, name: str, layer, x: Tensor,
                      weights: np.ndarray, bias: np.ndarray,
                      channel_range: Optional[Tuple[int, int]]) -> Tensor:
        """CPU path: gemmlowp-style integer GEMM (Figure 9a)."""
        weight_codes, w_qparams = self._quantized_weights(weights)
        bias_slice = bias
        if channel_range is not None:
            lo, hi = channel_range
            weight_codes = weight_codes[lo:hi]
            bias_slice = bias[lo:hi]
        assert x.qparams is not None
        x_qparams = x.qparams
        if isinstance(layer, Conv2D):
            columns = im2col(x.data, layer.kernel, layer.stride,
                             layer.padding,
                             pad_value=float(x_qparams.zero_point))
            lhs = columns.reshape(-1, columns.shape[-1])
            rhs = flatten_filters(weight_codes).T
            shape = self._conv_out_shape(layer, x.data,
                                         weight_codes.shape[0])
        else:
            lhs = x.data
            rhs = weight_codes.T
            shape = (x.data.shape[0], weight_codes.shape[0])
        out_qparams = self._out_qparams(name)
        out_rows = qgemm(lhs, x_qparams, rhs, w_qparams, out_qparams,
                         bias=bias_slice, relu=layer.relu)
        folded = self._fold_gemm_output(out_rows, shape)
        return Tensor(folded, DType.QUINT8, out_qparams)

    def _gemm_float_over_quant(self, name: str, layer, x: Tensor,
                               weights: np.ndarray, bias: np.ndarray,
                               channel_range: Optional[Tuple[int, int]],
                               compute_dtype: DType) -> Tensor:
        """GPU path: load QUInt8, compute in F16, requantize
        (Figure 9b)."""
        weights_slice, bias_slice = weights, bias
        if channel_range is not None:
            lo, hi = channel_range
            weights_slice = weights[lo:hi]
            bias_slice = bias[lo:hi]
        assert x.qparams is not None
        x_qparams = x.qparams
        # Conv layers gather the *uint8 code* columns and dequantize
        # them through a lookup table -- bit-identical to gathering the
        # dequantized input, since the elementwise map commutes with
        # the gather and lut[zero_point] == 0.0 matches the float
        # pipeline's zero padding.  The compiled program shares one
        # code column matrix between a cooperative layer's pipelines.
        lut = dequantize_lut(x_qparams)
        if compute_dtype is not DType.F16:   # F32 over quantized storage
            lut = lut.astype(np.float32)
        if isinstance(layer, Conv2D):
            codes = im2col(x.data, layer.kernel, layer.stride,
                           layer.padding,
                           pad_value=float(x_qparams.zero_point))
            lhs: np.ndarray = lut[codes].reshape(-1, codes.shape[-1])
            rhs = flatten_filters(weights_slice).T
            shape = self._conv_out_shape(layer, x.data,
                                         weights_slice.shape[0])
        else:
            lhs = dequantize_to_half(x.data, x_qparams).astype(lut.dtype)
            rhs = weights_slice.T
            shape = (x.data.shape[0], weights_slice.shape[0])
        if compute_dtype is DType.F16:
            out_rows = gemm_f16(lhs, rhs.astype(np.float16),
                                bias_slice).astype(np.float32)
        else:
            out_rows = lhs @ rhs + bias_slice
        if layer.relu:
            out_rows = np.maximum(out_rows, 0.0)
        folded = self._fold_gemm_output(out_rows, shape)
        out_qparams = self._out_qparams(name)
        return Tensor(out_qparams.quantize(folded), DType.QUINT8,
                      out_qparams)

    def _gemm_float(self, name: str, layer, x: Tensor,
                    weights: np.ndarray, bias: np.ndarray,
                    channel_range: Optional[Tuple[int, int]],
                    compute_dtype: DType) -> Tensor:
        """Uniform float path (F32 or F16 end to end)."""
        weights_slice, bias_slice = weights, bias
        if channel_range is not None:
            lo, hi = channel_range
            weights_slice = weights[lo:hi]
            bias_slice = bias[lo:hi]
        half = compute_dtype is DType.F16
        values = x.to_float()
        if half:
            values = values.astype(np.float16)
            weights_slice = weights_slice.astype(np.float16)
        if isinstance(layer, Conv2D):
            columns = im2col(values, layer.kernel, layer.stride,
                             layer.padding, pad_value=0.0)
            lhs = columns.reshape(-1, columns.shape[-1])
            rhs = flatten_filters(weights_slice).T
            shape = self._conv_out_shape(layer, x.data,
                                         weights_slice.shape[0])
        else:
            lhs = values
            rhs = weights_slice.T
            shape = (x.data.shape[0], weights_slice.shape[0])
        if half:
            out_rows = gemm_f16(lhs, rhs, bias_slice).astype(np.float32)
        else:
            out_rows = lhs @ rhs + bias_slice
        if layer.relu:
            out_rows = np.maximum(out_rows, 0.0)
        folded = self._fold_gemm_output(out_rows, shape)
        return self._store(name, folded)

    # -- depthwise convolution ------------------------------------------------

    def _run_depthwise(self, name: str, inputs: List[Tensor],
                       resource: str,
                       channel_range: Optional[Tuple[int, int]]) -> Tensor:
        layer = self._graph.layer(name)
        assert isinstance(layer, DepthwiseConv2D)
        if layer.weights is None or layer.bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        (x,) = inputs
        total = layer.weights.shape[0]
        lo, hi = (0, total) if channel_range is None else channel_range
        weights = layer.weights[lo:hi]
        bias = layer.bias[lo:hi]
        x_slice = x if channel_range is None else x.slice_channels(lo, hi)
        compute_dtype = self._policy.compute_dtype(resource)
        storage = self._policy.activation_storage
        if storage is DType.QUINT8 and compute_dtype is DType.QUINT8:
            return self._depthwise_integer(name, layer, x_slice, weights,
                                           bias, lo)
        # Float compute (uniform float, or F16-over-quantized).
        out = self._depthwise_float(layer, x_slice, weights, bias,
                                    compute_dtype)
        if storage is DType.QUINT8:
            out_qparams = self._out_qparams(name)
            return Tensor(out_qparams.quantize(out), DType.QUINT8,
                          out_qparams)
        return self._store(name, out)

    @staticmethod
    def _depthwise_columns(layer: DepthwiseConv2D, values: np.ndarray,
                           pad: float = 0.0) -> np.ndarray:
        """Per-channel patch columns: every channel lowered as an
        independent single-channel image."""
        n, c, in_h, in_w = values.shape
        return im2col(values.reshape(n * c, 1, in_h, in_w), layer.kernel,
                      layer.stride, layer.padding, pad_value=pad)

    def _depthwise_float(self, layer: DepthwiseConv2D, x: Tensor,
                         weights: np.ndarray, bias: np.ndarray,
                         compute_dtype: DType) -> np.ndarray:
        batch, channels, in_h, in_w = x.shape
        half = compute_dtype is DType.F16
        if x.dtype is DType.QUINT8:
            # Quantized storage: gather the uint8 code columns and
            # dequantize through a table of Tensor.to_float's (f32)
            # values, optionally rounded through f16; the table maps
            # the zero-point padding to exactly 0.0, the float
            # lowering's padding.
            assert x.qparams is not None
            table = x.qparams.dequantize(np.arange(256, dtype=np.uint8))
            if half:
                table = table.astype(np.float16).astype(np.float32)
            columns = table[self._depthwise_columns(
                layer, x.data, float(x.qparams.zero_point))]
        else:
            values = x.to_float()
            if half:
                values = values.astype(np.float16).astype(np.float32)
            columns = self._depthwise_columns(layer, values)
        w = weights
        if half:
            w = w.astype(np.float16).astype(np.float32)
        filters = np.tile(w.reshape(channels, -1), (batch, 1))
        out = np.einsum("npk,nk->np", columns, filters)
        out_h, out_w = conv_output_hw(in_h, in_w, layer.kernel,
                                      layer.stride, layer.padding)
        out = out.reshape(batch, channels, out_h, out_w)
        out = out + bias[None, :, None, None]
        if half:
            out = out.astype(np.float16).astype(np.float32)
        if layer.relu:
            out = np.maximum(out, 0.0)
        return out.astype(np.float32)

    def _depthwise_integer(self, name: str, layer: DepthwiseConv2D,
                           x: Tensor, weights: np.ndarray,
                           bias: np.ndarray, lo: int) -> Tensor:
        """Integer depthwise conv with i32 accumulation + requantize."""
        weight_codes_full, w_qparams = self._quantized_weights(
            layer.weights)
        channels = weights.shape[0]
        weight_codes = weight_codes_full[lo:lo + channels]
        assert x.qparams is not None
        x_qparams = x.qparams
        batch = x.shape[0]
        in_h, in_w = x.shape[2], x.shape[3]
        columns = self._depthwise_columns(layer, x.data,
                                          float(x_qparams.zero_point))
        lhs = columns.astype(np.int32) - np.int32(x_qparams.zero_point)
        rhs = (np.tile(weight_codes.reshape(channels, -1),
                       (batch, 1)).astype(np.int32)
               - np.int32(w_qparams.zero_point))
        acc = np.einsum("npk,nk->np", lhs, rhs, dtype=np.int64)
        acc = acc.astype(np.int32)
        bias_i32 = quantize_bias(bias, x_qparams.scale, w_qparams.scale)
        acc = acc + np.repeat(
            np.tile(bias_i32, batch), acc.shape[1]).reshape(acc.shape)
        out_h, out_w = conv_output_hw(in_h, in_w, layer.kernel,
                                      layer.stride, layer.padding)
        out_qparams = self._out_qparams(name)
        codes = requantize(acc, x_qparams.scale, w_qparams.scale,
                           out_qparams)
        codes = codes.reshape(batch, channels, out_h, out_w)
        if layer.relu:
            codes = np.maximum(codes, np.uint8(out_qparams.zero_point))
        return Tensor(codes, DType.QUINT8, out_qparams)

    # -- placement-invariant layers ------------------------------------------

    def _run_invariant(self, name: str, inputs: List[Tensor]) -> Tensor:
        layer = self._graph.layer(name)
        if layer.kind not in _PLACEMENT_INVARIANT_KINDS:
            raise PlanError(
                f"layer {name!r} ({layer.kind}) has no placement-"
                "invariant implementation")
        storage = self._policy.activation_storage
        if storage is not DType.QUINT8:
            values = [t.to_float() for t in inputs]
            return self._store(name, layer.forward_f32(values))
        return self._run_invariant_quantized(name, layer, inputs)

    def _run_invariant_quantized(self, name: str, layer,
                                 inputs: List[Tensor]) -> Tensor:
        kind = layer.kind
        if kind is LayerKind.MAX_POOL:
            # Max of codes == max of reals (monotone map); parameters
            # pass through unchanged, as in TFLite.
            (x,) = inputs
            codes = max_pool(x.data, layer.kernel, layer.stride,
                             layer.padding)
            return Tensor(codes.astype(np.uint8), DType.QUINT8, x.qparams)
        if kind is LayerKind.RELU:
            (x,) = inputs
            assert x.qparams is not None
            codes = np.maximum(x.data, np.uint8(x.qparams.zero_point))
            return Tensor(codes, DType.QUINT8, x.qparams)
        if kind is LayerKind.FLATTEN:
            (x,) = inputs
            return Tensor(x.data.reshape(x.shape[0], -1), DType.QUINT8,
                          x.qparams)
        if kind is LayerKind.AVG_POOL:
            # Averaging is affine, so averaging codes (with real-zero
            # padding = the zero point) equals averaging reals; round
            # back to the same grid.
            (x,) = inputs
            assert x.qparams is not None
            values = layer.forward_f32(
                [x.data.astype(np.float32)
                 - float(x.qparams.zero_point)])
            codes = np.clip(np.round(values + x.qparams.zero_point),
                            0, 255).astype(np.uint8)
            return Tensor(codes, DType.QUINT8, x.qparams)
        if kind is LayerKind.CONCAT:
            out_qparams = self._out_qparams(name)
            parts = [Tensor(out_qparams.quantize(t.to_float()),
                            DType.QUINT8, out_qparams) for t in inputs]
            return concat_channels(parts, axis=layer.axis)
        # ADD / SOFTMAX / LRN: dequantize, compute in float, requantize.
        values = [t.to_float() for t in inputs]
        out = layer.forward_f32(values)
        out_qparams = self._out_qparams(name)
        return Tensor(out_qparams.quantize(out), DType.QUINT8, out_qparams)
