"""Lowering an execution plan into a :class:`CompiledProgram`.

:func:`compile_program` walks the graph once, in topological order,
and emits one fused step per compute layer:

* **fusion** -- a conv/FC layer's im2col lowering, GEMM, bias add,
  ReLU, and requantization collapse into a single kernel call
  (:func:`~repro.kernels.qgemm.qgemm_fused` on the integer pipeline,
  one ``gemm_f16``/``matmul`` with epilogue on the float pipelines);
  all weight-side operands are packed at compile time, including the
  folded bias/zero-point constant row
  (:func:`~repro.kernels.qgemm.fused_const_row`) and the prepared
  requantization epilogue (:class:`~repro.quant.linear.Requantizer`);
* **integer convolution without im2col** -- every integer part of a
  stride-1 conv (1x1 included) runs
  :func:`~repro.kernels.conv_shifted`: the input is centred by its
  zero point and zero-padded once into a flat float32 buffer, each of
  the ``k*k`` filter taps is one GEMM over a shifted, copy-free view
  of it, and the crop of the wrap columns lands the output in NCHW
  with no fold.  float32 is exact here, not approximate: lowering
  checks ``max(zx, 255 - zx) * max_oc sum |w - zw| < 2**24`` on the
  part's own centred weight codes
  (:func:`~repro.kernels.exact_in_f32`), which bounds every partial
  sum any BLAS order or FMA can form, so each is an integer float32
  holds exactly; the int32 cast plus the wrapping int32 bias add then
  give ``qgemm_fused``'s accumulator bit for bit.  A part that fails
  the bound keeps im2col + ``qgemm_fused`` (re-checked whenever new
  weights force a recompile), as do stride-2 convs and FC layers;
* **batched GEMM** -- the batch axis folds into the GEMM row dimension
  wherever that is byte-exact: always on the integer pipeline, whose
  accumulators are order-independent (modular int32 arithmetic is
  associative and commutative, and the exact float fast paths are
  mathematically determined values).  Float pipelines at batch > 1
  instead issue one GEMM per sample *inside* the step -- numpy's BLAS
  can change blocking (and therefore float summation order) with the
  row count M, so folding samples into one ``(B*M, K) @ (K, N)`` call
  would change float results between batch sizes.  The per-sample
  calls are exactly the ones the functional path makes, so batch-N
  output rows equal N stacked batch-1 runs, byte for byte;
* **direct 1x1 float GEMM** -- a float part of a 1x1/stride-1/
  unpadded conv runs ``W (oc, C) @ X (N, C, H*W)`` on the NCHW input
  (``direct1x1``), skipping im2col and the output fold, wherever its
  GEMM sums reproduce the reference lowering's bytes on the step's
  seeded synthetic input; elsewhere the step keeps the reference
  lowering.  The check is what makes the rule safe: the direct GEMM
  changes the BLAS call shape, which on some shapes changes the
  summation order (see :meth:`_Lowering._choose`).  An optional
  :class:`~repro.tune.Tuner` times the surviving lowerings instead;
* **static resolution** -- quantization parameters propagate through
  the graph at compile time (pass-through kinds inherit their input's
  parameters, everything else reads the calibration table), so no
  per-run qparams, placement, or shape lookups remain.

Cooperative layers lower into one part per processor over the plan's
channel ranges (:func:`~repro.runtime.distribution.channel_ranges`),
each on its processor's pipeline, concatenated in channel order --
exactly :meth:`LayerComputer.run_cooperative_shares`.  The parts of a
quantized-storage conv that share a lowering share one column matrix
(or one shifted-tap buffer);
the float parts dequantize the input through a 256-entry table before
im2col -- byte-identical to the interpreter, which gathers its uint8
code columns through the same table.

Epilogues run in place on each part's fresh output.  Integer parts
requantize through a compile-time
:class:`~repro.quant.linear.Requantizer` (an exact float64 form of
gemmlowp's fixed-point pipeline, ReLU as a clamp bound).  F16 parts
over QUInt8 storage store their f16 rows with one ``np.take`` of the
rows' uint16 bit patterns through a 65,536-entry code table
(:func:`~repro.quant.linear.half_store_table`: ``quantize_store``
evaluated once per f16 pattern, so the codes are its bytes by
construction), built at compile time once per (output qparams, relu)
and only for run closures, then fold the uint8 codes.  Every
256-entry gather of uint8 codes (dequantization, depthwise columns,
concat remaps) is an ``np.take`` with ``mode="wrap"``: a code never
leaves its table, so the mode changes no value, and on this gather
it runs about 1.4x faster than the default mode and 2.5x faster than
fancy indexing.

Channel-independent kinds (pooling, ReLU, depthwise with uniform
pipelines, elementwise) are computed whole even when the plan splits
them: slicing, computing, and concatenating channel slices of a
channel-independent operation is byte-identical to computing it
unsplit.  Depthwise layers with *mixed* pipelines (the processor-
friendly policy's CPU integer / GPU F16 split) do lower per part,
since their parts genuinely differ numerically.  Integer depthwise
parts, at every stride, batch and channel slice, run
:func:`~repro.kernels.depthwise_rows` and build no im2col columns:
the part's input is centred once into a flat float32 buffer, one
matmul per row phase gives each filter row's sums and the ``k`` rows
add up to the output.  Every partial sum stays below ``k**2 * 255**2
< 2**24`` for ``k <= 16``, so float32 holds it exactly (past that the
rows add in int32), and the wrapping int32 bias add gives the
interpreter's int64 sum modulo ``2**32``.  Float parts keep im2col +
einsum, whose summation order the interpreter's bytes pin.
"""

from __future__ import annotations

import zlib
from typing import (TYPE_CHECKING, Callable, Dict, List, Optional,
                    Tuple, Union)

import numpy as np

from ..analysis.memory import plan_arena
from ..errors import PlanError, QuantizationError
from ..kernels import (conv_output_hw, conv_shifted, depthwise_rows,
                       exact_in_f32, flatten_filters, im2col, max_pool,
                       pack_depthwise_taps, pack_shifted_taps,
                       qgemm_fused, shifted_input)
from ..kernels.qgemm import (EXACT_GEMM_MAX_DEPTH, fused_const_row,
                             quantize_bias)
from ..nn import Graph, LayerKind
from ..nn.layers import Conv2D, DepthwiseConv2D, FullyConnected, Input
from ..quant import dequantize_lut, dequantize_to_half
from ..quant.linear import Requantizer, half_store_table, quantize_store
from ..quant.calibrate import CalibrationTable
from ..runtime.distribution import channel_ranges
from ..runtime.plan import ExecutionPlan, LayerAssignment
from ..tensor import DType, QuantParams
from .program import (CompiledProgram, CompiledStep, InputSpec,
                      PlacementPart, StepFn)

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..tune import Tuner

#: Layers lowered through the shared GEMM path.
_GemmLayer = Union[Conv2D, FullyConnected]

#: Builds one prepared-operand variant (im2col columns / dequantized
#: lhs) from the step's single input array.
PrepareFn = Callable[[np.ndarray], np.ndarray]

#: A step lowering offered to :meth:`_Lowering._choose`: (variant
#: name, step fn, sums fn).  The sums fn returns the step's float
#: GEMM sums before the output rounding and store.
_StepCandidate = Tuple[str, StepFn, StepFn]

#: Kinds whose quantization parameters pass through from their input.
_QPARAMS_PASSTHROUGH = frozenset({
    LayerKind.MAX_POOL, LayerKind.RELU, LayerKind.FLATTEN,
    LayerKind.AVG_POOL,
})


def _resolve_batch(plan: ExecutionPlan, batch: Optional[int]) -> int:
    chosen = plan.batch if batch is None else int(batch)
    if chosen < 1:
        raise PlanError(f"batch must be >= 1, got {chosen}")
    if plan.batch not in (1, chosen):
        raise PlanError(
            f"plan was partitioned for batch {plan.batch} but the "
            f"program is compiled for batch {chosen}")
    return chosen


def _matmul_rows(lhs: np.ndarray, matmul: Callable[[np.ndarray],
                                                   np.ndarray],
                 chunk: Optional[int]) -> np.ndarray:
    """Apply ``matmul`` to ``lhs``, folded or per-sample.

    ``chunk`` is the per-sample row count; when set, ``matmul`` runs
    once per ``chunk`` rows, reproducing the functional path's
    per-sample GEMM calls -- BLAS results can differ with the row
    count M, so float pipelines must keep the batch-1 call shapes
    (see the module docstring).  ``None`` folds everything into one
    call.
    """
    if chunk is None or lhs.shape[0] <= chunk:
        return matmul(lhs)
    return np.concatenate(
        [matmul(lhs[i:i + chunk]) for i in range(0, lhs.shape[0], chunk)],
        axis=0)


def _fold_gemm_output(out_rows: np.ndarray,
                      shape: Tuple[int, ...]) -> np.ndarray:
    """Row-major GEMM output back to NCHW (LayerComputer's fold)."""
    if len(shape) == 4:
        batch, out_c, out_h, out_w = shape
        out = out_rows.reshape(batch, out_h, out_w, out_c)
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))
    return out_rows.reshape(shape)


class _Lowering:
    """Single-use state of one :func:`compile_program` invocation."""

    def __init__(self, graph: Graph, plan: ExecutionPlan,
                 calibration: Optional[CalibrationTable],
                 batch: int,
                 tuner: "Optional[Tuner]" = None) -> None:
        self.graph = graph
        self.plan = plan
        self.calibration = calibration
        self.batch = batch
        self.tuner = tuner
        self.policy = plan.policy
        self.storage = plan.policy.activation_storage
        self.shapes = graph.infer_shapes()
        self.qparams: Dict[str, Optional[QuantParams]] = {}
        self.weight_refs: List[Tuple[str, np.ndarray, np.ndarray]] = []
        self.store_tables: Dict[Tuple[QuantParams, bool], np.ndarray] = {}

    # -- static metadata -----------------------------------------------------

    def out_shape(self, name: str) -> Tuple[int, ...]:
        shape = self.shapes[name]
        return (self.batch,) + tuple(int(d) for d in shape[1:])

    def propagate_qparams(self) -> None:
        """Static per-layer output quantization parameters.

        Mirrors what the functional path resolves at run time: pass-
        through kinds (pooling, ReLU, flatten) keep their input's
        parameters, everything else is requantized into its calibrated
        range.  Float storage carries no parameters.
        """
        if self.storage is not DType.QUINT8:
            for name in self.graph.topological_order():
                self.qparams[name] = None
            return
        assert self.calibration is not None
        for name in self.graph.topological_order():
            layer = self.graph.layer(name)
            if layer.kind in _QPARAMS_PASSTHROUGH:
                (producer,) = self.graph.inputs_of(name)
                self.qparams[name] = self.qparams[producer]
            else:
                self.qparams[name] = self.calibration.get(name)

    def resource_shares(self, name: str) -> Dict[str, float]:
        placement = self.plan.placement_of(name)
        if isinstance(placement, LayerAssignment):
            return placement.shares()
        return {placement: 1.0}

    def placement_parts(self, name: str
                        ) -> Tuple[PlacementPart, ...]:
        """The step's ``(resource, channel range)`` parts, in order."""
        shares = self.resource_shares(name)
        if len(shares) == 1:
            (resource,) = shares
            return ((resource, None),)
        total = int(self.shapes[name][1])
        ranges = channel_ranges(total, shares)
        return tuple((resource, (lo, hi))
                     for resource, (lo, hi) in ranges.items())

    def store_table(self, name: str, relu: bool) -> np.ndarray:
        """The F16 store of step ``name``'s output codes
        (:func:`~repro.quant.linear.half_store_table`), built once per
        (output qparams, relu) in one compile."""
        out_qparams = self.qparams[name]
        assert out_qparams is not None
        key = (out_qparams, relu)
        table = self.store_tables.get(key)
        if table is None:
            table = half_store_table(out_qparams, relu)
            self.store_tables[key] = table
        return table

    def quantized_weights(self, weights: np.ndarray
                          ) -> Tuple[np.ndarray, QuantParams]:
        """Full-filter codes, exactly the interpreter's
        ``LayerComputer._quantized_weights``."""
        w_qparams = QuantParams.from_array(weights)
        return w_qparams.quantize(weights), w_qparams

    # -- lowering choice ------------------------------------------------------

    def _signature(self, name: str) -> str:
        """The step's signature: everything the kernel ranking can
        depend on (op, geometry, shapes, dtypes, placements, batch) and
        nothing it cannot (layer/model names are absent, so identical
        steps share one tune record and one check input)."""
        layer = self.graph.layer(name)
        geometry = []
        for attr in ("kernel", "stride", "padding", "out_channels",
                     "out_features", "relu", "axis"):
            value = getattr(layer, attr, None)
            if value is not None:
                geometry.append(f"{attr}={value}")
        parts = ",".join(
            f"{resource}:{self.policy.compute_dtype(resource).name}"
            f":{rng}"
            for resource, rng in self.placement_parts(name))
        in_shapes = "/".join(
            "x".join(str(d) for d in self.out_shape(producer))
            for producer in self.graph.inputs_of(name))
        return (f"{layer.kind.value}|{';'.join(geometry)}|in={in_shapes}"
                f"|store={self.storage.name}|parts={parts}"
                f"|batch={self.batch}")

    def _tune_input(self, name: str,
                    signature: str) -> Callable[[], np.ndarray]:
        """Deterministic synthetic input for the step's producer.

        Seeded from the signature so identical steps are checked and
        tuned on identical data, independent of layer or model naming.
        """
        (producer,) = self.graph.inputs_of(name)
        shape = self.out_shape(producer)
        storage = self.storage
        seed = zlib.crc32(signature.encode("utf-8"))

        def make_input() -> np.ndarray:
            rng = np.random.default_rng(seed)
            if storage is DType.QUINT8:
                return rng.integers(0, 256, size=shape, dtype=np.uint8)
            return rng.standard_normal(shape).astype(
                storage.numpy_dtype)

        return make_input

    def _choose(self, name: str, candidates: List[_StepCandidate]
                ) -> Tuple[StepFn, str]:
        """Pick among the step's legal lowerings.

        ``candidates[0]`` is the reference.  Every alternative runs
        once on the step's seeded synthetic input and is dropped unless
        its float GEMM sums reproduce the reference's bytes: an
        alternative changes a float part's BLAS call shape, and whether
        that changes the summation order depends on the shape and the
        host BLAS.  The sums are compared *before* the output rounding:
        rounding to f16 or to uint8 codes hides a changed sum on many
        inputs, so an output check can pass on the synthetic input and
        still fail on real ones.  Without a tuner the alternative wins
        wherever it survives; with one, the survivors are timed.
        """
        ref_name, ref_fn, ref_sums = candidates[0]
        signature = self._signature(name)
        make_input = self._tune_input(name, signature)
        inputs = [make_input()]
        reference = np.asarray(ref_sums(inputs))
        survivors = [(ref_name, ref_fn)]
        for cand, fn, sums in candidates[1:]:
            out = np.asarray(sums(inputs))
            if (out.dtype == reference.dtype
                    and out.shape == reference.shape
                    and out.tobytes() == reference.tobytes()):
                survivors.append((cand, fn))
        if self.tuner is None or len(survivors) == 1:
            winner, fn = survivors[-1]
            return fn, winner
        winner = self.tuner.select(signature, survivors, make_input)
        return dict(survivors)[winner], winner

    # -- GEMM layers (conv / FC) ----------------------------------------------

    def lower_gemm(self, name: str) -> Tuple[StepFn, str]:
        layer = self.graph.layer(name)
        assert isinstance(layer, (Conv2D, FullyConnected))
        if layer.weights is None or layer.bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        self.weight_refs.append((name, layer.weights, layer.bias))
        (producer,) = self.graph.inputs_of(name)
        x_qparams = self.qparams[producer]
        is_conv = isinstance(layer, Conv2D)
        if is_conv:
            in_shape = self.out_shape(producer)
            out_h, out_w = conv_output_hw(in_shape[2], in_shape[3],
                                          layer.kernel, layer.stride,
                                          layer.padding)
            per_sample_rows = out_h * out_w
        else:
            per_sample_rows = 1
        # Float pipelines keep the functional path's per-sample GEMM
        # call shapes at batch > 1; integer pipelines always fold.
        chunk = per_sample_rows if self.batch > 1 else None

        placements = self.placement_parts(name)
        parts = []
        for resource, rng in placements:
            parts.append(self._gemm_part(name, layer, resource, rng,
                                         x_qparams, chunk))
        lhs_builders = self._gemm_lhs_builders(layer, x_qparams)
        axis = 1 if len(self.out_shape(name)) >= 2 else 0

        reference = self._gemm_fn(parts, lhs_builders, axis)
        # An integer part's lowering is fixed by a static rule (shifted
        # taps where float32 is exact, else im2col), so only a 1x1 conv
        # with a float part has an alternative: direct1x1, which keeps
        # the reference's integer parts.
        floats = [(resource, rng) for resource, rng in placements
                  if not self._integer(resource)]
        if (not floats or not isinstance(layer, Conv2D) or axis != 1
                or (layer.kernel, layer.stride, layer.padding)
                != (1, 1, 0)):
            return reference, "reference"
        builders = dict(lhs_builders)
        builders.update(self._direct1x1_builders(
            x_qparams, int(layer.weights.shape[1])))
        direct_parts = [
            part if self._integer(resource)
            else self._direct1x1_part(name, layer, resource, rng)
            for (resource, rng), part in zip(placements, parts)]
        reference_sums = self._gemm_fn(
            [self._gemm_part(name, layer, resource, rng, x_qparams, chunk,
                             sums=True) for resource, rng in floats],
            builders, axis)
        direct_sums = self._gemm_fn(
            [self._direct1x1_part(name, layer, resource, rng, sums=True)
             for resource, rng in floats], builders, axis)
        return self._choose(name, [
            ("reference", reference, reference_sums),
            ("direct1x1", self._gemm_fn(direct_parts, builders, axis),
             direct_sums)])

    def _gemm_fn(self, parts: List[Tuple[str, Callable[[np.ndarray],
                                                       np.ndarray]]],
                 lhs_builders: Dict[str, PrepareFn], axis: int) -> StepFn:
        """The step fn over one set of GEMM parts: each lhs variant is
        built once, each part runs on it, outputs join in channel
        order."""

        def fn(inputs: List[np.ndarray]) -> np.ndarray:
            (x,) = inputs
            lhs_cache: Dict[str, np.ndarray] = {}
            outs = []
            for variant, part in parts:
                lhs = lhs_cache.get(variant)
                if lhs is None:
                    lhs = lhs_builders[variant](x)
                    lhs_cache[variant] = lhs
                outs.append(part(lhs))
            if len(outs) == 1:
                return outs[0]
            return np.concatenate(outs, axis=axis)

        return fn

    def _gemm_lhs_builders(self, layer: _GemmLayer,
                           x_qparams: Optional[QuantParams]
                           ) -> Dict[str, PrepareFn]:
        """Per-variant activation-side lowerings of one GEMM layer.

        Under QUInt8 storage the integer pipeline lowers the uint8
        codes; the float pipelines map the *input* through the
        256-entry dequantization table and lower that -- the
        interpreter gathers its code columns instead, which is the
        same bytes (the table is elementwise and sends the zero-point
        padding to +0.0, the float padding) for a k*k-times smaller
        gather.
        """
        is_conv = isinstance(layer, Conv2D)
        builders: Dict[str, PrepareFn] = {}
        # Half-precision variants carry float32 arrays holding exactly
        # representable f16 values: rounding through f16 *before* the
        # gather/im2col and widening back commutes exactly with doing
        # it on the column matrix (both are value-exact casts), and the
        # fused matmul then needs no per-call operand casts.
        if self.storage is DType.QUINT8:
            assert x_qparams is not None
            pad = float(x_qparams.zero_point)
            lut_half = dequantize_lut(x_qparams).astype(np.float32)
            qp = x_qparams
            if is_conv:
                def build_codes(x: np.ndarray) -> np.ndarray:
                    c = im2col(x, layer.kernel, layer.stride,
                               layer.padding, pad_value=pad)
                    return c.reshape(-1, c.shape[-1])

                def build_half(x: np.ndarray) -> np.ndarray:
                    # lut_half[zero_point] is +0.0, so gathering the
                    # input before im2col with 0.0 padding equals
                    # gathering the k*k-times larger code columns.
                    c = im2col(np.take(lut_half, x, mode="wrap"),
                               layer.kernel, layer.stride, layer.padding,
                               pad_value=0.0)
                    return c.reshape(-1, c.shape[-1])

                builders["codes"] = build_codes
                builders["half"] = build_half
                if layer.stride == 1:
                    x_zero = x_qparams.zero_point

                    def build_shifted(x: np.ndarray) -> np.ndarray:
                        return shifted_input(x, layer.kernel,
                                             layer.padding, x_zero)

                    builders["shifted"] = build_shifted
            else:
                def build_codes(x: np.ndarray) -> np.ndarray:
                    return x

                def build_half(x: np.ndarray) -> np.ndarray:
                    return dequantize_to_half(x, qp).astype(np.float32)

                builders["codes"] = build_codes
                builders["half"] = build_half
            builders["half_f32"] = builders["half"]
        else:
            if is_conv:
                def build_f16(x: np.ndarray) -> np.ndarray:
                    c = im2col(x.astype(np.float32).astype(np.float16)
                               .astype(np.float32),
                               layer.kernel, layer.stride, layer.padding,
                               pad_value=0.0)
                    return c.reshape(-1, c.shape[-1])

                def build_f32(x: np.ndarray) -> np.ndarray:
                    c = im2col(x.astype(np.float32), layer.kernel,
                               layer.stride, layer.padding,
                               pad_value=0.0)
                    return c.reshape(-1, c.shape[-1])

                builders["f16"] = build_f16
                builders["f32"] = build_f32
            else:
                def build_f16(x: np.ndarray) -> np.ndarray:
                    return (x.astype(np.float32).astype(np.float16)
                            .astype(np.float32))

                def build_f32(x: np.ndarray) -> np.ndarray:
                    return x.astype(np.float32)

                builders["f16"] = build_f16
                builders["f32"] = build_f32
        return builders

    def _integer(self, resource: str) -> bool:
        """Whether ``resource``'s part of a step runs the integer
        pipeline (QUInt8 storage and compute)."""
        return (self.storage is DType.QUINT8
                and self.policy.compute_dtype(resource) is DType.QUINT8)

    def _gemm_part(self, name: str, layer: _GemmLayer, resource: str,
                   rng: Optional[Tuple[int, int]],
                   x_qparams: Optional[QuantParams],
                   chunk: Optional[int], sums: bool = False
                   ) -> Tuple[str, Callable[[np.ndarray], np.ndarray]]:
        """(lhs variant, bound kernel) of one processor's portion;
        ``sums`` binds a float part's GEMM sums instead (see
        :meth:`_choose`)."""
        compute = self.policy.compute_dtype(resource)
        if self._integer(resource):
            assert x_qparams is not None
            return self._integer_gemm_part(name, layer, rng, x_qparams)
        if self.storage is DType.QUINT8:
            variant = "half" if compute is DType.F16 else "half_f32"
            return variant, self._float_gemm_part(name, layer, rng,
                                                  compute, chunk,
                                                  quantized=True,
                                                  sums=sums)
        variant = "f16" if compute is DType.F16 else "f32"
        return variant, self._float_gemm_part(name, layer, rng, compute,
                                              chunk, quantized=False,
                                              sums=sums)

    def _part_shape(self, layer: _GemmLayer,
                    rng: Optional[Tuple[int, int]]
                    ) -> Tuple[int, ...]:
        if isinstance(layer, Conv2D):
            out_c = layer.out_channels
        else:
            out_c = layer.out_features
        lo, hi = (0, out_c) if rng is None else rng
        full = self.out_shape(layer.name)
        return (full[0], hi - lo) + full[2:]

    def _integer_gemm_part(self, name: str, layer: _GemmLayer,
                           rng: Optional[Tuple[int, int]],
                           x_qparams: QuantParams
                           ) -> Tuple[str,
                                      Callable[[np.ndarray], np.ndarray]]:
        """(lhs variant, kernel) of one integer part: shifted-tap GEMMs
        for a stride-1 conv whose float32 sums are provably exact,
        else im2col + one qgemm_fused call."""
        weight_codes, w_qparams = self.quantized_weights(layer.weights)
        bias = layer.bias
        if rng is not None:
            lo, hi = rng
            weight_codes = weight_codes[lo:hi]
            bias = bias[lo:hi]
        bias_i32 = quantize_bias(bias, x_qparams.scale, w_qparams.scale)
        out_qparams = self.qparams[name]
        assert out_qparams is not None
        requantizer = Requantizer.prepare(
            x_qparams.scale, w_qparams.scale, out_qparams, layer.relu)
        rhs_zero = w_qparams.zero_point
        if (isinstance(layer, Conv2D) and layer.stride == 1
                and exact_in_f32(weight_codes, rhs_zero,
                                 x_qparams.zero_point)):
            taps = pack_shifted_taps(weight_codes, rhs_zero)
            bias_col = bias_i32.reshape(-1, 1, 1)
            (producer,) = self.graph.inputs_of(name)
            _, _, in_h, in_w = self.out_shape(producer)
            batch, kernel, padding = self.batch, layer.kernel, layer.padding

            def run_shifted(buf: np.ndarray) -> np.ndarray:
                return requantizer(conv_shifted(
                    buf, taps, bias_col, batch, in_h, in_w, kernel,
                    padding))

            return "shifted", run_shifted

        if isinstance(layer, Conv2D):
            rhs = flatten_filters(weight_codes).T
        else:
            rhs = weight_codes.T
        rhs_i32 = rhs.astype(np.int32)
        const_row = fused_const_row(rhs_i32, x_qparams.zero_point,
                                    rhs_zero, bias_i32)
        # BLAS dgemm computes the identical accumulator whenever the
        # depth bound guarantees exactness (see qgemm_fused); the run
        # closure holds only the operand the kernel reads.
        packed = (rhs.astype(np.float64)
                  if rhs.shape[0] <= EXACT_GEMM_MAX_DEPTH else rhs_i32)
        shape = self._part_shape(layer, rng)

        def run(lhs: np.ndarray) -> np.ndarray:
            out_rows = qgemm_fused(lhs, packed, rhs_zero, const_row,
                                   requantizer)
            return _fold_gemm_output(out_rows, shape)

        return "codes", run

    def _float_gemm_part(self, name: str, layer: _GemmLayer,
                         rng: Optional[Tuple[int, int]],
                         compute: DType, chunk: Optional[int],
                         quantized: bool, sums: bool = False
                         ) -> Callable[[np.ndarray], np.ndarray]:
        """F16/F32 pipeline with folded epilogue (bias, ReLU, store),
        or with ``sums`` its bias-added GEMM sums folded to NCHW."""
        weights, bias = layer.weights, layer.bias
        if rng is not None:
            lo, hi = rng
            weights = weights[lo:hi]
            bias = bias[lo:hi]
        if isinstance(layer, Conv2D):
            rhs = flatten_filters(weights).T
        else:
            rhs = weights.T
        half = compute is DType.F16
        relu = layer.relu
        shape = self._part_shape(layer, rng)
        out_qparams = self.qparams[name]
        storage_np = self.storage.numpy_dtype

        if half:
            # gemm_f16 unrolled over compile-time-cast operands: the
            # lhs arrives as the exact f32 image of its f16 rounding
            # (see _gemm_lhs_builders), the weight/bias casts are
            # hoisted here, and only the half-precision rounding of
            # the output remains per call.  Arithmetic is identical to
            # gemm_f16(lhs16, rhs16, bias), byte for byte.
            rhs32 = rhs.astype(np.float16).astype(np.float32)
            bias32 = np.asarray(bias, dtype=np.float16).astype(
                np.float32)

            def gemm(lhs: np.ndarray) -> np.ndarray:
                out = lhs @ rhs32
                out += bias32
                return out

            def matmul(lhs: np.ndarray) -> np.ndarray:
                return gemm(lhs).astype(np.float16)
        else:
            def gemm(lhs: np.ndarray) -> np.ndarray:
                return lhs @ rhs + bias

            matmul = gemm

        if sums:
            def run_sums(lhs: np.ndarray) -> np.ndarray:
                return _fold_gemm_output(_matmul_rows(lhs, gemm, chunk),
                                         shape)

            return run_sums

        table = self.store_table(name, relu) if half and quantized else None

        def run(lhs: np.ndarray) -> np.ndarray:
            out_rows = _matmul_rows(lhs, matmul, chunk)
            # Store the rows, then fold the uint8 codes: the store is
            # elementwise, so it commutes with the fold.
            if table is not None:
                return _fold_gemm_output(
                    np.take(table, out_rows.view(np.uint16)), shape)
            if quantized:
                assert out_qparams is not None
                return _fold_gemm_output(
                    quantize_store(out_rows, out_qparams, relu), shape)
            if half:
                out_rows = out_rows.astype(np.float32)
            if relu:
                out_rows = np.maximum(out_rows, 0.0)
            folded = _fold_gemm_output(out_rows, shape)
            if folded.dtype == storage_np:
                return folded
            return folded.astype(storage_np)

        return run

    # -- the direct 1x1 lowering ---------------------------------------------

    def _direct1x1_builders(self, x_qparams: Optional[QuantParams],
                            in_c: int) -> Dict[str, PrepareFn]:
        """Float activation-side lowerings of the direct 1x1 path: the
        ``(N, C, H*W)`` view of the input, dequantized per compute
        pipeline (the NCHW mirror of _gemm_lhs_builders)."""
        batch = self.batch
        builders: Dict[str, PrepareFn] = {}
        if self.storage is DType.QUINT8:
            assert x_qparams is not None
            lut_half = dequantize_lut(x_qparams).astype(np.float32)

            def build_half(x: np.ndarray) -> np.ndarray:
                return np.take(lut_half, x, mode="wrap").reshape(
                    batch, in_c, -1)

            builders["nchw_half"] = build_half
            builders["nchw_half_f32"] = build_half
        else:
            def build_f16(x: np.ndarray) -> np.ndarray:
                return (x.astype(np.float32).astype(np.float16)
                        .astype(np.float32).reshape(batch, in_c, -1))

            def build_f32(x: np.ndarray) -> np.ndarray:
                return x.astype(np.float32).reshape(batch, in_c, -1)

            builders["nchw_f16"] = build_f16
            builders["nchw_f32"] = build_f32
        return builders

    def _direct1x1_part(self, name: str, layer: _GemmLayer,
                        resource: str, rng: Optional[Tuple[int, int]],
                        sums: bool = False
                        ) -> Tuple[str,
                                   Callable[[np.ndarray], np.ndarray]]:
        """(lhs variant, bound kernel) of one float part of the direct
        NCHW GEMM lowering of a 1x1 conv.

        A 1x1/stride-1/no-padding conv's im2col is a pure transpose,
        and its NHWC output fold is the inverse transpose -- so each
        float part collapses to ``W (oc, C) @ X (N, C, H*W)`` on the
        native layout, skipping both copies.  Integer parts keep the
        reference's own kernels: at k=1 the shifted-tap GEMM already
        is this direct GEMM.
        """
        compute = self.policy.compute_dtype(resource)
        if self.storage is DType.QUINT8:
            variant = ("nchw_half" if compute is DType.F16
                       else "nchw_half_f32")
            return variant, self._direct1x1_float_part(
                name, layer, rng, compute, quantized=True, sums=sums)
        variant = "nchw_f16" if compute is DType.F16 else "nchw_f32"
        return variant, self._direct1x1_float_part(
            name, layer, rng, compute, quantized=False, sums=sums)

    def _direct1x1_float_part(
            self, name: str, layer: _GemmLayer,
            rng: Optional[Tuple[int, int]], compute: DType,
            quantized: bool, sums: bool = False
    ) -> Callable[[np.ndarray], np.ndarray]:
        weights, bias = layer.weights, layer.bias
        if rng is not None:
            lo, hi = rng
            weights = weights[lo:hi]
            bias = bias[lo:hi]
        out_c, in_c = weights.shape[0], weights.shape[1]
        w2d = weights.reshape(out_c, in_c)
        half = compute is DType.F16
        relu = layer.relu
        shape = self._part_shape(layer, rng)
        out_qparams = self.qparams[name]
        storage_np = self.storage.numpy_dtype
        if half:
            w32 = w2d.astype(np.float16).astype(np.float32)
            bias32 = np.asarray(bias, dtype=np.float16).astype(
                np.float32)
        else:
            w32 = np.ascontiguousarray(w2d)
            bias32 = np.asarray(bias)

        if sums:
            def run_sums(lhs: np.ndarray) -> np.ndarray:
                return (np.matmul(w32, lhs)
                        + bias32[:, None]).reshape(shape)

            return run_sums

        table = self.store_table(name, relu) if half and quantized else None

        def run(lhs: np.ndarray) -> np.ndarray:
            rows = np.matmul(w32, lhs)
            if table is not None:
                rows += bias32[:, None]
                halves = rows.astype(np.float16).view(np.uint16)
                return np.take(table, halves).reshape(shape)
            rows = rows + bias32[:, None]
            if half:
                rows = rows.astype(np.float16)
            if quantized:
                assert out_qparams is not None
                return quantize_store(rows, out_qparams,
                                      relu).reshape(shape)
            if half:
                rows = rows.astype(np.float32)
            if relu:
                rows = np.maximum(rows, 0.0)
            out = rows.reshape(shape)
            if out.dtype == storage_np:
                return out
            return out.astype(storage_np)

        return run

    # -- depthwise convolution ------------------------------------------------

    def lower_depthwise(self, name: str) -> Tuple[StepFn, str]:
        layer = self.graph.layer(name)
        assert isinstance(layer, DepthwiseConv2D)
        if layer.weights is None or layer.bias is None:
            raise PlanError(f"layer {name!r} has no weights")
        self.weight_refs.append((name, layer.weights, layer.bias))
        (producer,) = self.graph.inputs_of(name)
        x_qparams = self.qparams[producer]
        in_shape = self.out_shape(producer)
        parts_meta = self.placement_parts(name)
        # Channel-independent: identical pipelines may lower unsplit.
        computes = {self.policy.compute_dtype(resource)
                    for resource, _ in parts_meta}
        if len(computes) == 1:
            parts_meta = ((parts_meta[0][0], None),)
        columns_builders = self._depthwise_columns_builders(
            layer, x_qparams, in_shape)
        parts = [self._depthwise_part(name, layer, resource, rng,
                                      x_qparams, in_shape)
                 for resource, rng in parts_meta]
        return (self._depthwise_fn(parts, columns_builders,
                                   int(in_shape[1])), "reference")

    def _depthwise_fn(
            self, parts: List[Tuple[Optional[str],
                                    Optional[Tuple[int, int]],
                                    Callable[[np.ndarray], np.ndarray]]],
            columns_builders: Dict[str, PrepareFn],
            channels_total: int) -> StepFn:
        """The step fn over one set of depthwise parts.

        A part whose column variant is ``None`` (the integer
        :func:`~repro.kernels.depthwise_rows` kernel) reads the step
        input itself; the others share one im2col column matrix per
        variant, built on first use.
        """

        def fn(inputs: List[np.ndarray]) -> np.ndarray:
            (x,) = inputs
            cols_cache: Dict[str, np.ndarray] = {}
            outs = []
            for variant, rng, part in parts:
                if variant is None:
                    outs.append(part(x))
                    continue
                cols = cols_cache.get(variant)
                if cols is None:
                    cols = columns_builders[variant](x)
                    cols_cache[variant] = cols
                outs.append(part(self._slice_columns(
                    cols, rng, channels_total)))
            if len(outs) == 1:
                return outs[0]
            return np.concatenate(outs, axis=1)

        return fn

    def _slice_columns(self, columns: np.ndarray,
                       rng: Optional[Tuple[int, int]],
                       channels_total: int) -> np.ndarray:
        """One placement's channel slice of the full column matrix
        (bit-exact against lowering the part's channel slice, as the
        interpreter does: each channel is an independent image)."""
        if rng is None or rng == (0, channels_total):
            return columns
        lo, hi = rng
        patches, kk = columns.shape[1], columns.shape[2]
        view = columns.reshape(self.batch, channels_total, patches,
                               kk)[:, lo:hi]
        return np.ascontiguousarray(view).reshape(
            self.batch * (hi - lo), patches, kk)

    def _depthwise_columns_builders(
            self, layer: DepthwiseConv2D,
            x_qparams: Optional[QuantParams],
            in_shape: Tuple[int, ...]
    ) -> Dict[str, PrepareFn]:
        in_h, in_w = int(in_shape[2]), int(in_shape[3])
        builders: Dict[str, PrepareFn] = {}

        def lower(values: np.ndarray, pad: float) -> np.ndarray:
            n, c = values.shape[0], values.shape[1]
            return im2col(values.reshape(n * c, 1, in_h, in_w),
                          layer.kernel, layer.stride, layer.padding,
                          pad_value=pad)

        if self.storage is DType.QUINT8:
            assert x_qparams is not None
            pad = float(x_qparams.zero_point)

            def build_codes(x: np.ndarray) -> np.ndarray:
                return lower(x, pad)

            builders["codes"] = build_codes
        else:
            def float_values(x: np.ndarray, half: bool) -> np.ndarray:
                values = x.astype(np.float32)
                if half:
                    values = values.astype(np.float16).astype(np.float32)
                return values

            def build_f16f(x: np.ndarray) -> np.ndarray:
                return lower(float_values(x, True), 0.0)

            def build_f32f(x: np.ndarray) -> np.ndarray:
                return lower(float_values(x, False), 0.0)

            builders["f16f"] = build_f16f
            builders["f32f"] = build_f32f
        return builders

    def _depthwise_part(self, name: str, layer: DepthwiseConv2D,
                        resource: str, rng: Optional[Tuple[int, int]],
                        x_qparams: Optional[QuantParams],
                        in_shape: Tuple[int, ...]
                        ) -> Tuple[Optional[str], Optional[Tuple[int, int]],
                                   Callable[[np.ndarray], np.ndarray]]:
        compute = self.policy.compute_dtype(resource)
        total = int(in_shape[1])
        lo, hi = (0, total) if rng is None else rng
        channels = hi - lo
        batch = self.batch
        in_h, in_w = int(in_shape[2]), int(in_shape[3])
        out_h, out_w = conv_output_hw(in_h, in_w, layer.kernel,
                                      layer.stride, layer.padding)
        bias = layer.bias[lo:hi]
        relu = layer.relu
        out_qparams = self.qparams[name]
        storage_np = self.storage.numpy_dtype

        if self.storage is DType.QUINT8 and compute is DType.QUINT8:
            assert x_qparams is not None and out_qparams is not None
            weight_codes, w_qparams = self.quantized_weights(
                layer.weights)
            taps = pack_depthwise_taps(weight_codes[lo:hi],
                                       w_qparams.zero_point)
            bias_i32 = quantize_bias(bias, x_qparams.scale,
                                     w_qparams.scale).reshape(-1, 1, 1)
            requantizer = Requantizer.prepare(
                x_qparams.scale, w_qparams.scale, out_qparams, relu)
            x_zero = x_qparams.zero_point

            def run_int(x: np.ndarray) -> np.ndarray:
                return requantizer(depthwise_rows(
                    x[:, lo:hi], taps, bias_i32, layer.stride,
                    layer.padding, x_zero))

            return None, rng, run_int

        # Float compute (uniform float or F16-over-quantized storage).
        half = compute is DType.F16
        w = layer.weights[lo:hi]
        if half:
            w = w.astype(np.float16).astype(np.float32)
        filters = np.tile(w.reshape(channels, -1), (batch, 1))
        if self.storage is DType.QUINT8:
            # The depthwise float lowering dequantizes via
            # Tensor.to_float (f32), optionally rounding through f16 --
            # the interpreter's depthwise dequantization table.
            assert x_qparams is not None
            table = x_qparams.dequantize(np.arange(256, dtype=np.uint8))
            if half:
                table = table.astype(np.float16).astype(np.float32)
            columns_variant = "codes"
        else:
            table = None
            columns_variant = "f16f" if half else "f32f"
        store = (self.store_table(name, relu)
                 if half and self.storage is DType.QUINT8 else None)

        def run_float(columns: np.ndarray) -> np.ndarray:
            if table is not None:
                columns = np.take(table, columns, mode="wrap")
            out = np.einsum("npk,nk->np", columns, filters)
            out = out.reshape(batch, channels, out_h, out_w)
            out = out + bias[None, :, None, None]
            if store is not None:
                return np.take(store,
                               out.astype(np.float16).view(np.uint16))
            if self.storage is DType.QUINT8:
                assert out_qparams is not None
                return quantize_store(out.astype(np.float32, copy=False),
                                      out_qparams, relu)
            if half:
                out = out.astype(np.float16).astype(np.float32)
            if relu:
                out = np.maximum(out, 0.0)
            out = out.astype(np.float32)
            if out.dtype == storage_np:
                return out
            return out.astype(storage_np)

        return columns_variant, rng, run_float

    # -- placement-invariant layers -------------------------------------------

    def lower_invariant(self, name: str) -> StepFn:
        layer = self.graph.layer(name)
        producers = tuple(self.graph.inputs_of(name))
        if self.storage is not DType.QUINT8:
            storage_np = self.storage.numpy_dtype

            def fn_float(inputs: List[np.ndarray]) -> np.ndarray:
                values = [a.astype(np.float32) for a in inputs]
                out = np.asarray(layer.forward_f32(values),
                                 dtype=np.float32)
                if out.dtype == storage_np:
                    return out
                return out.astype(storage_np)

            return fn_float

        kind = layer.kind
        in_qps = [self.qparams[p] for p in producers]
        out_qparams = self.qparams[name]
        if kind is LayerKind.MAX_POOL:
            # max_pool preserves the uint8 code dtype, so no store
            # conversion is needed (max over codes == max over reals
            # under one monotone affine quantization).
            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                (x,) = inputs
                return max_pool(x, layer.kernel, layer.stride,
                                layer.padding)
            return fn
        if kind is LayerKind.RELU:
            in_qp = in_qps[0]
            assert in_qp is not None
            zero_code = np.uint8(in_qp.zero_point)

            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                return np.maximum(inputs[0], zero_code)
            return fn
        if kind is LayerKind.FLATTEN:
            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                (x,) = inputs
                return x.reshape(x.shape[0], -1)
            return fn
        codes256 = np.arange(256, dtype=np.uint8)
        if kind is LayerKind.AVG_POOL:
            in_qp = in_qps[0]
            assert in_qp is not None
            zero_point = in_qp.zero_point
            # Zero-point removal is elementwise on the 256 code values,
            # so it compiles to one table gather.
            centered = (codes256.astype(np.float32)
                        - np.float32(float(zero_point)))

            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                (x,) = inputs
                values = layer.forward_f32([np.take(centered, x,
                                                    mode="wrap")])
                return np.clip(np.round(values + zero_point),
                               0, 255).astype(np.uint8)
            return fn
        if kind is LayerKind.CONCAT:
            assert out_qparams is not None
            out_shape = self.out_shape(name)
            axis = layer.axis % len(out_shape)
            # quantize(dequantize(code)) is an elementwise function of
            # the uint8 code, so each input's rescaling into the output
            # range is a precomputed 256-entry remap -- byte-identical
            # to the functional path's dequantize/quantize round trip --
            # gathered straight into its slice of one output.
            remaps = []
            slices = []
            lo = 0
            for producer, qp in zip(producers, in_qps):
                assert qp is not None
                remaps.append(out_qparams.quantize(
                    qp.dequantize(codes256)))
                hi = lo + self.out_shape(producer)[axis]
                slices.append((slice(None),) * axis + (slice(lo, hi),))
                lo = hi

            def fn(inputs: List[np.ndarray]) -> np.ndarray:
                out = np.empty(out_shape, dtype=np.uint8)
                for a, remap, index in zip(inputs, remaps, slices):
                    np.take(remap, a, out=out[index], mode="wrap")
                return out
            return fn
        # ADD / SOFTMAX / LRN: dequantize (one table gather per input),
        # float reference, requantize in place.
        assert out_qparams is not None
        tables = []
        for qp in in_qps:
            assert qp is not None
            tables.append(qp.dequantize(codes256))

        def fn(inputs: List[np.ndarray]) -> np.ndarray:
            values = [np.take(table, a, mode="wrap")
                      for a, table in zip(inputs, tables)]
            return quantize_store(layer.forward_f32(values),
                                  out_qparams)
        return fn

    # -- inputs ---------------------------------------------------------------

    def input_spec(self, name: str) -> InputSpec:
        shape = self.out_shape(name)
        if self.storage is DType.QUINT8:
            qp = self.qparams[name]
            assert qp is not None

            def seed(data: np.ndarray) -> np.ndarray:
                return quantize_store(
                    np.asarray(data, dtype=np.float32), qp)
        else:
            storage_np = self.storage.numpy_dtype

            def seed(data: np.ndarray) -> np.ndarray:
                return np.asarray(data,
                                  dtype=np.float32).astype(storage_np)
        return InputSpec(layer=name, shape=shape, fn=seed)

    # -- driver ---------------------------------------------------------------

    def lower(self, mechanism: str) -> CompiledProgram:
        self.propagate_qparams()
        inputs: List[InputSpec] = []
        steps: List[CompiledStep] = []
        for name in self.graph.topological_order():
            layer = self.graph.layer(name)
            if isinstance(layer, Input):
                inputs.append(self.input_spec(name))
                continue
            if layer.kind in (LayerKind.CONV, LayerKind.FC):
                fn, variant = self.lower_gemm(name)
            elif layer.kind is LayerKind.DEPTHWISE_CONV:
                fn, variant = self.lower_depthwise(name)
            else:
                fn, variant = self.lower_invariant(name), "reference"
            steps.append(CompiledStep(
                layer=name, kind=layer.kind.value,
                placements=self.placement_parts(name),
                dtype=self.storage,
                inputs=tuple(self.graph.inputs_of(name)),
                fn=fn, variant=variant))
        shapes = {name: self.out_shape(name)
                  for name in self.graph.topological_order()}
        dtypes = {name: self.storage for name in shapes}
        return CompiledProgram(
            graph_name=self.graph.name,
            policy_name=self.policy.name,
            mechanism=mechanism,
            batch=self.batch,
            inputs=tuple(inputs),
            steps=tuple(steps),
            outputs=tuple(self.graph.output_layers()),
            arena=plan_arena(self.graph, self.plan, self.batch),
            dtypes=dtypes,
            qparams=dict(self.qparams),
            shapes=shapes,
            graph=self.graph,
            plan=self.plan,
            calibration=self.calibration,
            weight_refs=tuple(self.weight_refs))


def compile_program(graph: Graph, plan: ExecutionPlan,
                    calibration: Optional[CalibrationTable] = None,
                    batch: Optional[int] = None,
                    mechanism: str = "custom",
                    tuner: "Optional[Tuner]" = None) -> CompiledProgram:
    """Lower ``plan`` into a flat, pre-resolved :class:`CompiledProgram`.

    Args:
        graph: the network (must match the plan).
        plan: the execution plan to lower.
        calibration: per-layer activation ranges; required when the
            policy stores activations as QUInt8.
        batch: batch size to specialize for (defaults to the plan's).
            A plan built for batch B > 1 only compiles at batch B; a
            batch-1 plan compiles at any batch.
        mechanism: provenance label recorded on the program.
        tuner: a :class:`~repro.tune.Tuner` that times the lowerings
            which pass the byte check; ``None`` (the default) takes
            ``direct1x1`` wherever it passes and the reference lowering
            elsewhere.

    Returns:
        The compiled program, byte-identical in its outputs to running
        the same plan through the functional executor.
    """
    plan.validate(graph)
    if plan.policy.is_quantized and calibration is None:
        raise QuantizationError(
            "QUInt8 activation storage requires a calibration table "
            "(run repro.nn.calibrate_graph first)")
    chosen = _resolve_batch(plan, batch)
    return _Lowering(graph, plan, calibration, chosen,
                     tuner=tuner).lower(mechanism)
