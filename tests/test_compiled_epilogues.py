"""Exactness of the compiled path's epilogues.

The compiled program finishes its conv, FC and depthwise parts with
three rewritten epilogues, each required to be byte-identical to the
uncached interpreter's arithmetic:

* integer parts requantize through :class:`Requantizer`, an exact
  float64 form of ``requantize_prepared`` (checked against the
  Python-int pipeline of ``tests/test_quant_linear.py``);
* F16 parts over QUInt8 storage store their rows through a table of
  :func:`quantize_store` over every f16 bit pattern instead of cast,
  ReLU and ``QuantParams.quantize`` (``quantize_store`` is checked on
  every f16 bit pattern here, the table in
  ``tests/test_half_store_table.py``);
* F16 GEMM inputs gather the dequantization table over the input
  before im2col instead of over the column matrix.

The ADD, SOFTMAX and LRN steps and the QUInt8 input seed store through
:func:`quantize_store` too, so a compiled run never calls
``QuantParams.quantize``.

The full-model cases run the real programs against
``Executor(op_caches=False)``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.quant.linear as linear
from repro.compile import compile_program
from repro.kernels import im2col
from repro.kernels.qgemm import EXACT_GEMM_MAX_DEPTH
from repro.models import build_model
from repro.nn import calibrate_graph
from repro.quant import Requantizer, dequantize_lut, quantize_store
from repro.quant.linear import FLOAT_REQUANTIZE_MAX_SHIFT
from repro.runtime import PROCESSOR_FRIENDLY, UNIFORM_QUINT8, MuLayer
from repro.runtime.executor import Executor
from repro.soc import EXYNOS_7420
from repro.tensor import QuantParams

from .test_compiled_identity import _split_plan
from .test_quant_linear import exact_requantize

INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


def _expected(acc, mantissa, shift, zero_point, relu):
    codes = exact_requantize(acc, mantissa, shift, zero_point)
    return np.maximum(codes, np.uint8(zero_point)) if relu else codes


def _probe_accumulators(requantizer, extra=()):
    points = [INT32_MIN, INT32_MAX, 0, 1, -1, *extra]
    if requantizer.window is not None:
        for end in requantizer.window:
            points += [end + delta for delta in range(-3, 4)]
    return np.clip(np.array(points, dtype=np.int64), INT32_MIN,
                   INT32_MAX).astype(np.int32)


class TestRequantizer:
    @settings(max_examples=400, deadline=None)
    @given(mantissa=st.integers(1 << 30, (1 << 31) - 1),
           shift=st.integers(-3, 40),
           zero_point=st.integers(0, 255),
           relu=st.booleans(),
           extra=st.lists(st.integers(INT32_MIN, INT32_MAX),
                          max_size=16))
    def test_matches_exact_integer_pipeline(self, mantissa, shift,
                                            zero_point, relu, extra):
        output = QuantParams(scale=0.1, zero_point=zero_point)
        requantizer = Requantizer.from_multiplier(mantissa, shift, output,
                                                  relu)
        acc = _probe_accumulators(requantizer, extra)
        got = requantizer(acc.copy())
        assert got.dtype == np.uint8
        assert got.tobytes() == _expected(acc, mantissa, shift,
                                          zero_point, relu).tobytes()

    @pytest.mark.parametrize("shift",
                             range(FLOAT_REQUANTIZE_MAX_SHIFT + 1))
    def test_float_form_covers_shifts_0_to_13(self, shift):
        rng = np.random.default_rng(shift)
        for mantissa in [1 << 30, (1 << 31) - 1] + [
                int(m) for m in rng.integers(1 << 30, 1 << 31, 2)]:
            for zero_point in (0, 2, 128, 254, 255):
                output = QuantParams(scale=0.1, zero_point=zero_point)
                for relu in (False, True):
                    requantizer = Requantizer.from_multiplier(
                        mantissa, shift, output, relu)
                    assert requantizer.window is not None
                    lo, hi = requantizer.window
                    acc = np.concatenate([
                        _probe_accumulators(requantizer),
                        np.arange(lo - 2, lo + 100),
                        rng.integers(lo - 1000, hi + 1000, 500),
                    ]).astype(np.int32)
                    assert requantizer(acc.copy()).tobytes() == \
                        _expected(acc, mantissa, shift, zero_point,
                                  relu).tobytes()

    @pytest.mark.parametrize("shift", [-3, -1, 14, 31, 32, 40])
    def test_other_shifts_use_the_definition(self, shift):
        requantizer = Requantizer.from_multiplier(
            (1 << 31) - 1, shift, QuantParams(scale=0.1, zero_point=9))
        assert requantizer.window is None

    def test_sign_jump_next_to_a_saturated_end_falls_back(self):
        # Shift 0, zero point 1: the code goes 0 -> 1 between
        # accumulators -1 and 0 while the unclamped value jumps
        # -1 -> 1, so no clamp window keeps its ends unsaturated.
        mantissa = (1 << 31) - 5
        output = QuantParams(scale=0.1, zero_point=1)
        plain = Requantizer.from_multiplier(mantissa, 0, output)
        assert plain.window is None
        with_relu = Requantizer.from_multiplier(mantissa, 0, output,
                                                relu=True)
        assert with_relu.window is not None
        acc = np.arange(-5, 6, dtype=np.int32)
        for requantizer, relu in ((plain, False), (with_relu, True)):
            assert requantizer(acc.copy()).tobytes() == _expected(
                acc, mantissa, 0, 1, relu).tobytes()

    def test_relu_window_starts_at_zero(self):
        requantizer = Requantizer.prepare(0.02, 0.004,
                                          QuantParams(0.0627, 128),
                                          relu=True)
        assert requantizer.window is not None
        assert requantizer.window[0] == 0


class TestQuantizeStore:
    HALVES = np.arange(1 << 16, dtype=np.uint32).astype(
        np.uint16).view(np.float16)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("relu", [False, True])
    def test_every_f16_bit_pattern(self, seed, relu):
        rng = np.random.default_rng(seed)
        output = QuantParams(scale=float(rng.uniform(1e-3, 0.5)),
                             zero_point=int(rng.integers(0, 256)))
        values = self.HALVES
        assert np.isinf(values).sum() == 2
        wide = values.astype(np.float32)
        with np.errstate(invalid="ignore"):
            want = output.quantize(np.maximum(wide, 0) if relu else wide)
            got = quantize_store(values, output, relu)
        assert got.dtype == np.uint8
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("relu", [False, True])
    def test_float32_rows(self, relu):
        rng = np.random.default_rng(5)
        output = QuantParams(scale=0.037, zero_point=101)
        values = (rng.standard_normal(5000) * 6).astype(np.float32)
        want = output.quantize(np.maximum(values, 0) if relu else values)
        assert quantize_store(values, output, relu).tobytes() == \
            want.tobytes()


class TestGatherBeforeIm2col:
    @pytest.mark.parametrize("kernel", range(1, 8))
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_identity(self, kernel, stride):
        rng = np.random.default_rng(10 * kernel + stride)
        output = QuantParams(scale=0.05, zero_point=int(
            rng.integers(0, 256)))
        lut = dequantize_lut(output).astype(np.float32)
        assert lut[output.zero_point] == 0.0
        assert not np.signbit(lut[output.zero_point])
        x = rng.integers(0, 256, (2, 3, 9, 11)).astype(np.uint8)
        for padding in range(kernel):
            gathered_first = im2col(lut[x], kernel, stride, padding,
                                    pad_value=0.0)
            columns_first = lut[im2col(x, kernel, stride, padding,
                                       pad_value=output.zero_point)]
            assert gathered_first.tobytes() == columns_first.tobytes()


def _closure_arrays(fn):
    """Every numpy array reachable from ``fn`` through closures and
    containers (objects are not entered)."""
    seen, arrays, stack = set(), [], [fn]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            for cell in obj.__closure__:
                try:
                    stack.append(cell.cell_contents)
                except ValueError:      # an empty cell
                    pass
    return arrays


def test_integer_gemm_parts_hold_one_packed_operand(squeezenet_mini,
                                                    mini_input):
    """The dgemm path reads only the float64 weight codes, so no step
    may also keep their int32 widening alive."""
    calibration = calibrate_graph(squeezenet_mini, [mini_input])
    program = MuLayer(EXYNOS_7420, compiled=True).program(
        squeezenet_mini, calibration=calibration, batch=1)
    f64_shapes = set()
    for step in program.steps:
        if step.kind != "conv":
            continue
        arrays = _closure_arrays(step.fn)
        f64 = {a.shape for a in arrays
               if a.dtype == np.float64 and a.ndim == 2}
        i32 = {a.shape for a in arrays
               if a.dtype == np.int32 and a.ndim == 2
               and a.shape[0] > 1}
        assert not f64 & i32, step.layer
        f64_shapes |= f64
    assert f64_shapes     # the dgemm path is exercised
    assert all(shape[0] <= EXACT_GEMM_MAX_DEPTH for shape in f64_shapes)


#: The kernels of each full model's cooperative (CPU integer + GPU F16)
#: conv steps under the processor-friendly policy.
COOPERATIVE_KERNELS = {"squeezenet": {1, 3}, "mobilenet": {1},
                       "googlenet": {3, 7}}


@pytest.mark.parametrize("model", sorted(COOPERATIVE_KERNELS))
def test_full_model_pfq_matches_uncached_interpreter(model, monkeypatch):
    """Full models under the processor-friendly policy, cooperative
    F16 parts and the direct1x1 lowering included.  The compiled run
    calls no ``requantize_prepared`` (every shift is in [0, 13]); the
    interpreter still does."""
    graph = build_model(model)
    shape = graph.infer_shapes()[graph.input_layers()[0]]
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1,) + tuple(shape[1:])).astype(np.float32)
    calibration = calibrate_graph(graph, [x])
    program = MuLayer(EXYNOS_7420, compiled=True).program(
        graph, calibration=calibration, batch=1)
    cooperative = {graph.layer(step.layer).kernel
                   for step in program.steps
                   if step.kind == "conv" and len(step.placements) > 1}
    assert cooperative == COOPERATIVE_KERNELS[model]
    # Each model runs 1x1 convs with GPU F16 parts, and the untuned
    # compiler takes direct1x1 wherever it passes its byte check (how
    # many depends on the host BLAS).
    assert program.variant_histogram().get("direct1x1", 0) >= 1

    calls = []
    definition = linear.requantize_prepared

    def counting(*args, **kwargs):
        calls.append(1)
        return definition(*args, **kwargs)

    monkeypatch.setattr(linear, "requantize_prepared", counting)
    compiled = program.run(x, keep="outputs")
    assert not calls
    interpreted = Executor(EXYNOS_7420, op_caches=False).run(
        graph, program.plan, x=x, calibration=calibration,
        mechanism="mulayer", batch=1)
    assert calls
    for name in graph.output_layers():
        assert compiled[name].data.tobytes() == \
            interpreted.outputs[name].data.tobytes(), name


#: Models whose float-reference steps the quantized store covers.
FLOAT_REFERENCE_KINDS = {"alexnet_mini": {"lrn", "softmax"},
                         "resnet_mini": {"add"}}


@pytest.mark.parametrize("policy", [PROCESSOR_FRIENDLY, UNIFORM_QUINT8],
                         ids=["pfq", "quint8"])
@pytest.mark.parametrize("model", sorted(FLOAT_REFERENCE_KINDS))
def test_compiled_run_never_calls_qparams_quantize(model, policy,
                                                   monkeypatch):
    """LRN, softmax, ADD and the input seed store through
    ``quantize_store``; the bytes still match the uncached
    interpreter, which keeps ``QuantParams.quantize``."""
    graph = build_model(model)
    shape = graph.infer_shapes()[graph.input_layers()[0]]
    x = np.random.default_rng(11).standard_normal(shape).astype(
        np.float32)
    calibration = calibrate_graph(graph, [x])
    plan = _split_plan(graph, policy)
    program = compile_program(graph, plan, calibration)
    assert FLOAT_REFERENCE_KINDS[model] <= {
        step.kind for step in program.steps}

    def forbidden(self, real):
        raise AssertionError("QuantParams.quantize on the compiled path")

    monkeypatch.setattr(QuantParams, "quantize", forbidden)
    compiled = program.run(x, keep="outputs")
    monkeypatch.undo()
    interpreted = Executor(EXYNOS_7420).run(graph, plan, x=x,
                                            calibration=calibration)
    for name in graph.output_layers():
        assert compiled[name].data.tobytes() == \
            interpreted.outputs[name].data.tobytes(), name
