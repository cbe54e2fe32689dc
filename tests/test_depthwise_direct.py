"""Byte identity of the direct integer depthwise kernel.

The compiled path lowers every integer depthwise part through
:func:`~repro.kernels.depthwise_direct` (shifted strided views, int32
accumulation); the interpreter keeps im2col + an exact int64 einsum.
Modular int32 addition is order-independent, so the two must agree
byte for byte on every geometry, zero point, channel slice and bias --
including a bias that makes the int32 sum wrap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_program
from repro.errors import ShapeError
from repro.kernels import (conv_output_hw, depthwise_direct, im2col,
                           pack_depthwise_taps, quantize_bias)
from repro.models import build_model
from repro.nn import Graph, calibrate_graph
from repro.nn.layers import DepthwiseConv2D, Input
from repro.quant import CalibrationTable
from repro.runtime import (LayerComputer, MuLayer, PROCESSOR_FRIENDLY,
                           UNIFORM_QUINT8)
from repro.runtime.executor import Executor
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.soc import EXYNOS_7420
from repro.tensor import DType, QuantParams, Tensor

INT32_MAX = 2 ** 31 - 1

#: Placements of the one depthwise layer: whole on the CPU, a CPU/GPU
#: split (integer part on the leading channel slice), and a
#: CPU/NPU/GPU split (an integer part on an interior slice).
PLACEMENTS = {
    "cpu": lambda name: LayerAssignment.on_cpu(name),
    "split": lambda name: LayerAssignment.cooperative(name, 0.5),
    "three_way": lambda name: LayerAssignment.cooperative(
        name, 0.4, npu_split=0.3),
}


def _depthwise_graph(batch, channels, height, width, kernel, stride,
                     padding, weights, bias):
    graph = Graph("dw")
    graph.add(Input("input", (batch, channels, height, width)))
    layer = DepthwiseConv2D("dw", channels, kernel, stride, padding,
                            relu=True)
    layer.set_weights(weights, bias)
    graph.add(layer, ["input"])
    return graph


def _calibration(in_qparams, out_qparams):
    table = CalibrationTable()
    table.set("input", in_qparams)
    table.set("dw", out_qparams)
    return table


def _compiled_vs_interpreted(graph, calibration, policy, placement,
                             codes):
    """The compiled step's output codes and the uncached
    interpreter's, for the same uint8 input codes."""
    assignment = PLACEMENTS[placement]("dw")
    plan = ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments={"dw": assignment})
    program = compile_program(graph, plan, calibration,
                              batch=codes.shape[0])
    (step,) = program.steps
    compiled = step.fn([codes])
    computer = LayerComputer(graph, policy, calibration)
    x = Tensor(codes, DType.QUINT8, calibration.get("input"))
    if placement == "cpu":
        interpreted = computer.run_full("dw", [x], "cpu")
    else:
        interpreted = computer.run_cooperative_shares(
            "dw", [x], assignment.shares())
    return compiled, interpreted.data


@st.composite
def depthwise_cases(draw):
    """A depthwise layer, its input codes, quantization and placement:
    kernels 1-5 and 7, strides 1-3 (past the kernel too), padding
    0..k-1, maps down to 1x1, 1 or an odd prime of channels, batch
    1-4, input zero points at both ends of the code range."""
    kernel = draw(st.sampled_from([1, 2, 3, 4, 5, 7]))
    stride = draw(st.integers(1, 3))
    padding = draw(st.integers(0, kernel - 1))
    low = max(1, kernel - 2 * padding)
    height = draw(st.integers(low, low + 6))
    width = draw(st.integers(low, low + 6))
    batch = draw(st.integers(1, 4))
    channels = draw(st.sampled_from([1, 3, 5, 7, 11]))
    in_zero = draw(st.sampled_from([0, 255, 128]))
    placement = draw(st.sampled_from(
        ["cpu"] if channels == 1 else sorted(PLACEMENTS)))
    policy = draw(st.sampled_from([PROCESSOR_FRIENDLY, UNIFORM_QUINT8]))
    wrap = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    codes = rng.integers(0, 256, (batch, channels, height, width)
                         ).astype(np.uint8)
    weights = rng.standard_normal((channels, kernel, kernel)
                                  ).astype(np.float32)
    in_qparams = QuantParams(scale=0.05, zero_point=in_zero)
    w_scale = QuantParams.from_array(weights).scale
    if wrap:
        # Within 2**12 accumulator units of INT32_MAX: positive taps
        # can push the int32 sum across it.
        bias = np.full(channels, (INT32_MAX - 2 ** 12)
                       * in_qparams.scale * w_scale)
    else:
        bias = rng.standard_normal(channels)
    out_qparams = QuantParams.from_range(-4.0, 4.0)
    graph = _depthwise_graph(batch, channels, height, width, kernel,
                             stride, padding, weights, bias)
    return (graph, _calibration(in_qparams, out_qparams), policy,
            placement, codes)


class TestDirectDepthwiseIdentity:
    """The compiled direct kernel against the interpreter's uncached
    im2col + int64 einsum path."""

    @given(depthwise_cases())
    @settings(max_examples=200, deadline=None)
    def test_byte_identical_to_interpreter(self, case):
        graph, calibration, policy, placement, codes = case
        compiled, interpreted = _compiled_vs_interpreted(
            graph, calibration, policy, placement, codes)
        assert compiled.dtype == np.uint8
        assert compiled.shape == interpreted.shape
        assert compiled.tobytes() == interpreted.tobytes()

    def test_wrapping_bias_matches(self):
        """All-positive products on a bias just under INT32_MAX: the
        exact sum leaves the int32 range and both paths wrap it."""
        channels, kernel = 3, 3
        weights = np.ones((channels, kernel, kernel), dtype=np.float32)
        weights[:, 0, 0] = -1.0        # weight zero point away from 0
        in_qparams = QuantParams(scale=0.05, zero_point=0)
        w_qparams = QuantParams.from_array(weights)
        bias = np.full(channels, (INT32_MAX - 2 ** 10)
                       * in_qparams.scale * w_qparams.scale)
        graph = _depthwise_graph(1, channels, 4, 4, kernel, 1, 1,
                                 weights, bias)
        codes = np.full((1, channels, 4, 4), 255, dtype=np.uint8)
        taps = pack_depthwise_taps(w_qparams.quantize(weights),
                                   w_qparams.zero_point)
        bias_i32 = quantize_bias(bias, in_qparams.scale,
                                 w_qparams.scale)
        # The centre output sees all nine taps at input code 255.
        exact = int(bias_i32[0]) + 255 * int(taps[:, 0].sum())
        assert exact > INT32_MAX
        calibration = _calibration(in_qparams,
                                   QuantParams.from_range(-4.0, 4.0))
        for placement in ("cpu", "split", "three_way"):
            compiled, interpreted = _compiled_vs_interpreted(
                graph, calibration, PROCESSOR_FRIENDLY, placement,
                codes)
            assert compiled.tobytes() == interpreted.tobytes()

    def test_kernel_matches_im2col_einsum(self, rng):
        """The raw accumulators equal an im2col + int64 einsum wrapped
        to int32, on a channel slice view of the input."""
        x = rng.integers(0, 256, (2, 7, 9, 8)).astype(np.uint8)
        codes = rng.integers(0, 256, (7, 3, 3)).astype(np.uint8)
        taps = pack_depthwise_taps(codes[2:5], 131)
        bias = rng.integers(-2 ** 31, 2 ** 31, (3, 1, 1)
                            ).astype(np.int32)
        acc = depthwise_direct(x[:, 2:5], taps, bias, 3, 2, 1, 17)
        columns = im2col(np.ascontiguousarray(x[:, 2:5]).reshape(
            6, 1, 9, 8), 3, 2, 1, pad_value=17.0)
        lhs = columns.astype(np.int64) - 17
        rhs = np.tile(codes[2:5].reshape(3, 9).astype(np.int64) - 131,
                      (2, 1))
        want = np.einsum("npk,nk->np", lhs, rhs, dtype=np.int64)
        want = want.reshape(2, 3, -1) + bias.reshape(1, 3, 1)
        out_h, out_w = conv_output_hw(9, 8, 3, 2, 1)
        assert acc.dtype == np.int32
        assert acc.shape == (2, 3, out_h, out_w)
        assert acc.tobytes() == want.astype(np.int32).reshape(
            acc.shape).tobytes()

    def test_rejects_mismatched_taps(self):
        x = np.zeros((1, 4, 5, 5), dtype=np.uint8)
        taps = pack_depthwise_taps(np.zeros((3, 3, 3), np.uint8), 0)
        bias = np.zeros((4, 1, 1), dtype=np.int32)
        with pytest.raises(ShapeError):
            depthwise_direct(x, taps, bias, 3, 1, 1, 0)

    def test_compiled_step_builds_no_columns(self, monkeypatch):
        """An all-integer depthwise step never calls im2col."""
        import repro.compile.compiler as compiler
        rng = np.random.default_rng(3)
        weights = rng.standard_normal((5, 3, 3)).astype(np.float32)
        graph = _depthwise_graph(1, 5, 6, 6, 3, 1, 1, weights,
                                 rng.standard_normal(5))
        calibration = _calibration(QuantParams(scale=0.05, zero_point=9),
                                   QuantParams.from_range(-4.0, 4.0))
        plan = ExecutionPlan(graph_name=graph.name,
                             policy=UNIFORM_QUINT8,
                             assignments={"dw": PLACEMENTS["split"]("dw")})
        program = compile_program(graph, plan, calibration)

        def no_im2col(*args, **kwargs):
            raise AssertionError("im2col called on the integer path")

        monkeypatch.setattr(compiler, "im2col", no_im2col)
        codes = rng.integers(0, 256, (1, 5, 6, 6)).astype(np.uint8)
        assert program.steps[0].fn([codes]).shape == (1, 5, 6, 6)


def test_full_mobilenet_pfq_byte_identical():
    """Full-size MobileNet under the processor-friendly plan at batch
    1: the compiled program against the uncached interpreter."""
    graph = build_model("mobilenet")
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 3, 224, 224)).astype(np.float32)
    calibration = calibrate_graph(graph, [x])
    plan = MuLayer(EXYNOS_7420, PROCESSOR_FRIENDLY).plan(graph)
    functional = Executor(EXYNOS_7420).run(
        graph, plan, x=x, calibration=calibration)
    compiled = Executor(EXYNOS_7420).run(
        graph, plan, x=x, calibration=calibration,
        program=compile_program(graph, plan, calibration))
    (out,) = graph.output_layers()
    assert (compiled.outputs[out].data.tobytes()
            == functional.outputs[out].data.tobytes())
