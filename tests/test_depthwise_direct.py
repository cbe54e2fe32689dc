"""Byte identity of the direct integer depthwise kernel.

The compiled path lowers every integer depthwise part through
:func:`~repro.kernels.depthwise_rows` (``k`` row-GEMMs over one centred
float32 buffer, exact by bound, int32 bias with wrapping); the
interpreter keeps im2col + an exact int64 einsum.  Modular int32
addition is order-independent, so the two must agree byte for byte on
every geometry, zero point, channel slice and bias -- including a bias
that makes the int32 sum wrap.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile import compile_program
from repro.errors import ShapeError
from repro.kernels import (conv_output_hw, depthwise_rows, im2col,
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


def _reference(x, codes, weight_zero, bias, stride, padding,
               input_zero):
    """im2col + an exact int64 einsum, wrapped to int32."""
    batch, channels, height, width = x.shape
    kernel = codes.shape[-1]
    columns = im2col(np.ascontiguousarray(x).reshape(
        batch * channels, 1, height, width), kernel, stride, padding,
        pad_value=float(input_zero))
    lhs = columns.astype(np.int64) - input_zero
    rhs = np.tile(codes.reshape(channels, -1).astype(np.int64)
                  - weight_zero, (batch, 1))
    want = np.einsum("npk,nk->np", lhs, rhs, dtype=np.int64)
    want = want.reshape(batch, channels, -1) + bias.reshape(1, -1, 1)
    out_h, out_w = conv_output_hw(height, width, kernel, stride,
                                  padding)
    return want.astype(np.int32).reshape(batch, channels, out_h, out_w)


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
        exact = int(bias_i32[0]) + 255 * int(taps[0].sum())
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
        self._check_kernel(rng, 2, 3, 2, 1, 2, 5)

    @pytest.mark.parametrize(
        "batch, kernel, stride, padding, lo, hi",
        [(2, 3, 3, 1, 0, 7),       # stride 3, whole input
         (4, 3, 1, 1, 0, 7),       # batch 4
         (3, 5, 2, 2, 3, 4),       # one interior channel
         (1, 17, 1, 8, 1, 6)],     # k > 16: rows add in int32
        ids=["s3", "batch4", "interior", "k17"])
    def test_kernel_geometries_match_im2col_einsum(
            self, rng, batch, kernel, stride, padding, lo, hi):
        self._check_kernel(rng, batch, kernel, stride, padding, lo, hi)

    def test_rows_past_k16_add_in_int32(self):
        """k = 17 at full scale: the 289-tap sum ``289 * 255**2`` is
        odd and above 2**24, so float32 row additions would round it."""
        x = np.full((1, 1, 17, 17), 255, dtype=np.uint8)
        taps = pack_depthwise_taps(np.full((1, 17, 17), 255, np.uint8),
                                   0)
        acc = depthwise_rows(x, taps, np.zeros((1, 1, 1), np.int32), 1,
                             0, 0)
        assert acc.reshape(-1).tolist() == [289 * 255 ** 2]

    @staticmethod
    def _check_kernel(rng, batch, kernel, stride, padding, lo, hi):
        size = max(9, kernel)
        x = rng.integers(0, 256, (batch, 7, size, size - 1)
                         ).astype(np.uint8)
        codes = rng.integers(0, 256, (7, kernel, kernel)
                             ).astype(np.uint8)
        bias = rng.integers(-2 ** 31, 2 ** 31, (hi - lo, 1, 1)
                            ).astype(np.int32)
        acc = depthwise_rows(x[:, lo:hi], pack_depthwise_taps(
            codes[lo:hi], 131), bias, stride, padding, 17)
        want = _reference(x[:, lo:hi], codes[lo:hi], 131, bias,
                          stride, padding, 17)
        assert acc.dtype == np.int32
        assert acc.shape == want.shape
        assert acc.tobytes() == want.tobytes()

    def test_rejects_mismatched_taps(self):
        x = np.zeros((1, 4, 5, 5), dtype=np.uint8)
        taps = pack_depthwise_taps(np.zeros((3, 3, 3), np.uint8), 0)
        bias = np.zeros((4, 1, 1), dtype=np.int32)
        with pytest.raises(ShapeError):
            depthwise_rows(x, taps, bias, 1, 1, 0)
        with pytest.raises(ShapeError):
            depthwise_rows(x[0], taps, bias, 1, 1, 0)
        with pytest.raises(ShapeError):
            pack_depthwise_taps(np.zeros((3, 3, 2), np.uint8), 0)

    def test_rejects_kernel_past_the_row_bound(self):
        """k = 258 keeps every row sum below 2**24; k = 259 does not."""
        assert pack_depthwise_taps(np.zeros((1, 258, 258), np.uint8),
                                   0).shape == (1, 258, 258)
        with pytest.raises(ShapeError):
            pack_depthwise_taps(np.zeros((1, 259, 259), np.uint8), 0)

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
    _assert_compiled_matches_interpreter(graph, x, calibration)


@pytest.mark.parametrize("batch", [2, 4])
def test_mobilenet_mini_batched_byte_identical(mobilenet_mini,
                                               mobilenet_mini_calibration,
                                               batch):
    """mobilenet_mini's stride-1 and stride-2 depthwise steps at batch
    2 and 4 under the processor-friendly plan."""
    rng = np.random.default_rng(batch)
    x = rng.standard_normal((batch, 3, 32, 32)).astype(np.float32)
    _assert_compiled_matches_interpreter(mobilenet_mini, x,
                                         mobilenet_mini_calibration)


def _assert_compiled_matches_interpreter(graph, x, calibration):
    plan = MuLayer(EXYNOS_7420, PROCESSOR_FRIENDLY).plan(graph)
    functional = Executor(EXYNOS_7420).run(
        graph, plan, x=x, calibration=calibration)
    compiled = Executor(EXYNOS_7420).run(
        graph, plan, x=x, calibration=calibration,
        program=compile_program(graph, plan, calibration,
                                batch=x.shape[0]))
    (out,) = graph.output_layers()
    assert (compiled.outputs[out].data.tobytes()
            == functional.outputs[out].data.tobytes())
