"""Byte identity of the shifted-tap integer convolution.

The compiled path lowers every stride-1 integer conv part whose float32
sums are provably exact (:func:`~repro.kernels.exact_in_f32`) through
:func:`~repro.kernels.conv_shifted`: one GEMM per filter tap over a
shifted view of one centred, zero-padded float32 copy of the input.
Parts that fail the bound keep im2col + ``qgemm_fused``.  The uncached
interpreter (``Executor(SOC)``) keeps im2col + an exact integer GEMM,
so the two must agree byte for byte on every geometry, zero point,
placement and batch -- on both sides of the bound, and across a
``set_weights`` that moves a layer from one side to the other.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compile.compiler as compiler
from repro.compile import compile_program
from repro.errors import ShapeError
from repro.kernels import (conv_shifted, exact_in_f32, im2col,
                           pack_shifted_taps, shifted_input)
from repro.kernels.shifted import F32_EXACT_LIMIT
from repro.nn import Graph
from repro.nn.layers import Conv2D, Input
from repro.quant import CalibrationTable
from repro.runtime import MuLayer, PROCESSOR_FRIENDLY, UNIFORM_QUINT8
from repro.runtime.executor import Executor
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.soc import EXYNOS_7420_NPU
from repro.tensor import QuantParams

SOC = EXYNOS_7420_NPU

#: Placements of the one conv layer: whole on the CPU, a CPU/GPU split
#: (integer part on the leading channel slice), and a CPU/NPU/GPU
#: split (an integer part on an interior slice).
PLACEMENTS = {
    "cpu": lambda name: LayerAssignment.on_cpu(name),
    "split": lambda name: LayerAssignment.cooperative(name, 0.5),
    "three_way": lambda name: LayerAssignment.cooperative(
        name, 0.4, npu_split=0.3),
}


def _conv_graph(batch, in_c, out_c, height, width, kernel, padding,
                relu, weights, bias):
    graph = Graph("shifted")
    graph.add(Input("input", (batch, in_c, height, width)))
    layer = Conv2D("conv", in_c, out_c, kernel, 1, padding, relu=relu)
    layer.set_weights(weights, bias)
    graph.add(layer, ["input"])
    return graph


def _calibration(in_qparams, out_qparams):
    table = CalibrationTable()
    table.set("input", in_qparams)
    table.set("conv", out_qparams)
    return table


def _plan(graph, policy, placement):
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments={"conv": PLACEMENTS[placement](
                             "conv")})


def _input(codes, in_qparams):
    """Float input whose quantization is ``codes``."""
    return in_qparams.dequantize(codes).astype(np.float32)


def _compiled_and_oracle(graph, plan, calibration, x):
    program = compile_program(graph, plan, calibration,
                              batch=x.shape[0])
    compiled = Executor(SOC).run(graph, plan, x=x,
                                 calibration=calibration,
                                 program=program)
    oracle = Executor(SOC).run(graph, plan, x=x, calibration=calibration)
    return (compiled.outputs["conv"].data, oracle.outputs["conv"].data)


class _Spy:
    """Counts the compiled path's calls to the two lowerings' input
    builders: ``shifted_input`` (shifted taps) and ``im2col``."""

    def __init__(self, monkeypatch):
        self.calls = {"shifted_input": 0, "im2col": 0}
        for name in self.calls:
            monkeypatch.setattr(compiler, name,
                                self._counting(name,
                                               getattr(compiler, name)))

    def _counting(self, name, fn):
        def counting(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counting


@st.composite
def conv_cases(draw):
    """A stride-1 conv, its input, quantization and placement: kernels
    1-7, padding 0..k-1, maps down to 1x1, 1 or an odd prime of input
    and output channels, batch 1-4, input zero points over 0-255 and
    weight ranges that put the weight zero point anywhere in 0-255."""
    kernel = draw(st.integers(1, 7))
    padding = draw(st.integers(0, kernel - 1))
    low = max(1, kernel - 2 * padding)
    height = draw(st.integers(low, low + 5))
    width = draw(st.integers(low, low + 5))
    batch = draw(st.integers(1, 4))
    in_c = draw(st.sampled_from([1, 3, 5, 7, 11]))
    out_c = draw(st.sampled_from([1, 3, 5, 7, 11]))
    placement = draw(st.sampled_from(
        ["cpu"] if out_c == 1 else sorted(PLACEMENTS)))
    policy = draw(st.sampled_from([PROCESSOR_FRIENDLY, UNIFORM_QUINT8]))
    relu = draw(st.booleans())
    in_zero = draw(st.integers(0, 255))
    # The weights span [-negative, 1 - negative]: the weight zero
    # point lands near 255 * negative.
    negative = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights = (rng.uniform(0.0, 1.0, (out_c, in_c, kernel, kernel))
               - negative).astype(np.float32)
    bias = rng.standard_normal(out_c)
    in_qparams = QuantParams(scale=0.05, zero_point=in_zero)
    codes = rng.integers(0, 256, (batch, in_c, height, width)
                         ).astype(np.uint8)
    graph = _conv_graph(batch, in_c, out_c, height, width, kernel,
                        padding, relu, weights, bias)
    calibration = _calibration(in_qparams,
                               QuantParams.from_range(-3.0, 3.0))
    return (graph, _plan(graph, policy, placement), calibration,
            _input(codes, in_qparams))


class TestShiftedConvIdentity:
    """The compiled shifted-tap kernel against the uncached
    interpreter."""

    @given(conv_cases())
    @settings(max_examples=150, deadline=None)
    def test_byte_identical_to_interpreter(self, case):
        graph, plan, calibration, x = case
        compiled, oracle = _compiled_and_oracle(graph, plan,
                                                calibration, x)
        assert compiled.dtype == np.uint8
        assert compiled.shape == oracle.shape
        assert compiled.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    def test_bound_failure_falls_back_to_im2col(self, placement,
                                                monkeypatch):
        """Weight codes at 0 and 255 over 31 channels of a 7x7 kernel
        break the float32 bound; the part keeps im2col and stays
        byte-identical."""
        rng = np.random.default_rng(11)
        in_c, out_c, kernel = 31, 5, 7
        weights = rng.choice(np.array([-1.0, 1.0], dtype=np.float32),
                             (out_c, in_c, kernel, kernel))
        in_qparams = QuantParams(scale=0.05, zero_point=200)
        graph = _conv_graph(2, in_c, out_c, 9, 8, kernel, 3, True,
                            weights, rng.standard_normal(out_c))
        layer = graph.layer("conv")
        w_qparams = QuantParams.from_array(layer.weights)
        assert not exact_in_f32(w_qparams.quantize(layer.weights),
                                w_qparams.zero_point,
                                in_qparams.zero_point)
        calibration = _calibration(in_qparams,
                                   QuantParams.from_range(-40.0, 40.0))
        spy = _Spy(monkeypatch)
        x = _input(rng.integers(0, 256, (2, in_c, 9, 8)).astype(np.uint8),
                   in_qparams)
        compiled, oracle = _compiled_and_oracle(
            graph, _plan(graph, UNIFORM_QUINT8, placement), calibration,
            x)
        assert compiled.tobytes() == oracle.tobytes()
        assert spy.calls["shifted_input"] == 0
        assert spy.calls["im2col"] > 0

    def test_set_weights_across_the_bound_recompiles(self, monkeypatch):
        """Small weights take the shifted kernel; saturated ones
        installed with ``set_weights`` fail the bound, so the program
        recompiled for them takes im2col -- and back again.  Each
        program matches the interpreter byte for byte."""
        rng = np.random.default_rng(5)
        in_c, out_c, kernel = 29, 7, 5
        small = rng.standard_normal((out_c, in_c, kernel, kernel)
                                    ).astype(np.float32)
        saturated = rng.choice(np.array([-1.0, 1.0], dtype=np.float32),
                               (out_c, in_c, kernel, kernel))
        bias = rng.standard_normal(out_c)
        graph = _conv_graph(1, in_c, out_c, 10, 10, kernel, 2, False,
                            small, bias)
        in_qparams = QuantParams(scale=0.05, zero_point=0)
        calibration = _calibration(in_qparams,
                                   QuantParams.from_range(-30.0, 30.0))
        x = _input(rng.integers(0, 256, (1, in_c, 10, 10)
                                ).astype(np.uint8), in_qparams)
        runtime = MuLayer(SOC, policy=UNIFORM_QUINT8, compiled=True)
        spy = _Spy(monkeypatch)
        programs = []
        for weights, path in ((small, "shifted_input"),
                              (saturated, "im2col"),
                              (small, "shifted_input")):
            graph.layer("conv").set_weights(weights, bias)
            for name in spy.calls:
                spy.calls[name] = 0
            result = runtime.run(graph, x, calibration=calibration)
            oracle = Executor(SOC).run(graph, runtime.plan(graph), x=x,
                                       calibration=calibration)
            assert (result.outputs["conv"].data.tobytes()
                    == oracle.outputs["conv"].data.tobytes())
            assert spy.calls[path] > 0
            assert sum(spy.calls.values()) == spy.calls[path]
            programs.append(runtime.program(graph,
                                            calibration=calibration))
        assert programs[0] is not programs[1]
        assert programs[1] is not programs[2]


class TestKernel:
    def test_matches_im2col_int64(self, rng):
        """The raw accumulators equal im2col + an int64 GEMM plus a
        wrapping int32 bias, at batch 3 with padding 2."""
        batch, in_c, out_c, kernel, padding = 3, 5, 7, 5, 2
        x = rng.integers(0, 256, (batch, in_c, 6, 9)).astype(np.uint8)
        codes = rng.integers(0, 256, (out_c, in_c, kernel, kernel)
                             ).astype(np.uint8)
        bias = rng.integers(-2 ** 31, 2 ** 31, (out_c, 1, 1)
                            ).astype(np.int32)
        assert exact_in_f32(codes, 131, 17)
        acc = conv_shifted(shifted_input(x, kernel, padding, 17),
                           pack_shifted_taps(codes, 131), bias, batch,
                           6, 9, kernel, padding)
        columns = im2col(x, kernel, 1, padding, pad_value=17.0)
        lhs = columns.astype(np.int64) - 17
        rhs = codes.reshape(out_c, -1).astype(np.int64) - 131
        want = (lhs @ rhs.T).reshape(batch, 6, 9, out_c)
        want = want.transpose(0, 3, 1, 2) + bias.reshape(1, out_c, 1, 1)
        assert acc.dtype == np.int32
        assert acc.flags.c_contiguous
        assert acc.tobytes() == want.astype(np.int32).tobytes()

    @pytest.mark.parametrize("channels, exact", [(258, True),
                                                 (259, False)])
    def test_exactness_bound_edge(self, channels, exact):
        """255 * 255 * 258 < 2**24 <= 255 * 255 * 259."""
        codes = np.full((2, channels, 1, 1), 255, dtype=np.uint8)
        codes[1] = 0
        assert (255 * 255 * channels < F32_EXACT_LIMIT) is exact
        assert exact_in_f32(codes, 0, 0) is exact
        assert exact_in_f32(codes, 255, 255) is exact

    def test_rejects_mismatched_taps(self):
        x = np.zeros((1, 4, 5, 5), dtype=np.uint8)
        buf = shifted_input(x, 3, 1, 0)
        taps = pack_shifted_taps(np.zeros((2, 3, 3, 3), np.uint8), 0)
        bias = np.zeros((2, 1, 1), dtype=np.int32)
        with pytest.raises(ShapeError):
            conv_shifted(buf, taps, bias, 1, 5, 5, 3, 1)
