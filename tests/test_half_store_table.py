"""The F16 store table and the gathers around it.

An F16 part over QUInt8 storage stores its rows as
``np.take(table, rows.view(np.uint16))``, where the table is
:func:`~repro.quant.linear.half_store_table`: ``quantize_store`` of
all 65,536 float16 bit patterns for the step's output qparams and
ReLU flag.  Here the table is checked against ``quantize_store`` and
against the interpreter's ``QuantParams.quantize`` on every non-NaN
pattern, the compiler is checked to build one table per (qparams,
relu) at most, and the paths that gather through tables -- a
cooperative F16 3x3 conv at batch 2, whose rows are per-sample GEMM
chunks, a mixed depthwise, and a concat of three inputs with
different qparams -- are checked byte for byte against the uncached
interpreter.
"""

import numpy as np
import pytest

import repro.compile.compiler as compiler
from repro.compile import compile_program
from repro.models import build_model
from repro.nn import Graph, calibrate_graph
from repro.nn.layers import Concat, Conv2D, DepthwiseConv2D, Input
from repro.quant import CalibrationTable, quantize_store
from repro.quant.linear import half_store_table
from repro.runtime import MuLayer, PROCESSOR_FRIENDLY, UNIFORM_QUINT8
from repro.runtime.executor import Executor
from repro.runtime.plan import ExecutionPlan, LayerAssignment
from repro.soc import EXYNOS_7420
from repro.tensor import DType, QuantParams

HALVES = np.arange(1 << 16, dtype=np.uint32).astype(
    np.uint16).view(np.float16)
FINITE_OR_INF = ~np.isnan(HALVES)
POS_INF, NEG_INF = 0x7C00, 0xFC00
POS_MAX, NEG_MAX = 0x7BFF, 0xFBFF     # +-65504


@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
@pytest.mark.parametrize("scale", [1e-6, 0.05, 1e3])
@pytest.mark.parametrize("zero_point", [0, 128, 255])
def test_table_is_quantize_store_on_every_pattern(zero_point, scale,
                                                  relu):
    output = QuantParams(scale=scale, zero_point=zero_point)
    table = half_store_table(output, relu)
    assert table.dtype == np.uint8 and table.shape == (1 << 16,)
    values = HALVES[FINITE_OR_INF]
    want = quantize_store(values, output, relu)
    assert table[FINITE_OR_INF].tobytes() == want.tobytes()
    # ...which is the interpreter's cast, ReLU and quantize.
    wide = values.astype(np.float32)
    oracle = output.quantize(np.maximum(wide, 0) if relu else wide)
    assert table[FINITE_OR_INF].tobytes() == oracle.tobytes()
    floor = zero_point if relu else 0
    assert table[POS_INF] == 255 and table[NEG_INF] == floor
    if scale < 1.0:
        assert table[POS_MAX] == 255 and table[NEG_MAX] == floor


def test_store_through_table_matches_quantize_store():
    rng = np.random.default_rng(7)
    output = QuantParams.from_range(-6.0, 6.0)
    rows = (rng.standard_normal((3, 5, 40)) * 4).astype(np.float16)
    table = half_store_table(output, True)
    assert (np.take(table, rows.view(np.uint16)).tobytes()
            == quantize_store(rows, output, True).tobytes())


def _counting_tables(monkeypatch):
    """Record the (qparams, relu) of every table the compiler builds."""
    calls = []

    def counting(output, relu=False):
        calls.append((output, relu))
        return half_store_table(output, relu)

    monkeypatch.setattr(compiler, "half_store_table", counting)
    return calls


def test_googlenet_compile_builds_one_table_per_f16_layer(monkeypatch):
    graph = build_model("googlenet")
    shape = graph.infer_shapes()[graph.input_layers()[0]]
    x = np.random.default_rng(5).standard_normal(shape).astype(
        np.float32)
    calibration = calibrate_graph(graph, [x])
    calls = _counting_tables(monkeypatch)
    program = MuLayer(EXYNOS_7420, compiled=True).program(
        graph, calibration=calibration, batch=1)
    policy = program.plan.policy
    f16_layers = [step.layer for step in program.steps
                  if any(policy.compute_dtype(resource) is DType.F16
                         for resource, _ in step.placements)]
    assert f16_layers
    assert 1 <= len(calls) <= len(f16_layers)
    assert len(set(calls)) == len(calls)


def test_layers_sharing_qparams_get_a_table_per_relu(monkeypatch):
    """Two F16 layers with one output qparams: the memo keeps their
    ReLU flags apart."""
    rng = np.random.default_rng(3)
    graph = Graph("twins")
    graph.add(Input("input", (1, 4, 6, 6)))
    for name, relu in (("plain", False), ("relu", True)):
        layer = Conv2D(name, 4, 4, 1, 1, 0, relu=relu)
        layer.set_weights(
            rng.standard_normal((4, 4, 1, 1)).astype(np.float32),
            np.zeros(4, dtype=np.float32))
        graph.add(layer, ["input"])
    in_qparams = QuantParams.from_range(-1.0, 1.0)
    shared = QuantParams.from_range(-2.0, 2.0)
    calibration = CalibrationTable()
    calibration.set("input", in_qparams)
    calibration.set("plain", shared)
    calibration.set("relu", shared)
    plan = ExecutionPlan(
        graph_name=graph.name, policy=PROCESSOR_FRIENDLY,
        assignments={name: LayerAssignment.cooperative(name, 0.5)
                     for name in ("plain", "relu")})
    calls = _counting_tables(monkeypatch)
    _assert_matches_uncached(graph, plan, calibration,
                             _input_for((1, 4, 6, 6), in_qparams, 4))
    assert sorted(calls, key=lambda call: call[1]) == [(shared, False),
                                                      (shared, True)]


def _assert_matches_uncached(graph, plan, calibration, x):
    program = compile_program(graph, plan, calibration,
                              batch=x.shape[0])
    compiled = program.run(x, keep="all")
    interpreted = Executor(EXYNOS_7420, op_caches=False).run(
        graph, plan, x=x, calibration=calibration)
    for name, expected in interpreted.outputs.items():
        assert (compiled[name].data.tobytes()
                == expected.data.tobytes()), name


def _single_layer_plan(graph, name, policy):
    return ExecutionPlan(
        graph_name=graph.name, policy=policy,
        assignments={name: LayerAssignment.cooperative(name, 0.5)})


def _input_for(shape, qparams, seed):
    codes = np.random.default_rng(seed).integers(0, 256, shape).astype(
        np.uint8)
    return qparams.dequantize(codes).astype(np.float32)


@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
def test_cooperative_f16_3x3_conv_at_batch_2(relu, monkeypatch):
    """The GPU part runs im2col + one GEMM per sample; its f16 rows
    are stored through the table."""
    rng = np.random.default_rng(11)
    graph = Graph("f16conv")
    graph.add(Input("input", (2, 5, 9, 7)))
    layer = Conv2D("conv", 5, 6, 3, 1, 1, relu=relu)
    layer.set_weights(
        (rng.standard_normal((6, 5, 3, 3)) * 0.4).astype(np.float32),
        (rng.standard_normal(6) * 0.1).astype(np.float32))
    graph.add(layer, ["input"])
    in_qparams = QuantParams.from_range(-1.5, 2.0)
    calibration = CalibrationTable()
    calibration.set("input", in_qparams)
    calibration.set("conv", QuantParams.from_range(-2.0, 2.5))
    calls = _counting_tables(monkeypatch)
    _assert_matches_uncached(
        graph, _single_layer_plan(graph, "conv", PROCESSOR_FRIENDLY),
        calibration, _input_for((2, 5, 9, 7), in_qparams, 12))
    assert len(calls) == 1


def test_mixed_depthwise_at_batch_2(monkeypatch):
    rng = np.random.default_rng(13)
    graph = Graph("f16dw")
    graph.add(Input("input", (2, 6, 8, 8)))
    layer = DepthwiseConv2D("dw", 6, 3, 1, 1, relu=True)
    layer.set_weights(
        (rng.standard_normal((6, 3, 3)) * 0.5).astype(np.float32),
        (rng.standard_normal(6) * 0.1).astype(np.float32))
    graph.add(layer, ["input"])
    in_qparams = QuantParams.from_range(-1.0, 1.0)
    calibration = CalibrationTable()
    calibration.set("input", in_qparams)
    calibration.set("dw", QuantParams.from_range(0.0, 1.5))
    calls = _counting_tables(monkeypatch)
    _assert_matches_uncached(
        graph, _single_layer_plan(graph, "dw", PROCESSOR_FRIENDLY),
        calibration, _input_for((2, 6, 8, 8), in_qparams, 14))
    assert len(calls) == 1


@pytest.mark.parametrize("batch", [1, 4])
def test_concat_of_three_inputs_with_different_qparams(batch):
    """Each input is remapped into its channel slice of one output;
    at batch > 1 those slices are strided."""
    rng = np.random.default_rng(17)
    graph = Graph("concat3")
    graph.add(Input("input", (batch, 3, 6, 5)))
    ranges = {"a": (-1.0, 1.0), "b": (0.0, 4.0), "c": (-7.5, 0.5)}
    for name, channels in zip(ranges, (2, 3, 4)):
        layer = Conv2D(name, 3, channels, 1, 1, 0)
        layer.set_weights(
            rng.standard_normal((channels, 3, 1, 1)).astype(np.float32),
            rng.standard_normal(channels).astype(np.float32))
        graph.add(layer, ["input"])
    graph.add(Concat("cat"), list(ranges))
    in_qparams = QuantParams.from_range(-2.0, 2.0)
    calibration = CalibrationTable()
    calibration.set("input", in_qparams)
    for name, (lo, hi) in ranges.items():
        calibration.set(name, QuantParams.from_range(lo, hi))
    calibration.set("cat", QuantParams.from_range(-3.0, 3.0))
    plan = ExecutionPlan(
        graph_name=graph.name, policy=UNIFORM_QUINT8,
        assignments={name: LayerAssignment.on_cpu(name)
                     for name in graph.compute_layers()})
    _assert_matches_uncached(graph, plan, calibration,
                             _input_for((batch, 3, 6, 5), in_qparams,
                                        batch))
