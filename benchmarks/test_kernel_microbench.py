"""Microbenchmarks of the numerical kernels (host wall-clock).

Unlike the figure benchmarks (which report *simulated* SoC time), these
measure the reproduction's own numpy kernels, so regressions in the
functional pipeline show up as real slowdowns.
"""

import numpy as np
import pytest

from repro.kernels import gemm_f16, gemm_f32, im2col, max_pool, qgemm
from repro.tensor import QuantParams

RNG = np.random.default_rng(42)


@pytest.fixture(scope="module")
def conv_input():
    return RNG.standard_normal((1, 64, 56, 56)).astype(np.float32)


def test_bench_im2col(benchmark, conv_input):
    result = benchmark(im2col, conv_input, 3, 1, 1)
    assert result.shape == (1, 56 * 56, 64 * 9)


def test_bench_gemm_f32(benchmark):
    lhs = RNG.standard_normal((3136, 576)).astype(np.float32)
    rhs = RNG.standard_normal((576, 128)).astype(np.float32)
    out = benchmark(gemm_f32, lhs, rhs)
    assert out.shape == (3136, 128)


def test_bench_gemm_f16(benchmark):
    lhs = RNG.standard_normal((3136, 576)).astype(np.float16)
    rhs = RNG.standard_normal((576, 128)).astype(np.float16)
    out = benchmark(gemm_f16, lhs, rhs)
    assert out.dtype == np.float16


def test_bench_qgemm(benchmark):
    lhs_params = QuantParams.from_range(-1.0, 1.0)
    rhs_params = QuantParams.from_range(-0.5, 0.5)
    out_params = QuantParams.from_range(-8.0, 8.0)
    lhs = RNG.integers(0, 256, (3136, 576)).astype(np.uint8)
    rhs = RNG.integers(0, 256, (576, 128)).astype(np.uint8)
    out = benchmark(qgemm, lhs, lhs_params, rhs, rhs_params, out_params)
    assert out.dtype == np.uint8


@pytest.mark.parametrize(
    "shape, kernel, stride, padding",
    [((1, 64, 112, 112), 3, 2, 1),    # googlenet pool1/3x3_s2
     ((1, 256, 28, 28), 3, 1, 1),     # googlenet inception_3b/pool
     ((1, 64, 56, 56), 2, 2, 0)],
    ids=["3s2p1", "3s1p1", "2s2p0"])
def test_bench_max_pool(benchmark, shape, kernel, stride, padding):
    """Max pooling as the maximum over shifted strided views, checked
    byte for byte against a reduction over the window view."""
    from repro.kernels.pooling import _pool_windows
    images = RNG.integers(0, 256, shape).astype(np.uint8)
    out = benchmark(max_pool, images, kernel, stride, padding)
    windows = _pool_windows(images, kernel, stride, padding, 0)
    assert out.tobytes() == windows.max(axis=(-1, -2)).tobytes()


def test_bench_requantize_prepared(benchmark):
    """The int64 requantization epilogue of one 56x56x64 integer GEMM
    step (i32 accumulators to uint8 codes)."""
    from repro.quant import prepare_requantize, requantize_prepared
    out_params = QuantParams.from_range(-8.0, 8.0)
    mantissa, shift = prepare_requantize(0.02, 0.004, out_params)
    acc = RNG.integers(-2 ** 20, 2 ** 20, (3136, 64)).astype(np.int32)
    out = benchmark(requantize_prepared, acc, mantissa, shift,
                    out_params)
    assert out.dtype == np.uint8 and out.shape == acc.shape


#: MobileNet conv1/pw's output (64 channels at 112x112) as GEMM rows.
PW_ROWS = (112 * 112, 64)


@pytest.mark.parametrize("relu", [False, True], ids=["plain", "relu"])
def test_bench_requantizer(benchmark, relu):
    """The compiled path's float64 requantize epilogue on mobilenet
    conv1/pw's output, checked byte for byte against the
    interpreter's ``requantize_prepared`` (plus the ReLU clamp).  The
    epilogue consumes its accumulator, so each round gets a copy made
    outside the timed call; compare against
    test_bench_requantize_prepared."""
    from repro.quant import Requantizer, requantize_prepared
    out_params = QuantParams.from_range(-6.0, 6.0)
    requantizer = Requantizer.prepare(0.02, 0.004, out_params, relu)
    assert requantizer.window is not None
    acc = RNG.integers(-2 ** 20, 2 ** 20, PW_ROWS).astype(np.int32)
    out = benchmark.pedantic(requantizer,
                             setup=lambda: ((acc.copy(),), {}),
                             rounds=30)
    want = requantize_prepared(acc, requantizer.mantissa,
                               requantizer.shift, out_params)
    if relu:
        want = np.maximum(want, np.uint8(out_params.zero_point))
    assert out.tobytes() == want.tobytes()


def test_bench_quantize_store(benchmark):
    """The F16 store of mobilenet conv1/pw's GPU rows (f16 straight to
    uint8 codes, ReLU as the clip bound), checked byte for byte
    against the interpreter's cast, ReLU and ``QuantParams.quantize``."""
    from repro.quant import quantize_store
    out_params = QuantParams.from_range(-6.0, 6.0)
    rows = (RNG.standard_normal(PW_ROWS) * 4).astype(np.float16)
    out = benchmark(quantize_store, rows, out_params, True)
    want = out_params.quantize(np.maximum(rows.astype(np.float32), 0.0))
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("way", ["quantize_store", "table"])
def test_bench_half_store(benchmark, way):
    """The F16 store of mobilenet conv1/pw's GPU part (32 channels at
    112x112, the direct1x1 layout) both ways: ``quantize_store`` on
    the f16 rows, and the compiled path's gather of their bit patterns
    through the 65,536-entry table.  The two outputs are byte-checked
    against each other."""
    from repro.quant import quantize_store
    from repro.quant.linear import half_store_table
    out_params = QuantParams.from_range(-6.0, 6.0)
    rows = (RNG.standard_normal((1, 32, 112 * 112)) * 4).astype(
        np.float16)
    table = half_store_table(out_params, True)

    def through_table(rows):
        return np.take(table, rows.view(np.uint16))

    def direct(rows):
        return quantize_store(rows, out_params, True)

    out = benchmark(through_table if way == "table" else direct, rows)
    other = direct(rows) if way == "table" else through_table(rows)
    assert out.tobytes() == other.tobytes()


@pytest.mark.parametrize(
    "channels, size, stride",
    [(32, 112, 1),     # mobilenet conv1/dw
     (64, 112, 2),     # mobilenet conv2/dw
     (128, 56, 1),     # mobilenet conv3/dw
     (512, 14, 2)],    # mobilenet conv12/dw
    ids=["conv1_dw", "conv2_dw", "conv3_dw", "conv12_dw"])
def test_bench_depthwise_direct(benchmark, channels, size, stride):
    """The row-GEMM integer depthwise kernel on four of mobilenet's
    depthwise shapes, stride 1 and 2 (3x3, padding 1, batch 1), checked
    byte for byte against im2col + an int64 einsum wrapped to int32."""
    from repro.kernels import depthwise_rows, pack_depthwise_taps
    x = RNG.integers(0, 256, (1, channels, size, size)).astype(np.uint8)
    codes = RNG.integers(0, 256, (channels, 3, 3)).astype(np.uint8)
    taps = pack_depthwise_taps(codes, 128)
    bias = RNG.integers(-2 ** 20, 2 ** 20, (channels, 1, 1)
                        ).astype(np.int32)
    acc = benchmark(depthwise_rows, x, taps, bias, stride, 1, 3)
    columns = im2col(x.reshape(channels, 1, size, size), 3, stride, 1,
                     pad_value=3.0)
    lhs = columns.astype(np.int64) - 3
    rhs = codes.reshape(channels, 9).astype(np.int64) - 128
    want = (np.einsum("npk,nk->np", lhs, rhs, dtype=np.int64)
            + bias.reshape(channels, 1)).astype(np.int32)
    assert acc.tobytes() == want.reshape(acc.shape).tobytes()


def test_bench_lrn(benchmark):
    """LRN at googlenet conv2/norm2's (1, 192, 56, 56), checked byte
    for byte against the zero-padded cumsum + concatenate formula."""
    from repro.nn.layers import LRN
    x = (RNG.standard_normal((1, 192, 56, 56)) * 20).astype(np.float32)
    layer = LRN("conv2/norm2")
    out = benchmark(layer.forward_f32, [x])
    squared = x * x
    padded = np.zeros((1, 196, 56, 56), dtype=np.float32)
    padded[:, 2:194] = squared
    cumsum = np.concatenate([np.zeros((1, 1, 56, 56), np.float32),
                             np.cumsum(padded, axis=1)], axis=1)
    window = cumsum[:, 5:] - cumsum[:, :-5]
    want = x / (1.0 + (1e-4 / 5) * window) ** 0.75
    assert out.tobytes() == want.astype(np.float32).tobytes()


#: googlenet's conv2/3x3 CPU part and inception_3a/3x3: (in_c, out_c,
#: size), 3x3 kernels at stride 1 and padding 1, batch 1.
SHIFTED_SHAPES = {"conv2_3x3": (64, 96, 56), "inception_3a_3x3":
                  (96, 128, 28)}


@pytest.mark.parametrize("lowering", ["shifted", "im2col"])
@pytest.mark.parametrize("shape", sorted(SHIFTED_SHAPES))
def test_bench_integer_conv(benchmark, shape, lowering):
    """One integer 3x3 conv part, input codes to requantized output
    codes: the shifted-tap float32 GEMMs (``conv_shifted``) against
    im2col + ``qgemm_fused``'s float64 GEMM and NCHW fold, checked
    byte for byte against each other."""
    from repro.kernels import (conv_shifted, exact_in_f32,
                               fused_const_row, pack_shifted_taps,
                               qgemm_fused, quantize_bias,
                               shifted_input)
    from repro.quant import Requantizer
    in_c, out_c, size = SHIFTED_SHAPES[shape]
    x_zero, w_zero = 7, 128
    x = RNG.integers(0, 256, (1, in_c, size, size)).astype(np.uint8)
    weights = RNG.standard_normal((out_c, in_c, 3, 3)) * 0.05
    w_params = QuantParams.from_array(weights)
    codes = w_params.quantize(weights)
    assert exact_in_f32(codes, w_params.zero_point, x_zero)
    bias_i32 = quantize_bias(RNG.standard_normal(out_c), 0.02,
                             w_params.scale)
    requantizer = Requantizer.prepare(
        0.02, w_params.scale, QuantParams.from_range(-8.0, 8.0), True)
    taps = pack_shifted_taps(codes, w_params.zero_point)
    bias_col = bias_i32.reshape(-1, 1, 1)
    rhs = codes.reshape(out_c, -1).T
    const_row = fused_const_row(rhs.astype(np.int32), x_zero,
                                w_params.zero_point, bias_i32)
    rhs64 = rhs.astype(np.float64)

    def shifted():
        return requantizer(conv_shifted(
            shifted_input(x, 3, 1, x_zero), taps, bias_col, 1, size,
            size, 3, 1))

    def reference():
        columns = im2col(x, 3, 1, 1, pad_value=float(x_zero))
        rows = qgemm_fused(columns.reshape(-1, in_c * 9), rhs64,
                           w_params.zero_point, const_row, requantizer)
        return np.ascontiguousarray(rows.reshape(
            1, size, size, out_c).transpose(0, 3, 1, 2))

    run, other = ((shifted, reference) if lowering == "shifted"
                  else (reference, shifted))
    out = benchmark(run)
    assert out.shape == (1, out_c, size, size)
    assert out.tobytes() == other().tobytes()


def test_bench_mulayer_planning(benchmark):
    """Wall-clock cost of planning GoogLeNet with the oracle
    partitioner -- the runtime's one-time setup cost."""
    from repro.models import build_model
    from repro.runtime import Partitioner, PartitionerConfig
    from repro.soc import EXYNOS_7420
    graph = build_model("googlenet", with_weights=False)
    partitioner = Partitioner(
        EXYNOS_7420, config=PartitionerConfig(use_oracle_costs=True))
    plan = benchmark(partitioner.plan, graph)
    plan.validate(graph)


def test_bench_simulated_execution(benchmark):
    """Wall-clock cost of one timed (non-functional) GoogLeNet
    inference through the whole simulator.  Each round uses a fresh
    executor, so the executor's timing memo never replays it."""
    from repro.models import build_model
    from repro.runtime import Executor, MuLayer
    from repro.soc import EXYNOS_7420
    graph = build_model("googlenet", with_weights=False)
    plan = MuLayer(EXYNOS_7420, use_oracle_costs=True).plan(graph)
    result = benchmark(lambda: Executor(EXYNOS_7420).run(graph, plan))
    assert result.latency_s > 0
