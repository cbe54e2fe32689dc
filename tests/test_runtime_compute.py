"""Tests for the functional layer computer under all policies.

The central correctness claims of the paper's mechanisms:

* channel-wise split + merge is exact for uniform data types (each
  output channel is produced by exactly one processor);
* under the processor-friendly policy, the CPU's integer pipeline and
  the GPU's F16 pipeline both approximate the float reference closely
  enough to preserve predictions.
"""

import numpy as np
import pytest

from repro.errors import PlanError, QuantizationError
from repro.nn import run_reference
from repro.runtime import (LayerComputer, PROCESSOR_FRIENDLY,
                           UNIFORM_F16, UNIFORM_F32, UNIFORM_QUINT8)


def run_policy(graph, x, policy, calibration=None, resource="cpu",
               cooperative=None):
    """Run a graph layer by layer; optionally split some layers."""
    computer = LayerComputer(graph, policy, calibration)
    input_name = graph.input_layers()[0]
    values = {input_name: computer.input_tensor(input_name, x)}
    cooperative = cooperative or {}
    for name in graph.compute_layers():
        inputs = [values[p] for p in graph.inputs_of(name)]
        if name in cooperative:
            values[name] = computer.run_cooperative(name, inputs,
                                                    cooperative[name])
        else:
            values[name] = computer.run_full(name, inputs, resource)
    return values[graph.output_layers()[0]].to_float()


class TestUniformFloat:
    def test_f32_matches_reference(self, squeezenet_mini, single_input):
        out = run_policy(squeezenet_mini, single_input, UNIFORM_F32)
        ref = run_reference(squeezenet_mini,
                            {"input": single_input})["softmax"]
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_f16_close_to_reference(self, squeezenet_mini, single_input):
        out = run_policy(squeezenet_mini, single_input, UNIFORM_F16)
        ref = run_reference(squeezenet_mini,
                            {"input": single_input})["softmax"]
        np.testing.assert_allclose(out, ref, rtol=0.05, atol=0.02)

    def test_f16_same_argmax(self, vgg_mini, mini_input):
        out = run_policy(vgg_mini, mini_input, UNIFORM_F16)
        ref = run_reference(vgg_mini, {"input": mini_input})["softmax"]
        np.testing.assert_array_equal(out.argmax(axis=1),
                                      ref.argmax(axis=1))


class TestQuantized:
    def test_quint8_requires_calibration(self, squeezenet_mini):
        with pytest.raises(QuantizationError, match="calibration"):
            LayerComputer(squeezenet_mini, UNIFORM_QUINT8)

    def test_quint8_correlates_with_reference(
            self, squeezenet_mini, single_input, squeezenet_calibration):
        out = run_policy(squeezenet_mini, single_input, UNIFORM_QUINT8,
                         squeezenet_calibration)
        ref = run_reference(squeezenet_mini,
                            {"input": single_input})["softmax"]
        corr = np.corrcoef(out.ravel(), ref.ravel())[0, 1]
        assert corr > 0.99

    def test_pfq_gpu_path_correlates(self, squeezenet_mini, single_input,
                                     squeezenet_calibration):
        out = run_policy(squeezenet_mini, single_input,
                         PROCESSOR_FRIENDLY, squeezenet_calibration,
                         resource="gpu")
        ref = run_reference(squeezenet_mini,
                            {"input": single_input})["softmax"]
        corr = np.corrcoef(out.ravel(), ref.ravel())[0, 1]
        assert corr > 0.99

    def test_cpu_and_gpu_pipelines_differ_but_agree(
            self, squeezenet_mini, single_input, squeezenet_calibration):
        """Under PFQ the CPU computes in int8 and the GPU in f16 --
        different arithmetic, same calibrated output grid."""
        cpu = run_policy(squeezenet_mini, single_input,
                         PROCESSOR_FRIENDLY, squeezenet_calibration,
                         resource="cpu")
        gpu = run_policy(squeezenet_mini, single_input,
                         PROCESSOR_FRIENDLY, squeezenet_calibration,
                         resource="gpu")
        assert np.corrcoef(cpu.ravel(), gpu.ravel())[0, 1] > 0.99

    def test_depthwise_integer_path(self, mobilenet_mini, single_input,
                                    mobilenet_mini_calibration):
        out = run_policy(mobilenet_mini, single_input, UNIFORM_QUINT8,
                         mobilenet_mini_calibration)
        ref = run_reference(mobilenet_mini,
                            {"input": single_input})["softmax"]
        assert np.corrcoef(out.ravel(), ref.ravel())[0, 1] > 0.95


class TestCooperativeSplit:
    @pytest.mark.parametrize("split", [0.25, 0.5, 0.75])
    def test_split_exact_for_f32(self, vgg_mini, single_input, split):
        """Channel-wise distribution computes each output channel from
        the same math: under uniform F32 the split output equals the
        whole output up to GEMM reassociation (BLAS blocking differs
        between the slice and the full matrix)."""
        whole = run_policy(vgg_mini, single_input, UNIFORM_F32)
        conv_layers = [n for n in vgg_mini.compute_layers()
                       if n.startswith("conv") or n.startswith("pool")]
        split_out = run_policy(
            vgg_mini, single_input, UNIFORM_F32,
            cooperative={name: split for name in conv_layers})
        np.testing.assert_allclose(split_out, whole, rtol=1e-5,
                                   atol=1e-6)

    def test_split_exact_for_quint8(self, vgg_mini, single_input,
                                    vgg_mini_calibration):
        whole = run_policy(vgg_mini, single_input, UNIFORM_QUINT8,
                           vgg_mini_calibration)
        split_out = run_policy(
            vgg_mini, single_input, UNIFORM_QUINT8,
            vgg_mini_calibration,
            cooperative={"conv1_1": 0.5, "conv2_2": 0.25, "pool1": 0.5})
        np.testing.assert_array_equal(split_out, whole)

    def test_split_depthwise_exact(self, mobilenet_mini, single_input,
                                   mobilenet_mini_calibration):
        whole = run_policy(mobilenet_mini, single_input, UNIFORM_QUINT8,
                           mobilenet_mini_calibration)
        split_out = run_policy(
            mobilenet_mini, single_input, UNIFORM_QUINT8,
            mobilenet_mini_calibration,
            cooperative={"conv1/dw": 0.5, "conv2/pw": 0.75})
        np.testing.assert_array_equal(split_out, whole)

    def test_pfq_split_mixes_pipelines(self, vgg_mini, single_input,
                                       vgg_mini_calibration):
        """Under PFQ a split layer's CPU channels come from the integer
        pipeline and GPU channels from F16 -- output still matches the
        reference closely."""
        out = run_policy(
            vgg_mini, single_input, PROCESSOR_FRIENDLY,
            vgg_mini_calibration,
            cooperative={n: 0.5 for n in vgg_mini.compute_layers()
                         if n.startswith("conv")})
        ref = run_reference(vgg_mini, {"input": single_input})["softmax"]
        assert np.corrcoef(out.ravel(), ref.ravel())[0, 1] > 0.99

    def test_split_fc_exact(self, vgg_mini, single_input,
                            vgg_mini_calibration):
        whole = run_policy(vgg_mini, single_input, UNIFORM_QUINT8,
                           vgg_mini_calibration)
        split_out = run_policy(vgg_mini, single_input, UNIFORM_QUINT8,
                               vgg_mini_calibration,
                               cooperative={"fc1": 0.5})
        np.testing.assert_array_equal(split_out, whole)

    def test_unsplittable_rejected(self, squeezenet_mini, single_input,
                                   squeezenet_calibration):
        computer = LayerComputer(squeezenet_mini, PROCESSOR_FRIENDLY,
                                 squeezenet_calibration)
        values = {"input": computer.input_tensor("input", single_input)}
        values["conv1"] = computer.run_full(
            "conv1", [values["input"]], "cpu")
        values["fire1/squeeze1x1"] = computer.run_full(
            "fire1/squeeze1x1", [values["conv1"]], "cpu")
        expand1 = computer.run_full(
            "fire1/expand1x1", [values["fire1/squeeze1x1"]], "cpu")
        expand3 = computer.run_full(
            "fire1/expand3x3", [values["fire1/squeeze1x1"]], "cpu")
        with pytest.raises(PlanError, match="cannot be split"):
            computer.run_cooperative("fire1/concat", [expand1, expand3],
                                     0.5)


class TestWeightUpdates:
    """The interpreter is uncached: every call reads the layer's
    current arrays, so no weight update can leave it serving stale
    operands."""

    @staticmethod
    def _first_conv(graph, computer, x):
        name = graph.compute_layers()[0]
        t = computer.input_tensor(graph.input_layers()[0], x)
        return computer.run_full(name, [t], "cpu")

    def test_replaced_weights_requantize(self, squeezenet_mini,
                                         squeezenet_calibration,
                                         single_input):
        """Installing new arrays via ``set_weights`` takes effect on a
        computer built before the update."""
        layer = squeezenet_mini.layer(squeezenet_mini.compute_layers()[0])
        old_weights, old_bias = layer.weights, layer.bias
        computer = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                 squeezenet_calibration)
        before = self._first_conv(squeezenet_mini, computer, single_input)
        try:
            layer.set_weights(old_weights * 2.0, old_bias * 2.0)
            after = self._first_conv(squeezenet_mini, computer,
                                     single_input)
            fresh = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                  squeezenet_calibration)
            expected = self._first_conv(squeezenet_mini, fresh,
                                        single_input)
            assert after.data.tobytes() == expected.data.tobytes()
            assert before.data.tobytes() != after.data.tobytes()
        finally:
            layer.set_weights(old_weights, old_bias)

    def test_inplace_mutation_is_seen(self, squeezenet_mini,
                                      squeezenet_calibration,
                                      single_input):
        """In-place mutation of the same array object needs no
        invalidation step."""
        layer = squeezenet_mini.layer(squeezenet_mini.compute_layers()[0])
        computer = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                 squeezenet_calibration)
        before = self._first_conv(squeezenet_mini, computer, single_input)
        saved = layer.weights.copy()
        try:
            layer.weights *= 2.0
            after = self._first_conv(squeezenet_mini, computer,
                                     single_input)
            fresh = LayerComputer(squeezenet_mini, UNIFORM_QUINT8,
                                  squeezenet_calibration)
            expected = self._first_conv(squeezenet_mini, fresh,
                                        single_input)
            assert after.data.tobytes() == expected.data.tobytes()
            assert before.data.tobytes() != after.data.tobytes()
        finally:
            layer.weights[...] = saved
