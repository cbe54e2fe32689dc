"""Tests for the channel-wise workload distribution arithmetic."""

import pytest

from repro.errors import PlanError
from repro.models import build_model
from repro.runtime import share_counts, split_layer_work_shares


def _two_way(graph, layer_name, split):
    """(cpu, gpu) work of a two-way split at CPU share ``split``."""
    work = split_layer_work_shares(graph, layer_name,
                                   {"cpu": split, "gpu": 1.0 - split})
    return work["cpu"], work["gpu"]


def _counts(total, split):
    """(cpu, gpu) channel counts of a two-way split at CPU share
    ``split``."""
    counts = share_counts(total, {"cpu": split, "gpu": 1.0 - split})
    return counts.get("cpu", 0), counts.get("gpu", 0)


class TestSplitCounts:
    """Two-way channel apportioning through ``share_counts``."""

    def test_even_split(self):
        assert _counts(128, 0.5) == (64, 64)

    def test_quarter_split(self):
        assert _counts(128, 0.25) == (32, 96)

    def test_rounding(self):
        cpu, gpu = _counts(10, 0.33)
        assert cpu + gpu == 10
        assert cpu == 3

    def test_endpoints(self):
        assert _counts(64, 0.0) == (0, 64)
        assert _counts(64, 1.0) == (64, 0)

    def test_cooperative_never_degenerates(self):
        # Even extreme ratios leave both sides at least one channel.
        assert _counts(2, 0.01) == (1, 1)
        assert _counts(2, 0.99) == (1, 1)

    def test_counts_always_sum(self, rng):
        for _ in range(100):
            total = int(rng.integers(1, 2048))
            split = float(rng.uniform(0, 1))
            cpu, gpu = _counts(total, split)
            assert cpu + gpu == total
            assert cpu >= 0 and gpu >= 0

    def test_invalid_split_rejected(self):
        with pytest.raises(PlanError):
            _counts(10, 1.5)

    def test_no_channels_rejected(self):
        with pytest.raises(PlanError):
            _counts(0, 0.5)


class TestSplitLayerWork:
    def test_conv_work_partitions_macs(self):
        graph = build_model("vgg_mini", with_weights=False)
        full = graph.layer_work("conv2_1")
        cpu, gpu = _two_way(graph, "conv2_1", 0.5)
        assert cpu.macs + gpu.macs == pytest.approx(full.macs, abs=2)
        assert cpu.param_elements + gpu.param_elements == pytest.approx(
            full.param_elements, rel=0.01)

    def test_conv_shares_input(self):
        """Filter-split layers read the whole input on both sides
        (Figure 7a)."""
        graph = build_model("vgg_mini", with_weights=False)
        full = graph.layer_work("conv2_1")
        cpu, gpu = _two_way(graph, "conv2_1", 0.25)
        assert cpu.input_elements == full.input_elements
        assert gpu.input_elements == full.input_elements

    def test_pool_splits_input(self):
        """Input-split layers each read only their slice (Figure 7b)."""
        graph = build_model("vgg_mini", with_weights=False)
        full = graph.layer_work("pool1")
        cpu, gpu = _two_way(graph, "pool1", 0.5)
        assert cpu.input_elements + gpu.input_elements == pytest.approx(
            full.input_elements, abs=2)

    def test_channels_scale_with_split(self):
        graph = build_model("vgg_mini", with_weights=False)
        full = graph.layer_work("conv2_1")
        cpu, gpu = _two_way(graph, "conv2_1", 0.25)
        assert cpu.parallel_channels == round(0.25
                                              * full.parallel_channels)
        assert (cpu.parallel_channels + gpu.parallel_channels
                == full.parallel_channels)

    def test_depthwise_splits_everything(self):
        graph = build_model("mobilenet_mini", with_weights=False)
        full = graph.layer_work("conv1/dw")
        cpu, gpu = _two_way(graph, "conv1/dw", 0.5)
        assert cpu.macs + gpu.macs == pytest.approx(full.macs, abs=2)
        assert cpu.input_elements < full.input_elements

    def test_unsplittable_layer_rejected(self):
        graph = build_model("squeezenet_mini", with_weights=False)
        with pytest.raises(PlanError, match="does not support"):
            _two_way(graph, "fire1/concat", 0.5)
