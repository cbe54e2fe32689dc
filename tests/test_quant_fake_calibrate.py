"""Tests for fake quantization and calibration observers."""

import re

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.nn import calibrate_graph
from repro.quant import (CalibrationTable, EmaRangeObserver,
                         MinMaxObserver, PercentileObserver,
                         fake_quantize, fake_quantize_gradient,
                         fake_quantize_with_observer)
from repro.tensor import QuantParams


class TestFakeQuantize:
    def test_idempotent(self, rng):
        qp = QuantParams.from_range(-1.0, 1.0)
        values = rng.uniform(-1, 1, 100).astype(np.float32)
        once = fake_quantize(values, qp)
        twice = fake_quantize(once, qp)
        np.testing.assert_array_equal(once, twice)

    def test_error_bounded(self, rng):
        qp = QuantParams.from_range(-1.0, 1.0)
        values = rng.uniform(-1, 1, 100).astype(np.float32)
        out = fake_quantize(values, qp)
        assert np.max(np.abs(out - values)) <= qp.scale / 2 + 1e-6

    def test_clamps_outside_range(self):
        qp = QuantParams.from_range(-1.0, 1.0)
        out = fake_quantize(np.array([5.0, -5.0]), qp)
        assert out[0] == pytest.approx(qp.range_max)
        assert out[1] == pytest.approx(qp.range_min)

    def test_gradient_mask_inside(self):
        qp = QuantParams.from_range(-1.0, 1.0)
        mask = fake_quantize_gradient(np.array([0.0, 0.5, -0.9]), qp)
        np.testing.assert_array_equal(mask, [1.0, 1.0, 1.0])

    def test_gradient_mask_clamped(self):
        qp = QuantParams.from_range(-1.0, 1.0)
        mask = fake_quantize_gradient(np.array([5.0, -5.0]), qp)
        np.testing.assert_array_equal(mask, [0.0, 0.0])


class TestEmaObserver:
    def test_first_batch_initializes(self):
        obs = EmaRangeObserver()
        obs.observe(np.array([-2.0, 3.0]))
        assert obs.minimum == -2.0
        assert obs.maximum == 3.0

    def test_ema_smooths(self):
        obs = EmaRangeObserver(decay=0.5)
        obs.observe(np.array([0.0, 10.0]))
        obs.observe(np.array([0.0, 0.0]))
        assert obs.maximum == pytest.approx(5.0)

    def test_with_observer_updates_in_training(self):
        obs = EmaRangeObserver()
        out, mask = fake_quantize_with_observer(
            np.array([-1.0, 1.0]), obs, training=True)
        assert obs.initialized
        assert out.shape == (2,)
        assert mask.shape == (2,)

    def test_inference_does_not_update(self):
        obs = EmaRangeObserver()
        obs.observe(np.array([-1.0, 1.0]))
        before = (obs.minimum, obs.maximum)
        fake_quantize_with_observer(np.array([-50.0, 50.0]), obs,
                                    training=False)
        assert (obs.minimum, obs.maximum) == before


class TestMinMaxObserver:
    def test_tracks_extremes_across_batches(self):
        obs = MinMaxObserver()
        obs.observe(np.array([-1.0, 2.0]))
        obs.observe(np.array([-3.0, 1.0]))
        qp = obs.qparams()
        assert qp.range_min <= -3.0 + qp.scale
        assert qp.range_max >= 2.0 - qp.scale

    def test_uncalibrated_raises(self):
        with pytest.raises(CalibrationError):
            MinMaxObserver().qparams()

    def test_empty_batch_ignored(self):
        obs = MinMaxObserver()
        obs.observe(np.array([]))
        assert not obs.calibrated

    def test_nan_after_finite_batch_raises_and_keeps_state(self):
        """The NaN batch's 50 must not vanish with its NaN: the batch
        is refused whole and the range stays as it was."""
        obs = MinMaxObserver()
        obs.observe(np.array([-1.0, 2.0]))
        with pytest.raises(CalibrationError,
                           match=re.escape("calibration batch 1 holds "
                                           "NaN")):
            obs.observe(np.array([np.nan, 50.0]))
        assert (obs.minimum, obs.maximum, obs.samples) == (-1.0, 2.0, 1)

    def test_nan_first_batch_raises_before_any_range(self):
        obs = MinMaxObserver()
        with pytest.raises(CalibrationError,
                           match=re.escape("calibration batch 0 holds "
                                           "NaN")):
            obs.observe(np.array([50.0, np.nan]))
        assert not obs.calibrated
        obs.observe(np.array([-1.0, 2.0]))
        assert obs.qparams() == QuantParams.from_range(-1.0, 2.0)

    def test_inf_raises_naming_layer(self):
        obs = MinMaxObserver()
        with pytest.raises(CalibrationError,
                           match=re.escape("calibration batch 0 of layer "
                                           "'fc' holds inf")):
            obs.observe(np.array([1.0, -np.inf]), layer="fc")
        assert not obs.calibrated


class TestPercentileObserver:
    def test_ignores_outliers(self, rng):
        obs = PercentileObserver(percentile=99.0)
        values = rng.standard_normal(10000)
        values[0] = 1000.0     # a wild outlier
        obs.observe(values)
        assert obs.qparams().range_max < 100.0

    def test_uncalibrated_raises(self):
        with pytest.raises(CalibrationError):
            PercentileObserver().qparams()


class TestCalibrationTable:
    def test_observe_freeze_get(self, rng):
        table = CalibrationTable()
        table.observe("conv1", rng.uniform(-1, 1, 100))
        table.freeze()
        assert "conv1" in table
        assert table.get("conv1").scale > 0

    def test_get_unknown_layer_raises(self):
        table = CalibrationTable()
        with pytest.raises(CalibrationError, match="no calibrated"):
            table.get("missing")

    def test_set_overrides(self):
        table = CalibrationTable()
        qp = QuantParams(0.5, 10)
        table.set("x", qp)
        assert table.get("x") == qp

    def test_layers_listing(self):
        table = CalibrationTable()
        table.set("a", QuantParams(1.0, 0))
        table.set("b", QuantParams(1.0, 0))
        assert set(table.layers()) == {"a", "b"}

    def test_multiple_batches_union_range(self):
        table = CalibrationTable()
        table.observe("x", np.array([0.0, 1.0]))
        table.observe("x", np.array([-5.0, 0.5]))
        table.freeze()
        qp = table.get("x")
        assert qp.range_min <= -5.0 + qp.scale

    @pytest.mark.parametrize("nan_batch", [0, 1])
    def test_nan_in_calibration_data_raises(self, squeezenet_mini,
                                            nan_batch):
        """A NaN is not folded away by the min/max range: calibration
        names it, the layer and the batch, in either batch order."""
        rng = np.random.default_rng(3)
        batches = [rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
                   for _ in range(2)]
        batches[nan_batch][0, 1, 2, 3] = np.nan
        (input_name,) = squeezenet_mini.input_layers()
        message = f"batch {nan_batch} of layer {input_name!r} holds NaN"
        with pytest.raises(CalibrationError, match=re.escape(message)):
            calibrate_graph(squeezenet_mini, batches)

    def test_inf_in_calibration_data_raises(self, squeezenet_mini):
        rng = np.random.default_rng(4)
        batch = rng.standard_normal((1, 3, 32, 32)).astype(np.float32)
        batch[0, 0, 0, 0] = -np.inf
        (input_name,) = squeezenet_mini.input_layers()
        message = f"batch 0 of layer {input_name!r} holds inf"
        with pytest.raises(CalibrationError, match=re.escape(message)):
            calibrate_graph(squeezenet_mini, [batch])

    def test_non_finite_batch_records_nothing(self):
        table = CalibrationTable()
        table.observe("x", np.array([0.0, 1.0]))
        with pytest.raises(CalibrationError,
                           match=re.escape("batch 1 of layer 'x' holds "
                                           "NaN")):
            table.observe("x", np.array([np.nan, np.inf]))
        table.freeze()
        assert table.get("x") == QuantParams.from_range(0.0, 1.0)
