"""Quantization: 8-bit linear, half precision, fake-quant, calibration."""

from .calibrate import (CalibrationTable, MinMaxObserver, PercentileObserver)
from .fake_quant import (EmaRangeObserver, fake_quantize,
                         fake_quantize_gradient, fake_quantize_with_observer)
from .half import (dequantize_lut, dequantize_to_half, from_half, half_ulp,
                   tensor_to_half, to_half)
from .linear import (Requantizer, dequantize, prepare_requantize, quantize,
                     quantize_store, quantize_tensor, quantized_multiplier,
                     requantize, requantize_float_reference,
                     requantize_prepared)

__all__ = [
    "CalibrationTable",
    "MinMaxObserver",
    "PercentileObserver",
    "EmaRangeObserver",
    "fake_quantize",
    "fake_quantize_gradient",
    "fake_quantize_with_observer",
    "dequantize_lut",
    "dequantize_to_half",
    "from_half",
    "half_ulp",
    "tensor_to_half",
    "to_half",
    "Requantizer",
    "dequantize",
    "prepare_requantize",
    "quantize",
    "quantize_store",
    "quantize_tensor",
    "quantized_multiplier",
    "requantize",
    "requantize_float_reference",
    "requantize_prepared",
]
