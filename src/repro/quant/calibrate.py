"""Post-training calibration of activation quantization ranges.

The paper assumes "the 8-bit linear quantization is already applied to
the given NN" (Section 6) with per-layer output ranges learned during
training.  For post-training quantization we reproduce the standard
recipe: run the float network over a calibration set while min/max
observers record each layer's output range, then freeze those ranges
into :class:`QuantParams` that the executor's requantization steps use.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, Optional

import numpy as np

from ..errors import CalibrationError
from ..tensor import QuantParams


@dataclasses.dataclass
class MinMaxObserver:
    """Records the running min/max of every batch it sees."""

    minimum: float = np.inf
    maximum: float = -np.inf
    samples: int = 0

    def observe(self, values: np.ndarray,
                layer: Optional[str] = None) -> None:
        """Fold one batch of float values into the running range.

        Raises:
            CalibrationError: if the batch holds a NaN or an infinity,
                before the range or ``samples`` change.  A min/max
                range would drop a NaN without a trace (``min(x,
                nan)`` is ``x``) and cannot quantize an infinite bound,
                so the error names the value and the batch (its index
                among the batches seen, from 0) -- and ``layer``, when
                given.
        """
        if values.size == 0:
            return
        low, high = float(values.min()), float(values.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            kind = "NaN" if math.isnan(low) or math.isnan(high) else "inf"
            where = "" if layer is None else f" of layer {layer!r}"
            raise CalibrationError(
                f"calibration batch {self.samples}{where} holds {kind}")
        self.minimum = min(self.minimum, low)
        self.maximum = max(self.maximum, high)
        self.samples += 1

    @property
    def calibrated(self) -> bool:
        """True once at least one batch has been observed."""
        return self.samples > 0

    def qparams(self) -> QuantParams:
        """Freeze the observed range into quantization parameters."""
        if not self.calibrated:
            raise CalibrationError(
                "observer has seen no data; run calibration first")
        return QuantParams.from_range(self.minimum, self.maximum)


@dataclasses.dataclass
class PercentileObserver:
    """Records a clipped range that ignores extreme outliers.

    Clipping at a high percentile (99.9 by default) often beats plain
    min/max for activations with long tails, at the cost of saturating
    the tail.  Exposed so the accuracy experiments can compare both.
    """

    percentile: float = 99.9
    _values_seen: int = 0
    _lows: Optional[list] = None
    _highs: Optional[list] = None

    def __post_init__(self) -> None:
        self._lows = []
        self._highs = []

    def observe(self, values: np.ndarray) -> None:
        """Fold one batch into the tracked percentile bounds."""
        if values.size == 0:
            return
        low = float(np.percentile(values, 100.0 - self.percentile))
        high = float(np.percentile(values, self.percentile))
        self._lows.append(low)
        self._highs.append(high)
        self._values_seen += 1

    @property
    def calibrated(self) -> bool:
        """True once at least one batch has been observed."""
        return self._values_seen > 0

    def qparams(self) -> QuantParams:
        """Freeze the mean percentile bounds into parameters."""
        if not self.calibrated:
            raise CalibrationError(
                "observer has seen no data; run calibration first")
        return QuantParams.from_range(float(np.mean(self._lows)),
                                      float(np.mean(self._highs)))


class CalibrationTable:
    """Maps layer names to frozen activation quantization parameters."""

    def __init__(self) -> None:
        self._observers: Dict[str, MinMaxObserver] = {}
        self._frozen: Dict[str, QuantParams] = {}

    def observe(self, layer_name: str, values: np.ndarray) -> None:
        """Record one batch of a layer's float output.

        Raises:
            CalibrationError: if the batch holds a NaN or an infinity
                (see :meth:`MinMaxObserver.observe`; the message names
                the layer too).
        """
        self._observers.setdefault(layer_name, MinMaxObserver()).observe(
            values, layer=layer_name)

    def freeze(self) -> None:
        """Convert all observed ranges into quantization parameters."""
        for name, observer in self._observers.items():
            self._frozen[name] = observer.qparams()

    def set(self, layer_name: str, qparams: QuantParams) -> None:
        """Install externally supplied parameters for a layer."""
        self._frozen[layer_name] = qparams

    def get(self, layer_name: str) -> QuantParams:
        """Parameters for ``layer_name``.

        Raises:
            CalibrationError: if the layer was never calibrated.
        """
        try:
            return self._frozen[layer_name]
        except KeyError:
            raise CalibrationError(
                f"no calibrated range for layer {layer_name!r}; "
                "run calibration and freeze() first") from None

    def __contains__(self, layer_name: str) -> bool:
        return layer_name in self._frozen

    def layers(self) -> Iterable[str]:
        """Names of all frozen layers."""
        return self._frozen.keys()
