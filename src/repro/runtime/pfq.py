"""Processor-friendly quantization policies (Section 4.2).

A :class:`QuantizationPolicy` fixes, for one execution, which data type
each processor computes in and which data types tensors are stored in.
The paper's processor-friendly policy is:

* **storage**: everything (input, filters, output) lives in memory as
  QUInt8 to minimize data movement;
* **CPU compute**: QUInt8, processed natively by the vector ALUs
  (Figure 9a);
* **GPU compute**: F16 -- the GPU loads QUInt8 and converts on the fly
  (Figure 9b), except filters, which the executor dequantizes to F16
  once at upload time (Section 6), hence the separate
  ``gpu_param_storage``;
* both processors requantize their outputs back to QUInt8 using the
  pre-trained output range.

Uniform policies (same dtype everywhere) express the baselines of
Figures 8 and 16.  QUInt8 storage computes in QUInt8 or F16 only: a
policy that pairs it with F32 compute raises ``QuantizationError``.
"""

from __future__ import annotations

import dataclasses

from ..errors import QuantizationError
from ..tensor import DType


@dataclasses.dataclass(frozen=True)
class QuantizationPolicy:
    """Data types used for compute and storage during one execution.

    Attributes:
        name: short label used in reports.
        cpu_compute: ALU data type on the CPU.
        gpu_compute: ALU data type on the GPU.
        activation_storage: in-memory type of activations.
        cpu_param_storage: in-memory type of CPU-side filters.
        gpu_param_storage: in-memory type of GPU-side filters.
    """

    name: str
    cpu_compute: DType
    gpu_compute: DType
    activation_storage: DType
    cpu_param_storage: DType
    gpu_param_storage: DType

    def __post_init__(self) -> None:
        if self.activation_storage is not DType.QUINT8:
            return
        for resource in ("cpu", "gpu"):
            compute = self.compute_dtype(resource)
            if compute not in (DType.QUINT8, DType.F16):
                raise QuantizationError(
                    f"policy {self.name!r}: QUInt8 activation storage "
                    f"computes in QUInt8 or F16, not {compute} on "
                    f"{resource}")

    def compute_dtype(self, resource: str) -> DType:
        """Compute dtype for ``"cpu"``, ``"gpu"``, or ``"npu"``.

        NPUs are fixed-function integer engines, so their compute type
        is always QUInt8 -- the "NPU-friendly quantization scheme" of
        the paper's Section 8.3 (8-bit linear, as on the TPU).
        """
        if resource == "cpu":
            return self.cpu_compute
        if resource == "npu":
            return DType.QUINT8
        return self.gpu_compute

    def param_storage(self, resource: str) -> DType:
        """Filter storage dtype for ``"cpu"``, ``"gpu"``, or ``"npu"``."""
        if resource == "cpu":
            return self.cpu_param_storage
        if resource == "npu":
            return DType.QUINT8
        return self.gpu_param_storage

    @property
    def is_quantized(self) -> bool:
        """True when activations are stored as QUInt8 (requires a
        calibration table for functional execution)."""
        return self.activation_storage is DType.QUINT8


#: The paper's processor-friendly quantization (Section 4.2).
PROCESSOR_FRIENDLY = QuantizationPolicy(
    name="pfq",
    cpu_compute=DType.QUINT8,
    gpu_compute=DType.F16,
    activation_storage=DType.QUINT8,
    cpu_param_storage=DType.QUINT8,
    gpu_param_storage=DType.F16,
)


def uniform_policy(dtype: DType) -> QuantizationPolicy:
    """A policy that computes and stores everything in ``dtype``."""
    return QuantizationPolicy(
        name=str(dtype),
        cpu_compute=dtype,
        gpu_compute=dtype,
        activation_storage=dtype,
        cpu_param_storage=dtype,
        gpu_param_storage=dtype,
    )


#: Uniform baseline policies keyed by dtype, as swept in Figure 8.
UNIFORM_F32 = uniform_policy(DType.F32)
UNIFORM_F16 = uniform_policy(DType.F16)
UNIFORM_QUINT8 = uniform_policy(DType.QUINT8)
