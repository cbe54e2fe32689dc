"""SoC specifications: Exynos 7420 (high-end) and Exynos 7880 (mid-range).

The numbers below are calibrated so the *relative* behaviour matches
what the paper measures on the physical chips:

* Exynos 7420 (Galaxy Note 5): the Mali-T760MP8 GPU is on average only
  ~1.40x faster than the CPU cluster at F32 (Section 3.1, Figure 5).
* Exynos 7880 (Galaxy A5): the octa-A53 CPU achieves ~26.1% *lower*
  latency than the Mali-T830MP3 GPU at F32 (Section 3.1).
* QUInt8 runs ~2.7x faster than F32 on the CPUs' NEON ALUs; F16 matches
  F32 on the CPU (no vector F16 support); F16 doubles GPU throughput;
  QUInt8 is slightly slower than F32 on the GPU (32-bit accumulation
  halves concurrency) -- Section 4.1, Figure 8.

Absolute magnitudes (GMAC/s, watts) are chosen to be plausible for the
silicon but are not claimed to match the authors' testbed; EXPERIMENTS.md
compares shapes, not absolute numbers.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ..errors import SimulationError, UnknownNameError
from ..tensor import DType
from .memory import MemorySpec
from .processor import ProcessorKind, ProcessorSpec


@dataclasses.dataclass(frozen=True)
class SoCSpec:
    """A complete SoC: CPU cluster, GPU, shared memory, board power.

    Attributes:
        name: registry key (``"exynos7420"`` / ``"exynos7880"``).
        display_name: descriptive title used in reports.
        cpu / gpu: the two processors.
        memory: the shared DRAM.
        static_power_w: always-on power (rails, interconnect, DRAM
            background) charged for the whole makespan.
        sync_us: CPU-side cost of waiting on an accelerator completion
            event (the per-layer synchronization overhead of
            cooperative execution, Section 5).
        npu: optional neural processing unit, per the paper's Section
            8.3 extension; None for the physical Exynos 7420/7880.
    """

    name: str
    display_name: str
    cpu: ProcessorSpec
    gpu: ProcessorSpec
    memory: MemorySpec
    static_power_w: float
    sync_us: float
    npu: Optional[ProcessorSpec] = None

    def processor(self, kind: "ProcessorKind | str") -> ProcessorSpec:
        """The processor of a kind (``"cpu"``/``"gpu"``/``"npu"``).

        Raises:
            SimulationError: when asking for an NPU on an SoC without
            one.
        """
        if isinstance(kind, str):
            kind = ProcessorKind(kind.lower())
        if kind is ProcessorKind.CPU:
            return self.cpu
        if kind is ProcessorKind.GPU:
            return self.gpu
        if self.npu is None:
            raise SimulationError(f"{self.name} has no NPU")
        return self.npu

    @property
    def has_npu(self) -> bool:
        """True when the SoC carries a neural processing unit."""
        return self.npu is not None

    def resources(self) -> List[str]:
        """The processor resource names this SoC provides."""
        names = ["cpu", "gpu"]
        if self.npu is not None:
            names.append("npu")
        return names

    def sync_seconds(self) -> float:
        """CPU-accelerator synchronization cost in seconds."""
        return self.sync_us * 1e-6


EXYNOS_7420 = SoCSpec(
    name="exynos7420",
    display_name="Exynos 7420 (high-end, Galaxy Note 5)",
    cpu=ProcessorSpec(
        name="4xCortex-A57@2.1GHz + 4xCortex-A53@1.5GHz",
        kind=ProcessorKind.CPU,
        cores=4,                 # big cluster carries the GEMM work
        frequency_ghz=2.1,
        macs_per_cycle={
            DType.F32: 8.0,      # 2x128-bit NEON FMA pipes
            DType.F16: 8.0,      # emulated via F32 (no vector F16)
            DType.QUINT8: 19.0,  # gemmlowp 8-bit multiply-add chains
        },
        simple_ops_per_cycle=8.0,
        sustained_efficiency=0.30,
        ramp_macs=3.0e5,
        ramp_channels=0.0,
        kernel_launch_us=8.0,
        active_power_w=4.6,
        power_scale={DType.F32: 1.0, DType.F16: 1.0, DType.QUINT8: 0.78},
        idle_power_w=0.30,
    ),
    gpu=ProcessorSpec(
        name="Mali-T760MP8@700MHz",
        kind=ProcessorKind.GPU,
        cores=8,
        frequency_ghz=0.7,
        macs_per_cycle={
            DType.F32: 10.0,
            DType.F16: 20.0,     # native half-width ALUs: 2x F32
            DType.QUINT8: 8.6,   # i32 accumulation halves concurrency
        },
        simple_ops_per_cycle=16.0,
        sustained_efficiency=0.60,
        ramp_macs=3.0e6,
        ramp_channels=48.0,
        kernel_launch_us=55.0,
        active_power_w=1.9,
        power_scale={DType.F32: 1.0, DType.F16: 0.88, DType.QUINT8: 0.95},
        idle_power_w=0.20,
    ),
    memory=MemorySpec(
        name="LPDDR4-2x32 (effective)",
        bandwidth_gb_s=15.0,
        energy_per_byte_nj=0.15,
        map_fixed_us=18.0,
        map_per_mb_us=1.5,
        copy_per_mb_us=150.0,
        capacity_mb=4096.0,      # Galaxy Note 5 ships 4 GB LPDDR4
    ),
    static_power_w=0.55,
    sync_us=70.0,
)

EXYNOS_7880 = SoCSpec(
    name="exynos7880",
    display_name="Exynos 7880 (mid-range, Galaxy A5)",
    cpu=ProcessorSpec(
        name="8xCortex-A53@1.9GHz",
        kind=ProcessorKind.CPU,
        cores=8,
        frequency_ghz=1.9,
        macs_per_cycle={
            DType.F32: 4.0,      # one 128-bit NEON FMA pipe per A53
            DType.F16: 4.0,
            DType.QUINT8: 9.0,
        },
        simple_ops_per_cycle=4.0,
        sustained_efficiency=0.25,
        ramp_macs=2.5e5,
        ramp_channels=0.0,
        kernel_launch_us=10.0,
        active_power_w=2.6,
        power_scale={DType.F32: 1.0, DType.F16: 1.0, DType.QUINT8: 0.78},
        idle_power_w=0.25,
    ),
    gpu=ProcessorSpec(
        name="Mali-T830MP3@962MHz",
        kind=ProcessorKind.GPU,
        cores=3,
        frequency_ghz=0.962,
        macs_per_cycle={
            DType.F32: 8.0,
            DType.F16: 18.0,
            DType.QUINT8: 6.8,
        },
        simple_ops_per_cycle=12.0,
        sustained_efficiency=0.56,
        ramp_macs=1.2e6,     # a 3-core GPU saturates with less parallelism
        ramp_channels=16.0,
        kernel_launch_us=65.0,
        active_power_w=1.15,
        power_scale={DType.F32: 1.0, DType.F16: 0.88, DType.QUINT8: 0.95},
        idle_power_w=0.15,
    ),
    memory=MemorySpec(
        name="LPDDR3 (effective)",
        bandwidth_gb_s=8.0,
        energy_per_byte_nj=0.18,
        map_fixed_us=22.0,
        map_per_mb_us=2.0,
        copy_per_mb_us=250.0,
        capacity_mb=3072.0,      # Galaxy A5 (2017) ships 3 GB LPDDR3
    ),
    static_power_w=0.40,
    sync_us=85.0,
)

#: A DianNao/Edge-TPU-class mobile NPU: enormous 8-bit MAC throughput,
#: integer-only, driver-dispatched with a high per-kernel launch cost,
#: and needing very large, wide kernels to reach peak -- the profile
#: the paper's Section 8.3 extension anticipates.
_MOBILE_NPU = ProcessorSpec(
    name="mobile-NPU (int8 systolic array)",
    kind=ProcessorKind.NPU,
    cores=1,
    frequency_ghz=0.8,
    macs_per_cycle={DType.QUINT8: 512.0},     # 32x16 MAC array
    simple_ops_per_cycle=32.0,
    sustained_efficiency=0.35,
    ramp_macs=2.0e7,          # needs huge kernels to fill the array
    ramp_channels=96.0,       # and many output channels
    kernel_launch_us=110.0,   # driver round trip
    active_power_w=1.1,
    power_scale={DType.QUINT8: 1.0},
    idle_power_w=0.10,
)

#: Hypothetical NPU-equipped high-end SoC for the Section 8.3
#: extension experiments (e.g. Kirin 970-class, Section 8.3's example).
EXYNOS_7420_NPU = dataclasses.replace(
    EXYNOS_7420,
    name="exynos7420npu",
    display_name="Exynos 7420 + mobile NPU (hypothetical, Section 8.3)",
    npu=_MOBILE_NPU,
)

#: All simulated SoCs keyed by name.
SOCS = {spec.name: spec
        for spec in (EXYNOS_7420, EXYNOS_7880, EXYNOS_7420_NPU)}


def soc_by_name(name: str) -> SoCSpec:
    """Look up a SoC spec by registry name.

    Raises:
        UnknownNameError: if the name is unknown (message lists known
            SoCs).
    """
    try:
        return SOCS[name]
    except KeyError:
        known = ", ".join(sorted(SOCS))
        raise UnknownNameError(
            f"unknown SoC {name!r}; known SoCs: {known}") from None
