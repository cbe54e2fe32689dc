"""The serving subsystem: multi-request, multi-device simulation.

Layers an SLO-aware serving simulator on top of the single-inference
μLayer runtime (out of the paper's scope, but squarely on the
reproduction's north star): seeded workload generators produce request
traces, a fleet of simulated SoC devices executes them through the real
partitioner/executor stack behind a shared plan cache, and pluggable
schedulers decide who runs where -- including an EDF policy that picks
the execution mechanism per request using the latency predictor.
"""

from .config import ServeConfig
from .fleet import (Completion, Device, Fleet, SINGLE_PROCESSOR_DTYPES,
                    default_slos, plan_resources)
from .metrics import ServingMetrics, percentile
from .scheduler import (Action, DynamicBatchScheduler, EDFScheduler,
                        FIFOScheduler, LeastLoadedScheduler, Scheduler,
                        Shed, Start, make_scheduler)
from .simulator import ServingResult, ServingSimulator, ShedRecord
from .workload import (BurstyWorkload, PoissonWorkload, Request,
                       TenantClass, TraceSegment, TraceWorkload,
                       WorkloadGenerator, bursty_for_rate,
                       diurnal_trace, flash_crowd_trace, load_trace)

__all__ = [
    "ServeConfig",
    "Completion",
    "Device",
    "Fleet",
    "SINGLE_PROCESSOR_DTYPES",
    "default_slos",
    "plan_resources",
    "ServingMetrics",
    "percentile",
    "Action",
    "DynamicBatchScheduler",
    "EDFScheduler",
    "FIFOScheduler",
    "LeastLoadedScheduler",
    "Scheduler",
    "Shed",
    "Start",
    "make_scheduler",
    "ServingResult",
    "ServingSimulator",
    "ShedRecord",
    "BurstyWorkload",
    "PoissonWorkload",
    "Request",
    "TenantClass",
    "TraceSegment",
    "TraceWorkload",
    "WorkloadGenerator",
    "bursty_for_rate",
    "diurnal_trace",
    "flash_crowd_trace",
    "load_trace",
]
