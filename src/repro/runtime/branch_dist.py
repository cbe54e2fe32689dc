"""Branch distribution (Section 5, extended per Section 8.3).

For a fork/join region the branch distribution 1) collects the
single-processor execution latency of every branch, and 2) enumerates
branch-to-processor mappings, estimating each mapping's total latency
as the sum of the per-processor, per-branch latencies, and selecting
the mapping with the lowest estimate.  All layers of a branch execute
on a single processor -- branch distribution deliberately does *not*
combine with the channel-wise workload distribution inside a branch.

On NPU-equipped SoCs (Section 8.3: "the branch distribution can
benefit from having the NPU by being able to run more branches in
parallel") the mapping space extends to three processors; branches
containing layers the fixed-function NPU cannot execute (anything but
conv/FC) are never mapped to it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Sequence

from ..nn import BranchRegion, Graph, LayerKind, LayerWork
from ..soc import ISSUE_US, SoCSpec

#: Cost callback: (resource, work) -> busy seconds.
BusyFn = Callable[[str, LayerWork], float]

#: Layer kinds a fixed-function NPU can execute.
NPU_KINDS = frozenset({LayerKind.CONV, LayerKind.FC})


@dataclasses.dataclass(frozen=True)
class BranchProfile:
    """Per-branch single-processor latencies.

    Attributes:
        cpu_s: latency of running the whole branch on the CPU.
        gpu_s: latency on the GPU (includes per-layer launch overheads;
            commands inside a branch drain in order without CPU
            synchronization).
        npu_s: latency on the NPU, or None when the SoC has no NPU or
            the branch contains NPU-incompatible layers.
    """

    cpu_s: float
    gpu_s: float
    npu_s: Optional[float] = None

    def cost(self, resource: str) -> float:
        """Latency on ``resource`` (inf when unavailable)."""
        if resource == "cpu":
            return self.cpu_s
        if resource == "gpu":
            return self.gpu_s
        return self.npu_s if self.npu_s is not None else math.inf


def _branch_cost(graph: Graph, branch: Sequence[str], soc: SoCSpec,
                 busy_fn: BusyFn, resource: str) -> float:
    cost = 0.0
    for name in branch:
        work = graph.layer_work(name)
        cost += busy_fn(resource, work)
        cost += soc.processor(resource).launch_seconds()
        if resource != "cpu":
            cost += ISSUE_US * 1e-6
    return cost


def profile_branches(graph: Graph, region: BranchRegion, soc: SoCSpec,
                     busy_fn: BusyFn) -> List[BranchProfile]:
    """Single-processor latency of every branch of ``region``."""
    profiles = []
    for branch in region.branches:
        cpu_s = _branch_cost(graph, branch, soc, busy_fn, "cpu")
        gpu_s = _branch_cost(graph, branch, soc, busy_fn, "gpu")
        npu_s = None
        if soc.has_npu and all(
                graph.layer(name).kind in NPU_KINDS for name in branch):
            npu_s = _branch_cost(graph, branch, soc, busy_fn, "npu")
        profiles.append(BranchProfile(cpu_s=cpu_s, gpu_s=gpu_s,
                                      npu_s=npu_s))
    return profiles


def estimate_mapping(profiles: Sequence[BranchProfile],
                     mapping: Sequence[str],
                     sync_s: float) -> float:
    """Estimated region latency of one branch-to-processor mapping.

    Branches on the same processor serialize; different processors run
    in parallel; a join synchronization is paid when any branch ran on
    an accelerator.  Mappings that put an incompatible branch on the
    NPU cost infinity.
    """
    totals: "dict[str, float]" = {}
    for profile, target in zip(profiles, mapping):
        totals[target] = totals.get(target, 0.0) + profile.cost(target)
    accel_used = any(target != "cpu" for target in mapping)
    estimate = max(totals.values()) if totals else 0.0
    if accel_used:
        estimate += sync_s
    return estimate
