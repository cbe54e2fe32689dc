"""Channel-wise workload distribution (Section 3.2).

The CPU and the GPU process *disjoint* sets of channels, so no
computation is duplicated:

* convolutional and FC layers distribute their **filters** -- the CPU
  computes output channels ``[0, c)`` and the GPU ``[c, total)`` from
  the *shared* input (Figure 7a);
* pooling (and depthwise convolution, whose channels are likewise
  independent) distributes the **input channels** (Figure 7b).

This module provides the arithmetic of that split: channel counts,
contiguous per-processor channel ranges, and the per-processor
:class:`~repro.nn.LayerWork` fractions the timing model costs.  The
compiler and the interpreter slice weights by those ranges
themselves.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..errors import PlanError
from ..nn import Graph, LayerWork


def split_counts(total_channels: int, split: float) -> Tuple[int, int]:
    """Partition ``total_channels`` into (CPU, GPU) counts.

    The CPU receives ``round(split * total)`` channels.  For a strictly
    cooperative split (0 < p < 1) of at least two channels, both
    processors are guaranteed at least one channel so neither side
    degenerates to a no-op kernel.

    Raises:
        PlanError: if the split is outside [0, 1] or there are no
            channels to split.
    """
    if not 0.0 <= split <= 1.0:
        raise PlanError(f"split {split} outside [0, 1]")
    if total_channels < 1:
        raise PlanError("cannot split a layer with no channels")
    cpu = int(round(split * total_channels))
    cpu = max(0, min(total_channels, cpu))
    if 0.0 < split < 1.0 and total_channels >= 2:
        cpu = max(1, min(total_channels - 1, cpu))
    return cpu, total_channels - cpu


#: Canonical resource order for channel ranges: the CPU takes the
#: leading channels, the NPU the middle, the GPU the tail.
RESOURCE_ORDER = ("cpu", "npu", "gpu")


def share_counts(total_channels: int,
                 shares: "Mapping[str, float]") -> "Dict[str, int]":
    """Partition channels across processors by fractional shares.

    Shares must be positive and sum to 1 (within rounding).  Largest-
    remainder apportionment guarantees every participating processor
    at least one channel when enough channels exist.

    Raises:
        PlanError: on empty/invalid shares or too few channels.
    """
    active = [(resource, share) for resource, share in shares.items()
              if share > 0.0]
    if not active:
        raise PlanError("no processor has a positive share")
    total_share = sum(share for _, share in active)
    if abs(total_share - 1.0) > 1e-6:
        raise PlanError(f"shares sum to {total_share}, expected 1.0")
    if total_channels < len(active):
        raise PlanError(
            f"cannot split {total_channels} channels across "
            f"{len(active)} processors")
    ideal = {resource: share * total_channels
             for resource, share in active}
    counts = {resource: max(1, int(ideal[resource]))
              for resource, _ in active}
    # Distribute the remainder by largest fractional part.
    while sum(counts.values()) < total_channels:
        resource = max(active,
                       key=lambda item: ideal[item[0]]
                       - counts[item[0]])[0]
        counts[resource] += 1
    while sum(counts.values()) > total_channels:
        resource = min(active,
                       key=lambda item: ideal[item[0]]
                       - counts[item[0]])[0]
        if counts[resource] > 1:
            counts[resource] -= 1
        else:
            candidates = [r for r, _ in active if counts[r] > 1]
            counts[candidates[0]] -= 1
    return counts


def channel_ranges(total_channels: int, shares: "Mapping[str, float]"
                   ) -> "Dict[str, Tuple[int, int]]":
    """Contiguous [lo, hi) channel ranges per processor, in the
    canonical CPU -> NPU -> GPU order."""
    counts = share_counts(total_channels, shares)
    ranges: "Dict[str, Tuple[int, int]]" = {}
    cursor = 0
    for resource in RESOURCE_ORDER:
        if resource not in counts:
            continue
        ranges[resource] = (cursor, cursor + counts[resource])
        cursor += counts[resource]
    return ranges


def split_layer_work_shares(graph: Graph, layer_name: str,
                            shares: "Mapping[str, float]"
                            ) -> "Dict[str, LayerWork]":
    """Per-processor work of a layer split by fractional shares.

    The exact channel counts of :func:`share_counts` (not the raw
    shares) determine the fractions, so the timing model sees the same
    rounding the functional split does.  For filter-split layers every
    processor reads the *entire* input; for input-split layers each
    reads only its channel portion.
    """
    layer = graph.layer(layer_name)
    if not layer.supports_channel_split:
        raise PlanError(
            f"layer {layer_name!r} ({layer.kind}) does not support "
            "channel-wise distribution")
    shapes = graph.infer_shapes()
    input_shapes = [shapes[p] for p in graph.inputs_of(layer_name)]
    work = layer.work(input_shapes)
    total = output_channels_of(graph, layer_name)
    counts = share_counts(total, shares)
    result: "Dict[str, LayerWork]" = {}
    for resource, count in counts.items():
        fraction = count / total
        scaled = work.scaled(fraction)
        if layer.splits_filters:
            # The input is shared: every processor reads all of it.
            scaled = _with_input(scaled, work.input_elements)
        result[resource] = scaled
    return result


def output_channels_of(graph: Graph, layer_name: str) -> int:
    """Channel count along which a layer's workload is distributed."""
    shape = graph.infer_shapes()[layer_name]
    if len(shape) == 2:      # FC output: (batch, features)
        return shape[1]
    return shape[1]          # NCHW channel axis


def _with_input(work: LayerWork, input_elements: int) -> LayerWork:
    return LayerWork(macs=work.macs, simple_ops=work.simple_ops,
                     param_elements=work.param_elements,
                     input_elements=input_elements,
                     output_elements=work.output_elements,
                     parallel_channels=work.parallel_channels)
