"""Static verification of execution plans (rules PV001-PV012, PV014).

The partitioner validates the plans it builds, but plans also arrive
from other sources -- hand-written baselines, future serialized plans,
test fixtures -- and :meth:`ExecutionPlan.validate` only checks
coverage, raising on the first problem.  The :class:`PlanVerifier`
instead proves the full set of invariants an execution relies on and
reports *every* violation as a structured diagnostic:

* coverage: each compute layer assigned exactly once (PV001-PV003);
* share sanity: splits inside [0, 1], CPU+NPU shares never exceeding
  1.0 (so the GPU share cannot go negative), and share vectors
  consistent with the declared placement (PV004);
* channel partitions: the cooperative channel ranges cover the layer's
  output channels exactly once with no gap or overlap (PV005), and
  only for layer kinds that support channel-wise distribution (PV006);
* placement legality per SoC: no NPU work on NPU-less SoCs (PV007);
* branch regions: mappings aligned with branches, regions
  self-contained, fork before join (PV008);
* quantization compatibility: cooperative GPU shares computed in
  QUInt8 (the GPU-unfriendly type, paper Fig. 8) and NPU shares under
  float-activation policies are flagged (PV009/PV010, warnings);
* batch consistency: the plan's batch size is a positive integer --
  every placement in a plan was chosen for that one batch size, and
  the executor refuses mixed-batch runs, so a malformed batch field
  would silently corrupt batch-keyed plan-cache lookups (PV011);
* compiled-program consistency: :func:`verify_program` proves a
  :class:`~repro.compile.program.CompiledProgram`'s declarative
  metadata -- step coverage and order, per-step placements and channel
  ranges, storage dtypes, batch, and weight freshness -- against the
  plan it claims to lower (PV012);
* kernel-variant legality: :func:`verify_tuned_variants` proves every
  step's kernel variant statically legal for its step's kind,
  geometry, and dtypes (PV014).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Set, Tuple

from ..errors import GraphError, PlanError, ShapeError
from ..nn import Graph, assert_region_partitions
from ..runtime.distribution import channel_ranges, output_channels_of
from ..runtime.pfq import QuantizationPolicy
from ..runtime.plan import (BranchAssignment, ExecutionPlan,
                            LayerAssignment, Placement)
from ..soc import SoCSpec
from ..tensor import DType
from .diagnostics import Report

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..compile.program import CompiledProgram

#: Numerical slack for share-sum comparisons, matching the runtime.
_SHARE_EPS = 1e-9

#: Legal branch mapping targets.
_BRANCH_TARGETS = ("cpu", "gpu", "npu")


class PlanVerifier:
    """Statically checks an :class:`ExecutionPlan` against its graph."""

    def __init__(self, soc: SoCSpec) -> None:
        self.soc = soc

    def verify(self, graph: Graph, plan: ExecutionPlan) -> Report:
        """Prove the plan's invariants; returns all violations found."""
        report = Report()
        if plan.graph_name != graph.name:
            report.error(
                "PV001", "plan",
                f"plan built for graph {plan.graph_name!r} applied to "
                f"graph {graph.name!r}")
        self._check_batch(plan, report)
        branch_layers = self._check_branch_regions(graph, plan, report)
        self._check_coverage(graph, plan, branch_layers, report)
        for name, assignment in plan.assignments.items():
            if name not in graph:
                continue    # already reported by coverage (PV001)
            self._check_assignment(graph, plan.policy, assignment, report)
        return report

    # -- batch consistency ---------------------------------------------------

    @staticmethod
    def _check_batch(plan: ExecutionPlan, report: Report) -> None:
        """PV011: the plan-wide batch size must be a positive integer.

        The batch is a plan-wide property: all placements share it, and
        the plan cache keys entries by it, so a bogus value here means
        every downstream timing and every cache lookup is wrong.
        """
        if (not isinstance(plan.batch, int)
                or isinstance(plan.batch, bool) or plan.batch < 1):
            report.error(
                "PV011", "plan",
                f"plan batch must be a positive integer, got "
                f"{plan.batch!r}; batch-keyed plan-cache entries must "
                "never be mixed")

    # -- coverage ----------------------------------------------------------

    def _check_coverage(self, graph: Graph, plan: ExecutionPlan,
                        branch_layers: Set[str], report: Report) -> None:
        compute = set(graph.compute_layers())
        assigned = set(plan.assignments)
        for name in sorted((assigned | branch_layers) - compute):
            if name in graph:
                report.error(
                    "PV001", name,
                    "plan assigns an Input layer; only compute layers "
                    "are scheduled")
            else:
                report.error(
                    "PV001", name,
                    f"plan assigns a layer that graph {graph.name!r} "
                    "does not contain")
        for name in sorted(assigned & branch_layers):
            report.error(
                "PV003", name,
                "layer assigned both individually and via a branch "
                "region")
        for name in sorted(compute - assigned - branch_layers):
            report.error("PV002", name, "compute layer is unassigned")

    # -- per-layer assignments ---------------------------------------------

    def _check_assignment(self, graph: Graph, policy: QuantizationPolicy,
                          assignment: LayerAssignment,
                          report: Report) -> None:
        name = assignment.layer
        if not self._check_shares(assignment, report):
            return    # share vector unusable; later checks would lie
        if assignment.uses_npu and not self.soc.has_npu:
            report.error(
                "PV007", name,
                f"assignment targets the NPU but {self.soc.name} has "
                "none")
        elif assignment.uses_npu and not policy.activation_storage \
                .is_quantized:
            report.warning(
                "PV010", name,
                f"NPU share under policy {policy.name!r} storing "
                f"{policy.activation_storage} activations; NPUs "
                "consume QUInt8 tensors")
        if assignment.placement is Placement.COOPERATIVE:
            self._check_cooperative(graph, policy, assignment, report)

    def _check_shares(self, assignment: LayerAssignment,
                      report: Report) -> bool:
        """PV004: range, sum, and placement/share consistency."""
        name = assignment.layer
        ok = True
        for label, share in (("split", assignment.split),
                             ("npu_split", assignment.npu_split)):
            if not 0.0 <= share <= 1.0:
                report.error("PV004", name,
                             f"{label} {share} outside [0, 1]")
                ok = False
        total = assignment.split + assignment.npu_split
        if ok and total > 1.0 + _SHARE_EPS:
            report.error(
                "PV004", name,
                f"cpu share {assignment.split} + npu share "
                f"{assignment.npu_split} exceed 1.0, leaving the GPU "
                "a negative share")
            ok = False
        if not ok:
            return False
        expected = {
            Placement.CPU: (1.0, 0.0),
            Placement.GPU: (0.0, 0.0),
            Placement.NPU: (0.0, 1.0),
        }.get(assignment.placement)
        if expected is not None and (assignment.split,
                                     assignment.npu_split) != expected:
            report.error(
                "PV004", name,
                f"{assignment.placement} placement requires shares "
                f"(split, npu_split) == {expected}, got "
                f"({assignment.split}, {assignment.npu_split})")
            return False
        if (assignment.placement is Placement.COOPERATIVE
                and len(assignment.shares()) < 2):
            report.error(
                "PV004", name,
                "cooperative placement with fewer than two processors "
                "holding non-zero shares")
            return False
        return True

    def _check_cooperative(self, graph: Graph,
                           policy: QuantizationPolicy,
                           assignment: LayerAssignment,
                           report: Report) -> None:
        name = assignment.layer
        layer = graph.layer(name)
        if not layer.supports_channel_split:
            report.error(
                "PV006", name,
                f"layer kind {layer.kind} does not support channel-wise "
                "distribution")
            return
        shares = assignment.shares()
        try:
            total = output_channels_of(graph, name)
            ranges = channel_ranges(total, shares)
        except (PlanError, ShapeError) as exc:
            report.error("PV005", name,
                         f"channel partition infeasible: {exc}")
            return
        self._check_partition(name, total, ranges, report)
        if "gpu" in shares and policy.gpu_compute is DType.QUINT8:
            report.warning(
                "PV009", name,
                "cooperative GPU share computes in QUInt8; the GPU is "
                "~2x faster in F16 (Fig. 8) -- use the processor-"
                "friendly policy")

    @staticmethod
    def _check_partition(name: str, total: int,
                         ranges: Dict[str, Tuple[int, int]],
                         report: Report) -> None:
        """PV005: the ranges must tile [0, total) exactly once."""
        cursor = 0
        for resource, (lo, hi) in ranges.items():
            if lo != cursor:
                kind = "overlaps" if lo < cursor else "leaves a gap in"
                report.error(
                    "PV005", name,
                    f"{resource} range [{lo}, {hi}) {kind} the channel "
                    f"partition (expected to start at {cursor})")
                return
            if hi <= lo:
                report.error(
                    "PV005", name,
                    f"{resource} range [{lo}, {hi}) is empty")
                return
            cursor = hi
        if cursor != total:
            report.error(
                "PV005", name,
                f"partition covers {cursor} of {total} output channels")

    # -- branch regions -----------------------------------------------------

    def _check_branch_regions(self, graph: Graph, plan: ExecutionPlan,
                              report: Report) -> Set[str]:
        """PV007/PV008 over branch assignments; returns covered layers."""
        covered: Set[str] = set()
        try:
            topo_index = {name: i for i, name in
                          enumerate(graph.topological_order())}
        except GraphError:
            topo_index = {}
        for branch_assignment in plan.branch_assignments:
            region = branch_assignment.region
            locus = f"{region.fork}->{region.join}"
            for name in region.layer_names:
                if name in covered:
                    report.error(
                        "PV003", name,
                        f"layer appears in two branch regions "
                        f"(second: {locus})")
                covered.add(name)
            self._check_one_region(graph, branch_assignment, topo_index,
                                   locus, report)
        return covered

    def _check_one_region(self, graph: Graph,
                          branch_assignment: BranchAssignment,
                          topo_index: Dict[str, int], locus: str,
                          report: Report) -> None:
        region = branch_assignment.region
        mapping = branch_assignment.mapping
        if len(mapping) != len(region.branches):
            report.error(
                "PV008", locus,
                f"{len(mapping)} branch placements for "
                f"{len(region.branches)} branches")
        for target in mapping:
            if target not in _BRANCH_TARGETS:
                report.error(
                    "PV008", locus,
                    f"branch placement {target!r} is not one of "
                    f"{_BRANCH_TARGETS}")
            elif target == "npu" and not self.soc.has_npu:
                report.error(
                    "PV007", locus,
                    f"branch mapped to the NPU but {self.soc.name} has "
                    "none")
        missing = [name for name in (region.fork, region.join)
                   if name not in graph]
        missing.extend(name for name in region.layer_names
                       if name not in graph)
        if missing:
            report.error(
                "PV008", locus,
                f"region references layers missing from the graph: "
                f"{sorted(set(missing))}")
            return
        if topo_index and topo_index[region.fork] >= topo_index[region.join]:
            report.error(
                "PV008", locus,
                "region fork does not precede its join in topological "
                "order")
            return
        try:
            assert_region_partitions(graph, region)
        except GraphError as exc:
            report.error(
                "PV008", locus,
                f"region is not a self-contained fork/join span: {exc}")


# -- compiled-program consistency (PV012) -----------------------------------

def _expected_parts(plan: ExecutionPlan, name: str, total: int
                    ) -> Tuple[Tuple[str, "Tuple[int, int] | None"], ...]:
    """The placement parts a compiled step must carry for ``name``.

    Mirrors the compiler's lowering: a single-processor placement is
    one whole-layer part, a cooperative one is the plan's channel
    ranges over the layer's output channels, in channel order.
    """
    placement = plan.placement_of(name)
    if isinstance(placement, LayerAssignment):
        shares = placement.shares()
    else:
        shares = {placement: 1.0}
    if len(shares) == 1:
        (resource,) = shares
        return ((resource, None),)
    ranges = channel_ranges(total, shares)
    return tuple((resource, (lo, hi))
                 for resource, (lo, hi) in ranges.items())


def verify_program(graph: Graph, plan: ExecutionPlan,
                   program: object) -> Report:
    """PV012: prove a compiled program consistent with its plan.

    A :class:`~repro.compile.program.CompiledProgram` claims to be a
    faithful lowering of one plan over one graph; this rule checks the
    claim from the program's declarative metadata alone (no kernels
    run):

    * provenance -- the program names the plan's graph and policy and
      was lowered from this exact plan object;
    * coverage -- one step per compute layer, in the graph's
      topological order, with the graph's producer edges, plus one
      input spec per Input layer and the graph's output set;
    * placements -- each step's ``(resource, channel range)`` parts
      equal what the plan assigns (cooperative ranges re-derived from
      the plan's shares);
    * dtypes -- every step stores the policy's activation storage
      type;
    * batch -- a positive integer the plan is valid for (a batch-B
      plan only compiles at batch B);
    * freshness -- the weight arrays captured at compile time are
      still the graph's (``set_weights`` makes a program stale).

    Returns a report with one PV012 error per violated invariant.
    """
    report = Report()

    def bad(locus: str, message: str) -> None:
        report.error("PV012", locus, message)

    if program.graph_name != graph.name:
        bad("program", f"program compiled for graph "
            f"{program.graph_name!r} checked against {graph.name!r}")
    if program.policy_name != plan.policy.name:
        bad("program", f"program policy {program.policy_name!r} != "
            f"plan policy {plan.policy.name!r}")
    if getattr(program, "plan", None) is not plan:
        bad("program", "program was lowered from a different plan "
            "object (plans are mutable; a program never outlives "
            "its plan)")
    batch = program.batch
    if not isinstance(batch, int) or isinstance(batch, bool) or batch < 1:
        bad("program", f"program batch must be a positive integer, "
            f"got {batch!r}")
    elif plan.batch not in (1, batch):
        bad("program", f"plan partitioned for batch {plan.batch} but "
            f"the program is specialized for batch {batch}")
    if program.is_stale(graph):
        bad("program", "program captured weight arrays the graph no "
            "longer holds (set_weights since compilation); recompile")

    compute = list(graph.compute_layers())
    step_layers = [step.layer for step in program.steps]
    if step_layers != compute:
        bad("program", f"steps {step_layers} do not match the graph's "
            f"compute layers in topological order ({compute})")
    input_layers = sorted(spec.layer for spec in program.inputs)
    if input_layers != sorted(graph.input_layers()):
        bad("program", f"input specs {input_layers} != graph inputs "
            f"{sorted(graph.input_layers())}")
    if tuple(program.outputs) != tuple(graph.output_layers()):
        bad("program", f"outputs {tuple(program.outputs)} != graph "
            f"outputs {tuple(graph.output_layers())}")

    try:
        shapes = graph.infer_shapes()
    except (GraphError, ShapeError) as exc:
        bad("program", f"graph shapes cannot be inferred: {exc}")
        return report
    storage = plan.policy.activation_storage
    for step in program.steps:
        if step.layer not in graph:
            continue    # already reported by the coverage check
        layer = graph.layer(step.layer)
        if step.kind != layer.kind.value:
            bad(step.layer, f"step kind {step.kind!r} != layer kind "
                f"{layer.kind.value!r}")
        if tuple(step.inputs) != tuple(graph.inputs_of(step.layer)):
            bad(step.layer, f"step inputs {tuple(step.inputs)} != "
                f"graph producers {tuple(graph.inputs_of(step.layer))}")
        if step.dtype is not storage:
            bad(step.layer, f"step stores {step.dtype} but the policy "
                f"stores activations as {storage}")
        try:
            expected = _expected_parts(plan, step.layer,
                                       int(shapes[step.layer][1]))
        except PlanError as exc:
            bad(step.layer, f"plan carries no usable placement: {exc}")
            continue
        if tuple(step.placements) != expected:
            bad(step.layer, f"step placements "
                f"{tuple(step.placements)} != plan placements "
                f"{expected}")
    return report


# -- kernel-variant legality (PV014) ------------------------------------------

def verify_tuned_variants(graph: Graph, plan: ExecutionPlan,
                          program: "CompiledProgram") -> Report:
    """PV014: prove every step's kernel variant legal.

    The compiler admits ``direct1x1`` dynamically (byte identity with
    the reference lowering on a synthesized input); this rule re-proves
    the *static* side of each choice from the program's metadata alone,
    so a tampered or hand-built program cannot smuggle a variant onto a
    step shape it was never derived for:

    * the variant name is known;
    * ``direct1x1`` only on 1x1/stride-1/unpadded convs (anything else
      has a non-trivial im2col the direct GEMM would skip);
    * ``direct1x1`` only on a step with at least one float part: it
      changes float parts alone, and an integer part's reference
      lowering is already its only one (at k=1 the shifted-tap kernel
      *is* the direct NCHW GEMM).

    Whether a legal ``direct1x1`` was *taken* depends on the byte
    check, i.e. on the host BLAS, so the rule checks legality, not the
    choice itself.  Returns a report with one PV014 error per violated
    invariant.
    """
    report = Report()

    def bad(locus: str, message: str) -> None:
        report.error("PV014", locus, message)

    for step in program.steps:
        variant = getattr(step, "variant", "reference")
        if variant == "reference":
            continue
        locus = step.layer
        if variant != "direct1x1":
            bad(locus, f"unknown kernel variant {variant!r}")
            continue
        if step.layer not in graph:
            bad(locus, f"variant {variant!r} on a step absent from the "
                "graph")
            continue
        layer = graph.layer(step.layer)
        kernel = getattr(layer, "kernel", None)
        stride = getattr(layer, "stride", None)
        padding = getattr(layer, "padding", None)
        if step.kind != "conv":
            bad(locus, f"direct1x1 on a {step.kind!r} step; only "
                "convolutions have an im2col to skip")
        elif (kernel, stride, padding) != (1, 1, 0):
            bad(locus, "direct1x1 requires a 1x1/stride-1/unpadded "
                f"conv, got kernel={kernel} stride={stride} "
                f"padding={padding}")
        if step.dtype is DType.QUINT8 and all(
                plan.policy.compute_dtype(resource) is DType.QUINT8
                for resource, _ in step.placements):
            bad(locus, f"{variant} on an integer-only step; integer "
                "parts have no lowering but the reference")
    return report
