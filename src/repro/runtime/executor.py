"""The NN executor: runs an execution plan on the simulated SoC.

For every layer the executor performs two things in lockstep:

* **timing** -- reserves busy intervals on the simulated processor
  timeline, modelling asynchronous command issue, in-order queue
  semantics, CPU-accelerator synchronization, and zero-copy buffer
  mapping (the Section 6 implementation optimizations, both of which
  can be switched off for the ablation studies);
* **functional execution** (optional) -- computes the actual output
  numbers through :class:`LayerComputer` when input data is supplied,
  so correctness of the distribution mechanisms is checked by the same
  code path that is timed.

The GPU is always present; on NPU-equipped SoCs (the paper's Section
8.3 extension) a second in-order command queue drives the NPU, and
cooperative layers may split channels three ways.

Timing covers any batch size: batch-1 is the paper's
mobile-interactive latency metric and reproduces the original numbers
bit-for-bit, while batch-N runs amortize weight traffic and kernel
launches across the batch (the serving layer's throughput lever).
Batched functional execution feeds each sample through the same
batch-1 kernels and stacks the outputs, mirroring row-independent GEMM
hardware -- so a request's numbers never depend on what it was batched
with (numpy's BLAS would otherwise leak the batch shape into float
results through its blocking heuristics).

``run(..., program=...)`` swaps the per-layer functional
interpretation for a :class:`~repro.compile.program.CompiledProgram`
lowered from the same plan -- a flat fused-kernel schedule whose
outputs are byte-identical to the interpreted path.  The executor
keeps no program memo: :class:`~repro.runtime.mulayer.MuLayer` caches
programs next to their plans in its
:class:`~repro.runtime.plan_cache.PlanCache`.

The simulated timeline is a pure function of (graph, plan, batch): the
SoC and the zero-copy/async switches are fixed per executor, and the
graph's weights never enter the timing model.  Compiled and
timing-only runs therefore simulate each (graph, plan, batch) once and
replay the outcome from a bounded LRU memo, keyed by object identity
and identity-checked on every hit.  This relies on plans being
immutable once built, which the plan cache and program identity
already assume.  A memo hit still runs every per-call check (plan
validation, batch resolution, program identity and staleness, the
``verify=True`` analyzers) and returns a fresh shallow copy with its
own mechanism label, outputs and diagnostics; the timeline and traces
are shared with the memo entry and are read-only.  The interpreted
path (input data given, no program) re-simulates every run, because
it is the byte-identity oracle: a fresh uncached
:class:`LayerComputer` computes every layer from the graph's current
arrays.  The serving fleet keeps its own replay memo on top
(``Fleet._run_memoized``): it also skips the plan validation a memo
hit here still pays on every dispatch.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import PlanError
from ..nn import Graph, LayerWork
from ..nn.layers import Input
from ..quant.calibrate import CalibrationTable
from ..soc import (CommandQueue, CPU, EnergyModel, GPU, NPU, SoCSpec,
                   Timeline, kernel_cost, kernel_traffic_bytes)
from ..tensor import Tensor, require_finite
from .compute import LayerComputer
from .distribution import split_layer_work_shares
from .metrics import InferenceResult, LayerTrace
from .plan import BranchAssignment, ExecutionPlan, LayerAssignment, Placement

#: Resources whose kernels are dispatched through a command queue.
_ACCELERATORS = (GPU, NPU)


class Executor:
    """Executes plans on one simulated SoC.

    Args:
        soc: the target SoC.
        zero_copy: share processor buffers via mapping (True, the
            paper's design) or copy explicitly (False, the ablation).
        async_issue: issue accelerator commands asynchronously so they
            overlap with CPU work (True) or block on each command
            (False).
        verify: run the static analyzers around every execution --
            plan verifier and dtype-flow linter before, race detector
            after.  Errors raise
            :class:`~repro.errors.VerificationError`; the full report
            (including warnings) is attached to the result's
            ``diagnostics`` field.
        op_caches: must be False; the interpreter has no operand
            caches, and True raises :class:`ValueError`.
    """

    #: How many (graph, plan, batch) timing outcomes an executor
    #: keeps; sized above the 15 (model, batch) pairs of five models
    #: served at three batch sizes, which an 8-entry LRU would thrash.
    _TIMING_MEMO_ENTRIES = 64

    def __init__(self, soc: SoCSpec, zero_copy: bool = True,
                 async_issue: bool = True, verify: bool = False,
                 op_caches: bool = False) -> None:
        # op_caches stays only for perfbench's Executor(soc, op_caches=False).
        if op_caches:
            raise ValueError("the interpreter has no operand caches; "
                             "op_caches must be False")
        self.soc = soc
        self.zero_copy = zero_copy
        self.async_issue = async_issue
        self.verify = verify
        # Timing-only outcomes: (graph, plan, result) per
        # (id(graph), id(plan), batch), identity-checked on reuse.
        self._timings: ("OrderedDict[Tuple[int, int, int], Tuple["
                        "Graph, ExecutionPlan, InferenceResult]]"
                        ) = OrderedDict()
        self.timing_hits = 0
        self.timing_misses = 0
        self.timing_evictions = 0

    def _simulated(self, graph: Graph, plan: ExecutionPlan, batch: int,
                   mechanism: str) -> InferenceResult:
        """The timing-only outcome of (graph, plan, batch), simulated
        once and replayed as a fresh shallow copy labelled
        ``mechanism`` (see the module docstring)."""
        key = (id(graph), id(plan), batch)
        entry = self._timings.get(key)
        # Identity check via the stored references guards against id()
        # recycling of dead objects.
        if entry is None or entry[0] is not graph or entry[1] is not plan:
            self.timing_misses += 1
            run_state = _RunState(self, graph, plan, None, None, batch)
            run_state.execute()
            entry = (graph, plan, run_state.result(mechanism))
            self._timings[key] = entry
        else:
            self.timing_hits += 1
        self._timings.move_to_end(key)
        while len(self._timings) > self._TIMING_MEMO_ENTRIES:
            self._timings.popitem(last=False)
            self.timing_evictions += 1
        return dataclasses.replace(entry[2], mechanism=mechanism)

    def stats(self) -> Dict[str, float]:
        """Timing-memo counters as a JSON-friendly dict (shaped like
        :meth:`~repro.runtime.plan_cache.PlanCache.stats`)."""
        lookups = self.timing_hits + self.timing_misses
        return {
            "timing_entries": float(len(self._timings)),
            "timing_hits": float(self.timing_hits),
            "timing_misses": float(self.timing_misses),
            "timing_hit_rate": (self.timing_hits / lookups
                                if lookups else 0.0),
            "timing_evictions": float(self.timing_evictions),
        }

    def run(self, graph: Graph, plan: ExecutionPlan,
            x: Optional[np.ndarray] = None,
            calibration: Optional[CalibrationTable] = None,
            mechanism: str = "custom",
            batch: Optional[int] = None,
            program=None) -> InferenceResult:
        """Execute ``graph`` according to ``plan``.

        Args:
            graph: the network (must match the plan).
            x: input batch for functional execution; omit for a
                timing-only run (required for weight-less graphs).
            calibration: per-layer activation ranges, required for
                functional execution under a quantized policy.
            mechanism: label recorded in the result.
            batch: batch size to time.  Defaults to the leading
                dimension of ``x`` when input data is given, else to
                the plan's batch.  A plan built for batch B > 1 only
                runs at batch B; a batch-1 plan runs at any batch (its
                splits are then reused, only the timing scales).
            program: a :class:`~repro.compile.program.CompiledProgram`
                lowered from ``plan`` itself (the same object) for the
                graph's current weights, ``calibration`` and the run
                batch.  With input data, the functional outputs come
                from the program instead of the per-layer interpreter
                (byte-identical results; timing is unaffected, and
                replayed from the timing memo).  Ignored for
                timing-only runs.

        Returns:
            The inference result with latency, energy, traces, and
            (for functional runs) all layer outputs.

        Raises:
            NonFiniteInputError: ``x`` holds NaN or +-inf.
        """
        plan.validate(graph)
        batch = self._resolve_batch(plan, x, batch)
        compiled = program is not None and x is not None
        if x is not None and not compiled:
            # A compiled run's CompiledProgram.run checks its input.
            require_finite(np.asarray(x))
        report = (self._verify_static(graph, plan, calibration)
                  if self.verify else None)
        if compiled:
            if program.plan is not plan:
                raise PlanError(
                    "compiled program was lowered from a different plan "
                    "object; compile it from this plan")
            if program.batch != batch:
                raise PlanError(
                    f"program was compiled for batch {program.batch} "
                    f"but the run uses batch {batch}")
            if not program.matches(graph, calibration):
                raise PlanError(
                    "compiled program is stale for this graph/"
                    "calibration; recompile it")
            if report is not None:
                from ..analysis.plan_verifier import (
                    verify_program, verify_tuned_variants)
                report.extend(verify_program(graph, plan, program))
                report.extend(verify_tuned_variants(graph, plan,
                                                    program))
                report.raise_if_errors(
                    f"compiled program for {graph.name!r} on "
                    f"{self.soc.name}")
        # Compiled and timing-only runs replay the memoized timing
        # outcome; compiled runs then attach the program's outputs.
        if compiled or x is None:
            result = self._simulated(graph, plan, batch, mechanism)
        else:
            run_state = _RunState(self, graph, plan, x, calibration,
                                  batch)
            run_state.execute()
            result = run_state.result(mechanism)
        if compiled:
            result.outputs = program.run(x, keep="all")
        if report is not None:
            self._verify_timeline(graph, plan, result, report)
        return result

    @staticmethod
    def _resolve_batch(plan: ExecutionPlan, x: Optional[np.ndarray],
                       batch: Optional[int]) -> int:
        """The effective batch size of one run (validated)."""
        if batch is None:
            batch = int(x.shape[0]) if x is not None else plan.batch
        if batch < 1:
            raise PlanError(f"batch must be >= 1, got {batch}")
        if x is not None and x.shape[0] != batch:
            raise PlanError(
                f"input has batch {x.shape[0]} but the run was asked "
                f"for batch {batch}")
        if plan.batch not in (1, batch):
            raise PlanError(
                f"plan was partitioned for batch {plan.batch} but the "
                f"run uses batch {batch}; rebuild the plan (batch-keyed "
                "plan-cache entries must never be mixed)")
        return batch

    def _verify_static(self, graph: Graph, plan: ExecutionPlan,
                       calibration: Optional[CalibrationTable]):
        """Pre-execution verification (verify=True); fails fast on
        errors so a broken plan never reaches the timeline."""
        # Imported lazily: repro.analysis imports the runtime package.
        from ..analysis.dtypeflow import DtypeFlowLinter
        from ..analysis.plan_verifier import PlanVerifier
        report = PlanVerifier(self.soc).verify(graph, plan)
        report.extend(DtypeFlowLinter().lint(graph, plan.policy,
                                             calibration))
        report.raise_if_errors(
            f"plan for {graph.name!r} on {self.soc.name}")
        return report

    def _verify_timeline(self, graph: Graph, plan: ExecutionPlan,
                         result: InferenceResult, report) -> None:
        from ..analysis.races import TimelineRaceDetector
        report.extend(TimelineRaceDetector(self.soc).check(
            graph, plan, result.timeline))
        report.raise_if_errors(
            f"timeline of {graph.name!r} on {self.soc.name}")
        result.diagnostics = report


class _RunState:
    """Mutable state of one execution (timeline, values, traces)."""

    def __init__(self, executor: Executor, graph: Graph,
                 plan: ExecutionPlan, x: Optional[np.ndarray],
                 calibration: Optional[CalibrationTable],
                 batch: int = 1) -> None:
        self.executor = executor
        self.soc = executor.soc
        self.graph = graph
        self.plan = plan
        self.batch = batch
        self.timeline = Timeline()
        self.queues: Dict[str, CommandQueue] = {
            GPU: CommandQueue(self.timeline, self.soc.gpu,
                              executor.async_issue, resource=GPU),
        }
        if self.soc.has_npu:
            self.queues[NPU] = CommandQueue(
                self.timeline, self.soc.npu, executor.async_issue,
                resource=NPU)
        self.policy = plan.policy
        self.computer: Optional[LayerComputer] = None
        # One value dict per sample: the batched functional path runs
        # every sample through the same batch-1 kernels (hardware GEMM
        # is row-independent; numpy's BLAS blocking is not, so a fused
        # batch matmul would make float results depend on the batch).
        # Batch-1 keeps the single dict it always had.
        self.sample_values: List[Dict[str, Tensor]] = []
        self.sample_inputs: List[np.ndarray] = []
        if x is not None:
            self.computer = LayerComputer(graph, plan.policy,
                                          calibration)
            if batch == 1:
                self.sample_inputs = [x]
            else:
                self.sample_inputs = [x[i:i + 1] for i in range(batch)]
            self.sample_values = [{} for _ in self.sample_inputs]
        self.input_data = x
        self.ready: Dict[str, float] = {}
        self.producers: Dict[str, Set[str]] = {}
        self.traces: List[LayerTrace] = []
        self.traffic = 0.0
        self.shapes = graph.infer_shapes()
        self._region_of: Dict[str, BranchAssignment] = {}
        for branch_assignment in plan.branch_assignments:
            for name in branch_assignment.region.layer_names:
                self._region_of[name] = branch_assignment
        self._done_regions: Set[int] = set()

    # -- orchestration --------------------------------------------------------

    def execute(self) -> None:
        """Run all layers in topological order."""
        for name in self.graph.topological_order():
            layer = self.graph.layer(name)
            if isinstance(layer, Input):
                self._seed_input(name)
                continue
            region = self._region_of.get(name)
            if region is not None:
                if id(region) not in self._done_regions:
                    self._execute_region(region)
                    self._done_regions.add(id(region))
                continue
            self._execute_layer(name, self.plan.assignments[name])
        self.timeline.validate()

    def result(self, mechanism: str) -> InferenceResult:
        """Package the completed run."""
        energy = EnergyModel(self.soc).energy(self.timeline, self.traffic)
        return InferenceResult(
            graph_name=self.graph.name,
            soc_name=self.soc.name,
            policy_name=self.policy.name,
            mechanism=mechanism,
            latency_s=self.timeline.makespan(),
            energy=energy,
            timeline=self.timeline,
            traces=self.traces,
            traffic_bytes=self.traffic,
            outputs=self._outputs(),
            batch=self.batch,
        )

    def _outputs(self) -> Optional[Dict[str, Tensor]]:
        """Layer outputs, stacked back along the batch axis."""
        if self.computer is None:
            return None
        if self.batch == 1:
            return dict(self.sample_values[0])
        from ..tensor import concat_channels
        return {name: concat_channels(
                    [values[name] for values in self.sample_values],
                    axis=0)
                for name in self.sample_values[0]}

    # -- building blocks ------------------------------------------------------

    def _seed_input(self, name: str) -> None:
        self.ready[name] = 0.0
        self.producers[name] = {CPU}   # host data arrives CPU-side
        if self.computer is not None:
            for values, sample in zip(self.sample_values,
                                      self.sample_inputs):
                values[name] = self.computer.input_tensor(name, sample)

    def _layer_work(self, name: str) -> LayerWork:
        return self.graph.layer_work(name)

    def _activation_bytes(self, name: str) -> float:
        """Storage bytes of one layer's output at the run's batch size
        (the graph's declared leading dimension is replaced by it)."""
        shape = self.shapes[name]
        elements = int(np.prod(shape[1:])) * self.batch
        return float(elements * self.policy.activation_storage.itemsize)

    def _deps_ready(self, name: str) -> Tuple[float, Set[str]]:
        """(data-ready time, union of producer resources) of inputs."""
        inputs = self.graph.inputs_of(name)
        ready = max((self.ready[p] for p in inputs), default=0.0)
        resources: Set[str] = set()
        for producer in inputs:
            resources |= self.producers[producer]
        return ready, resources

    def _transition_to_cpu(self, name: str, data_ready: float,
                           input_resources: Set[str]) -> None:
        """Charge accelerator->CPU handoff: event sync + map/copy."""
        foreign = input_resources & set(_ACCELERATORS)
        if not foreign:
            return
        nbytes = sum(self._activation_bytes(p)
                     for p in self.graph.inputs_of(name)
                     if self.producers[p] & foreign)
        self.timeline.wait_until(CPU, data_ready)
        self.timeline.reserve(CPU, self.soc.sync_seconds(), name, "sync")
        self._charge_buffer_handoff(name, nbytes)

    def _transition_to_accel(self, name: str,
                             input_resources: Set[str],
                             target: str) -> None:
        """Charge handoff into an accelerator: cache flush / copy of
        data the accelerator did not produce itself."""
        foreign = input_resources - {target}
        if not foreign:
            return
        nbytes = sum(self._activation_bytes(p)
                     for p in self.graph.inputs_of(name)
                     if self.producers[p] - {target})
        self._charge_buffer_handoff(name, nbytes)

    def _charge_buffer_handoff(self, name: str, nbytes: float) -> None:
        memory = self.soc.memory
        if self.executor.zero_copy:
            self.timeline.reserve(CPU, memory.map_seconds(nbytes), name,
                                  "map")
        else:
            self.timeline.reserve(CPU, memory.copy_seconds(nbytes), name,
                                  "copy")
            self.traffic += 2.0 * nbytes   # copy reads and rewrites DRAM

    # -- layer execution ------------------------------------------------------

    def _execute_layer(self, name: str,
                       assignment: LayerAssignment) -> None:
        data_ready, input_resources = self._deps_ready(name)
        if assignment.placement is Placement.CPU:
            self._run_on_cpu(name, data_ready, input_resources)
        elif assignment.placement is Placement.GPU:
            self._run_on_accel(name, GPU, data_ready, input_resources)
        elif assignment.placement is Placement.NPU:
            self._run_on_accel(name, NPU, data_ready, input_resources)
        else:
            self._run_cooperative(name, assignment, data_ready,
                                  input_resources)

    def _cost(self, resource: str, work: LayerWork):
        return kernel_cost(self.soc.processor(resource), self.soc.memory,
                           work, self.policy.compute_dtype(resource),
                           self.policy.activation_storage,
                           self.policy.param_storage(resource),
                           batch=self.batch)

    def _run_on_cpu(self, name: str, data_ready: float,
                    input_resources: Set[str]) -> float:
        self._transition_to_cpu(name, data_ready, input_resources)
        work = self._layer_work(name)
        cost = self._cost(CPU, work)
        segment = self.timeline.reserve(
            CPU, cost.total_s, name, "compute",
            dtype=self.policy.cpu_compute, earliest=data_ready)
        self.traffic += kernel_traffic_bytes(
            work, self.policy.activation_storage,
            self.policy.cpu_param_storage, batch=self.batch)
        self.ready[name] = segment.end
        self.producers[name] = {CPU}
        self._compute_value(name, "cpu")
        self._record(name, "cpu", 1.0, data_ready, segment.end,
                     cpu_busy=cost.total_s, gpu_busy=0.0)
        return segment.end

    def _run_on_accel(self, name: str, resource: str, data_ready: float,
                      input_resources: Set[str]) -> float:
        if resource not in self.queues:
            raise PlanError(
                f"layer {name!r} targets {resource} but "
                f"{self.soc.name} has no such processor")
        self._transition_to_accel(name, input_resources, resource)
        work = self._layer_work(name)
        cost = self._cost(resource, work)
        event = self.queues[resource].enqueue(
            name, cost.busy_s, self.policy.compute_dtype(resource),
            ready=data_ready)
        self.traffic += kernel_traffic_bytes(
            work, self.policy.activation_storage,
            self.policy.param_storage(resource), batch=self.batch)
        self.ready[name] = event.completed_at
        self.producers[name] = {resource}
        self._compute_value(name, resource)
        gpu_busy = cost.total_s if resource == GPU else 0.0
        self._record(name, resource, 0.0, data_ready,
                     event.completed_at, cpu_busy=0.0, gpu_busy=gpu_busy)
        return event.completed_at

    def _run_cooperative(self, name: str, assignment: LayerAssignment,
                         data_ready: float,
                         input_resources: Set[str]) -> None:
        shares = assignment.shares()
        for resource in shares:
            if resource in _ACCELERATORS and resource not in self.queues:
                raise PlanError(
                    f"layer {name!r} splits onto {resource} but "
                    f"{self.soc.name} has no such processor")
        self._transition_to_cpu(name, data_ready, input_resources)
        works = split_layer_work_shares(self.graph, name, shares)
        costs = {resource: self._cost(resource, work)
                 for resource, work in works.items()}
        # Issue accelerator commands first (asynchronously), then
        # compute the CPU portion, then wait on the completion events
        # -- the paper's overlap strategy (Section 6).
        events = []
        for resource in _ACCELERATORS:
            if resource in works:
                events.append((resource, self.queues[resource].enqueue(
                    name, costs[resource].busy_s,
                    self.policy.compute_dtype(resource),
                    ready=data_ready)))
        end = data_ready
        cpu_busy = 0.0
        if CPU in works:
            cpu_segment = self.timeline.reserve(
                CPU, costs[CPU].total_s, name, "compute",
                dtype=self.policy.cpu_compute, earliest=data_ready)
            end = cpu_segment.end
            cpu_busy = costs[CPU].total_s
        for resource, event in events:
            end = max(end, self.queues[resource].wait(
                event, self.soc.sync_seconds()))
        for resource, work in works.items():
            self.traffic += kernel_traffic_bytes(
                work, self.policy.activation_storage,
                self.policy.param_storage(resource), batch=self.batch)
        self.ready[name] = end
        self.producers[name] = set(works)
        if self.computer is not None:
            for values in self.sample_values:
                inputs = [values[p] for p in self.graph.inputs_of(name)]
                values[name] = self.computer.run_cooperative_shares(
                    name, inputs, shares)
        self._record(name, "cooperative", assignment.split, data_ready,
                     end, cpu_busy=cpu_busy,
                     gpu_busy=costs[GPU].total_s if GPU in costs else 0.0)

    def _compute_value(self, name: str, resource: str) -> None:
        if self.computer is None:
            return
        for values in self.sample_values:
            inputs = [values[p] for p in self.graph.inputs_of(name)]
            values[name] = self.computer.run_full(name, inputs, resource)

    def _record(self, name: str, placement: str, split: float,
                start: float, end: float, cpu_busy: float,
                gpu_busy: float) -> None:
        work = self._layer_work(name)
        self.traces.append(LayerTrace(
            layer=name, placement=placement, split=split, start_s=start,
            end_s=end, cpu_busy_s=cpu_busy, gpu_busy_s=gpu_busy,
            traffic_bytes=kernel_traffic_bytes(
                work, self.policy.activation_storage,
                self.policy.activation_storage, batch=self.batch)))

    # -- branch-distributed regions -------------------------------------------

    def _execute_region(self, branch_assignment: BranchAssignment) -> None:
        """Run a fork/join region with whole branches on single
        processors, in parallel (Section 5).

        Accelerator branches are enqueued first so their commands drain
        while the CPU executes its own branches; the join's usual
        accelerator->CPU transition logic performs the final
        synchronization.
        """
        region = branch_assignment.region
        fork_ready = self.ready[region.fork]
        fork_resources = self.producers[region.fork]
        pairs = list(zip(region.branches, branch_assignment.mapping))
        for accel in _ACCELERATORS:
            if any(target == accel for _, target in pairs):
                self._transition_to_accel(region.fork, fork_resources,
                                          accel)
        for branch, target in pairs:
            if target == CPU:
                continue
            prev = fork_ready
            for name in branch:
                prev = self._run_on_accel(name, target, prev, {target})
        for branch, target in pairs:
            if target != CPU:
                continue
            if fork_resources & set(_ACCELERATORS):
                self._transition_to_cpu(region.fork, fork_ready,
                                        fork_resources)
            prev = fork_ready
            for name in branch:
                prev = self._run_on_cpu(name, prev, {CPU})
