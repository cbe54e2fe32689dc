"""Mechanism-level verification harness.

Ties the three analyzers together for one (model, SoC, mechanism)
triple: build the mechanism's plan the same way the runtime would,
statically verify it (:class:`~repro.analysis.plan_verifier.PlanVerifier`
plus the :class:`~repro.analysis.dtypeflow.DtypeFlowLinter`), run a
timing-only execution, and check the recorded timeline with the
:class:`~repro.analysis.races.TimelineRaceDetector`.  The CLI's
``verify`` subcommand and the clean-run regression tests drive these
functions over the whole model zoo.
"""

from __future__ import annotations

import collections
import dataclasses
from typing import Iterable, List, Optional, Tuple

from ..models import build_model, list_models
from ..nn import Graph
from ..quant.calibrate import CalibrationTable
from ..runtime.baselines import (layer_to_processor_plan,
                                 single_processor_plan)
from ..runtime.executor import Executor
from ..runtime.mulayer import MuLayer
from ..runtime.pfq import UNIFORM_QUINT8, uniform_policy
from ..runtime.plan import ExecutionPlan
from ..soc import SOCS, SoCSpec, Timeline, soc_by_name
from ..tensor import DType
from .diagnostics import Report
from .dtypeflow import DtypeFlowLinter
from .plan_verifier import PlanVerifier
from .races import TimelineRaceDetector

#: Every mechanism the harness can verify.
MECHANISMS = ("mulayer", "l2p", "cpu", "gpu", "npu")

#: The dtype each single-processor mechanism is verified at -- each
#: processor's *friendly* type (Figure 8), so a clean zoo stays clean.
_SINGLE_PROCESSOR_DTYPE = {
    "cpu": DType.QUINT8,
    "gpu": DType.F16,
    "npu": DType.QUINT8,
}

#: MuLayer runtimes by SoC name, so repeated sweeps reuse the fitted
#: latency predictor and the per-graph plan cache.  Bounded LRU: there
#: are only a handful of SoCs, but ad-hoc SoC specs in tests would
#: otherwise accumulate fitted predictors forever.
_MULAYER_CACHE_CAPACITY = 8
_MULAYER_CACHE: "collections.OrderedDict[str, MuLayer]" = (
    collections.OrderedDict())


def _cached_runtime(soc: SoCSpec) -> MuLayer:
    """The (bounded, shared) MuLayer runtime of one SoC."""
    runtime = _MULAYER_CACHE.get(soc.name)
    if runtime is not None:
        _MULAYER_CACHE.move_to_end(soc.name)
        return runtime
    # The fitted latency predictor only covers CPU and GPU; three-way
    # planning uses oracle costs (Section 8.3).
    built = MuLayer(soc, use_oracle_costs=soc.has_npu)
    _MULAYER_CACHE[soc.name] = built
    while len(_MULAYER_CACHE) > _MULAYER_CACHE_CAPACITY:
        _MULAYER_CACHE.popitem(last=False)
    return built


def applicable_mechanisms(soc: SoCSpec) -> Tuple[str, ...]:
    """The mechanisms that can run on ``soc`` (no NPU, no npu run)."""
    if soc.has_npu:
        return MECHANISMS
    return tuple(m for m in MECHANISMS if m != "npu")


def build_plan(soc: SoCSpec, graph: Graph,
               mechanism: str) -> ExecutionPlan:
    """The plan a mechanism would execute, built the runtime's way."""
    if mechanism == "mulayer":
        return _cached_runtime(soc).plan(graph)
    if mechanism == "l2p":
        return layer_to_processor_plan(soc, graph, UNIFORM_QUINT8)
    if mechanism in _SINGLE_PROCESSOR_DTYPE:
        policy = uniform_policy(_SINGLE_PROCESSOR_DTYPE[mechanism])
        return single_processor_plan(graph, mechanism, policy)
    raise ValueError(f"unknown mechanism {mechanism!r}; expected one "
                     f"of {MECHANISMS}")


def verify_static(soc: SoCSpec, graph: Graph, plan: ExecutionPlan,
                  calibration: Optional[CalibrationTable] = None
                  ) -> Report:
    """Pre-execution verification: plan invariants + dtype flow."""
    report = PlanVerifier(soc).verify(graph, plan)
    report.extend(DtypeFlowLinter().lint(graph, plan.policy,
                                         calibration))
    return report


def verify_run(soc: SoCSpec, graph: Graph, plan: ExecutionPlan,
               timeline: Timeline) -> Report:
    """Post-execution verification: timeline ordering and handoffs."""
    return TimelineRaceDetector(soc).check(graph, plan, timeline)


def verify_mechanism(soc: SoCSpec, graph: Graph, mechanism: str,
                     calibration: Optional[CalibrationTable] = None,
                     memory: bool = False,
                     batch: Optional[int] = None,
                     compiled: bool = False) -> Report:
    """Full verification of one mechanism on one model and SoC.

    Builds the mechanism's plan, verifies it statically, performs one
    timing-only execution, and race-checks the resulting timeline.
    Static errors do not abort the run (all diagnostics are wanted),
    but a plan the executor itself rejects is reported, not raised.

    Args:
        memory: also run the
            :class:`~repro.analysis.memory.MemoryFootprintAnalyzer`
            (MF rules) on the plan.
        batch: batch size for the memory analysis (default: the
            plan's own batch).
        compiled: also lower the plan into a compiled program and
            prove it consistent (PV012 via :func:`verify_program`).
            Requires the graph to carry weights; a compilation failure
            is itself reported as PV012.
    """
    from .memory import MemoryFootprintAnalyzer

    plan = build_plan(soc, graph, mechanism)
    report = verify_static(soc, graph, plan, calibration)
    if memory:
        report.extend(MemoryFootprintAnalyzer(soc).analyze(
            graph, plan, batch=batch))
    if compiled:
        report.extend(_verify_compiled(graph, plan, calibration))
    if not report.ok:
        return report    # executing a provably broken plan adds noise
    result = Executor(soc).run(graph, plan, mechanism=mechanism)
    return report.extend(verify_run(soc, graph, plan, result.timeline))


def _verify_compiled(graph: Graph, plan: ExecutionPlan,
                     calibration: Optional[CalibrationTable]) -> Report:
    """Lower ``plan`` and check the program against it (PV012) and
    each step's kernel variant against its step (PV014).

    Quantized policies need activation ranges; when the caller has no
    calibration table one is derived from a deterministic synthetic
    batch (seed 0), which fixes the ranges without affecting any of
    the declarative metadata PV012 checks.
    """
    import numpy as np

    from ..compile import compile_program
    from ..errors import PlanError, QuantizationError
    from ..nn import calibrate_graph
    from .plan_verifier import verify_program, verify_tuned_variants

    report = Report()
    try:
        if calibration is None and plan.policy.is_quantized:
            shape = graph.infer_shapes()[graph.input_layers()[0]]
            rng = np.random.default_rng(0)
            calibration = calibrate_graph(
                graph, [rng.standard_normal(shape).astype(np.float32)])
        program = compile_program(graph, plan, calibration)
    except (PlanError, QuantizationError) as exc:
        report.error("PV012", "program",
                     f"plan failed to compile: {exc}")
        return report
    report.extend(verify_program(graph, plan, program))
    return report.extend(verify_tuned_variants(graph, plan, program))


@dataclasses.dataclass(frozen=True)
class SweepEntry:
    """One verified (model, SoC, mechanism) triple of a sweep."""

    model: str
    soc: str
    mechanism: str
    report: Report


def _sweep_unit(item: Tuple[str, str, Tuple[str, ...], bool,
                            Optional[int], bool]) -> List[SweepEntry]:
    """All entries of one (soc, model) sweep cell.

    Module-level so :func:`~repro.harness.parallel.parallel_map` can
    ship it to worker processes; the graph is built once per cell.
    Weights are installed only for compiled verification (lowering
    packs real weight arrays; everything else is weight-free).
    """
    soc_name, model, chosen, memory, batch, compiled = item
    soc = SOCS[soc_name]
    graph = build_model(model, with_weights=compiled)
    return [SweepEntry(model=model, soc=soc_name, mechanism=mechanism,
                       report=verify_mechanism(soc, graph, mechanism,
                                               memory=memory,
                                               batch=batch,
                                               compiled=compiled))
            for mechanism in chosen]


def verify_sweep(models: Optional[Iterable[str]] = None,
                 socs: Optional[Iterable[str]] = None,
                 mechanisms: Optional[Iterable[str]] = None,
                 jobs: Optional[int] = None,
                 memory: bool = False,
                 batch: Optional[int] = None,
                 compiled: bool = False) -> List[SweepEntry]:
    """Verify mechanisms across the zoo.

    Args:
        models: model names (default: the whole zoo).
        socs: SoC names (default: all simulated SoCs).
        mechanisms: mechanisms to check (default: every mechanism the
            SoC supports; an explicit ``npu`` request on an NPU-less
            SoC is skipped rather than reported).
        jobs: fan (soc, model) cells across this many processes
            (None/1 = serial; <=0 = one per CPU).
        memory: also run the memory-footprint analysis on every plan.
        batch: batch size for the memory analysis.
        compiled: also compile every plan and verify the lowered
            program against it (PV012); builds each model *with*
            weights, which is slow for the full-size models.

    Entries come back sorted by (model, soc, mechanism) with each
    report in its deterministic order, regardless of ``jobs`` -- the
    property SARIF baselines and output diffs rely on.
    """
    from ..harness.parallel import parallel_map

    work: List[Tuple[str, str, Tuple[str, ...], bool,
                     Optional[int], bool]] = []
    requested = tuple(mechanisms) if mechanisms is not None else None
    for soc_name in (tuple(socs) if socs is not None else sorted(SOCS)):
        supported = applicable_mechanisms(soc_by_name(soc_name))
        chosen = (supported if requested is None
                  else tuple(m for m in requested if m in supported))
        for model in (tuple(models) if models is not None
                      else list_models()):
            work.append((soc_name, model, chosen, memory, batch,
                         compiled))
    entries: List[SweepEntry] = []
    for cell in parallel_map(_sweep_unit, work, jobs=jobs):
        entries.extend(cell)
    entries.sort(key=lambda e: (e.model, e.soc, e.mechanism))
    return [dataclasses.replace(entry, report=entry.report.sorted())
            for entry in entries]
