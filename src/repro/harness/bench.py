"""Wall-clock benchmark of the compiled path and the sweep harness.

Measures what the compiled fused path, the autotuner and the
process-pool harness cost, in seconds, and emits the numbers as
``BENCH_e2e.json`` so the perf trajectory is tracked across PRs:

* **compiled** -- the compiled fused path (``repro.compile``) on every
  mini-model cell, on the matched 0.5-split plan, byte-identity
  against the uncached interpreter asserted before and after timing.
* **autotuned** -- the autotuned compiled path (``repro.tune``: a
  fresh in-memory tuner per cell, no on-disk state) against the
  untuned compiled baseline, both compiled from the same matched plan
  and timed back-to-back, byte-identity against the interpreter
  asserted before and after timing.  The block records the per-cell
  speedups, a kernel-variant histogram over all tuned programs, and
  the geometric-mean speedup CI gates on.
* **sweep** -- the static verification sweep over the benchmarked
  models, serial versus ``jobs`` processes.

All timings go through :func:`~repro.harness.timing.min_time_ms` --
run the leg ``repeats`` times, keep the *minimum* (robust to scheduler
noise on shared machines).  The benchmark is sized to run in well
under a minute so CI can afford it as a smoke job.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..models import MINI_MODELS, build_model
from ..nn import Graph, calibrate_graph
from ..quant.calibrate import CalibrationTable
from ..runtime.compute import LayerComputer
from ..runtime.pfq import (PROCESSOR_FRIENDLY, QuantizationPolicy,
                           UNIFORM_F16, UNIFORM_F32, UNIFORM_QUINT8)
from .timing import min_time_ms

if TYPE_CHECKING:   # pragma: no cover - typing only (avoids a cycle)
    from ..compile import CompiledProgram
    from ..runtime.plan import ExecutionPlan

#: The policies the benchmark exercises, processor-friendly first (the
#: paper's mechanism).
BENCH_POLICIES: Dict[str, QuantizationPolicy] = {
    "pfq": PROCESSOR_FRIENDLY,
    "quint8": UNIFORM_QUINT8,
    "f16": UNIFORM_F16,
    "f32": UNIFORM_F32,
}

#: The default verification-sweep models: the mini zoo plus AlexNet,
#: the 78-cell workload the committed ``sweep`` baseline was timed on.
_DEFAULT_SWEEP_MODELS = MINI_MODELS + ("alexnet",)


def _interpreted_output(graph: Graph, calibration: CalibrationTable,
                        policy: QuantizationPolicy,
                        x: np.ndarray) -> bytes:
    """The uncached interpreter's output bytes under the matched
    0.5-split placements (the reference every timed leg must
    reproduce)."""
    computer = LayerComputer(graph, policy, calibration)
    input_name = graph.input_layers()[0]
    values = {input_name: computer.input_tensor(input_name, x)}
    for name in graph.compute_layers():
        inputs = [values[p] for p in graph.inputs_of(name)]
        if graph.layer(name).supports_channel_split:
            values[name] = computer.run_cooperative(name, inputs, 0.5)
        else:
            values[name] = computer.run_full(name, inputs, "cpu")
    return values[graph.output_layers()[0]].data.tobytes()


def _matched_split_plan(graph: Graph,
                        policy: QuantizationPolicy) -> ExecutionPlan:
    """The plan equivalent of :func:`_interpreted_output`'s
    placements.

    0.5 CPU/GPU cooperative split on every splittable layer, CPU for
    the rest -- so the compiled program and the interpreter execute
    the exact same per-layer pipelines and their outputs can be
    asserted byte-identical.
    """
    from ..runtime.plan import ExecutionPlan, LayerAssignment

    assignments = {}
    for name in graph.compute_layers():
        if graph.layer(name).supports_channel_split:
            assignments[name] = LayerAssignment.cooperative(name, 0.5)
        else:
            assignments[name] = LayerAssignment.on_cpu(name)
    return ExecutionPlan(graph_name=graph.name, policy=policy,
                         assignments=assignments)


def _bench_compiled(graph: Graph, calibration: CalibrationTable,
                    policy: QuantizationPolicy, x: np.ndarray,
                    repeats: int, reference: bytes
                    ) -> "Tuple[Dict[str, float], CompiledProgram]":
    """Compiled timing of one (model, policy) cell.

    Lowers the matched 0.5-split plan, asserts the program's output is
    byte-identical to ``reference`` (the uncached interpreter's), and
    times steady-state arena runs (min over ``repeats``).  Returns the
    cell and the program, which :func:`_bench_autotuned` reuses as its
    untuned baseline.
    """
    from ..compile import compile_program

    plan = _matched_split_plan(graph, policy)
    compile_ms, program = min_time_ms(
        lambda: compile_program(graph, plan, calibration,
                                mechanism="bench"), 1)
    output = graph.output_layers()[0]
    out = program.run(x, keep="outputs")[output]
    if out.data.tobytes() != reference:
        raise AssertionError(
            "compiled execution diverged from the interpreter output")
    compiled_ms, out = min_time_ms(
        lambda: program.run(x, keep="outputs")[output], repeats)
    if out.data.tobytes() != reference:
        raise AssertionError(
            "steady-state compiled execution diverged from the "
            "interpreter output")
    return {
        "compile_ms": compile_ms,
        "compiled_ms": compiled_ms,
        "arena_bytes": float(program.arena.arena_bytes),
    }, program


def _bench_autotuned(graph: Graph, calibration: CalibrationTable,
                     baseline: "CompiledProgram", x: np.ndarray,
                     repeats: int, reference: bytes
                     ) -> "Tuple[Dict[str, float], Dict[str, int]]":
    """Autotuned-vs-untuned compiled timing of one (model, policy)
    cell.

    Compiles ``baseline``'s plan (the untuned program
    :func:`_bench_compiled` lowered) again through a fresh in-memory
    :class:`~repro.tune.Tuner` (no on-disk or cross-cell state),
    asserts both programs byte-identical to ``reference`` (the
    uncached interpreter output), and times their steady-state runs
    back-to-back so the quoted speedup is not polluted by drift
    between benchmark phases.  Returns the cell and the tuned
    program's kernel-variant histogram.
    """
    from ..compile import compile_program
    from ..tune import Tuner

    plan = baseline.plan
    tuner = Tuner(repeats=max(3, repeats))
    tune_ms, tuned = min_time_ms(
        lambda: compile_program(graph, plan, calibration,
                                mechanism="bench", tuner=tuner), 1)
    output = graph.output_layers()[0]

    def check(program, label: str) -> None:
        out = program.run(x, keep="outputs")[output]
        if out.data.tobytes() != reference:
            raise AssertionError(
                f"{label} execution diverged from the interpreter "
                "output")

    check(baseline, "compiled")
    check(tuned, "autotuned")
    compiled_ms, _ = min_time_ms(
        lambda: baseline.run(x, keep="outputs")[output], repeats)
    autotuned_ms, _ = min_time_ms(
        lambda: tuned.run(x, keep="outputs")[output], repeats)
    check(baseline, "steady-state compiled")
    check(tuned, "steady-state autotuned")
    cell = {
        "tune_ms": tune_ms,
        "compiled_ms": compiled_ms,
        "autotuned_ms": autotuned_ms,
        "speedup": (compiled_ms / autotuned_ms if autotuned_ms > 0
                    else float("inf")),
        "tuned_steps": float(tuner.timed),
    }
    return cell, tuned.variant_histogram()


def run_bench(models: Optional[Sequence[str]] = None, repeats: int = 3,
              jobs: Optional[int] = None,
              policies: Optional[Sequence[str]] = None,
              autotune: bool = True) -> Dict:
    """The full benchmark; returns a JSON-ready dict.

    Args:
        models: models to time (default: the mini zoo, with
            ``alexnet`` added to the verification sweep only).  The
            compiled and autotuned legs run on the minis only; every
            model joins the verification sweep.
        repeats: timed inferences per (model, policy) cell.
        jobs: process count for the parallel sweep timing; None skips
            the parallel leg (the serial leg always runs).
        policies: policy names from :data:`BENCH_POLICIES` (default:
            all four).
        autotune: also time the autotuned compiled path against the
            untuned compiled baseline on every mini-model cell,
            asserting byte-identity (the ``autotuned`` block of the
            output).
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    chosen_models = (tuple(models) if models is not None
                     else _DEFAULT_SWEEP_MODELS)
    chosen = tuple(policies) if policies else tuple(BENCH_POLICIES)
    rng = np.random.default_rng(0)

    compiled_cells: Dict[str, Dict[str, float]] = {}
    autotuned_cells: Dict[str, Dict[str, float]] = {}
    autotuned_variants: Dict[str, int] = {}
    for model in chosen_models:
        # Compiling a full model re-packs its tens of millions of
        # weights, which belongs to compile time, not to this
        # smoke-sized benchmark.
        if model not in MINI_MODELS:
            continue
        graph = build_model(model, with_weights=True)
        shape = graph.infer_shapes()[graph.input_layers()[0]]
        x = rng.standard_normal(shape).astype(np.float32)
        calibration = calibrate_graph(graph, [x])
        for policy_name in chosen:
            policy = BENCH_POLICIES[policy_name]
            cell_name = f"{model}/{policy_name}"
            reference = _interpreted_output(graph, calibration, policy,
                                            x)
            compiled_cells[cell_name], program = _bench_compiled(
                graph, calibration, policy, x, repeats, reference)
            if autotune:
                acell, histogram = _bench_autotuned(
                    graph, calibration, program, x, repeats, reference)
                autotuned_cells[cell_name] = acell
                for variant, count in histogram.items():
                    autotuned_variants[variant] = (
                        autotuned_variants.get(variant, 0) + count)

    sweep: Dict[str, float] = {}
    from ..analysis.verify import verify_sweep
    t0 = time.perf_counter()
    serial_entries = verify_sweep(models=chosen_models)
    sweep["serial_s"] = time.perf_counter() - t0
    sweep["cells"] = float(len(serial_entries))
    if jobs is not None and jobs != 1:
        t0 = time.perf_counter()
        parallel_entries = verify_sweep(models=chosen_models, jobs=jobs)
        sweep["parallel_s"] = time.perf_counter() - t0
        sweep["jobs"] = float(jobs)
        if [(e.model, e.soc, e.mechanism) for e in parallel_entries] != \
                [(e.model, e.soc, e.mechanism) for e in serial_entries]:
            raise AssertionError(
                "parallel sweep order diverged from serial")

    results: Dict = {
        "schema": 1,
        "repeats": repeats,
        "sweep": sweep,
    }
    if compiled_cells:
        results["compiled"] = {
            "cells": compiled_cells,
            "summary": {
                "compiled_total_ms": sum(
                    cell["compiled_ms"]
                    for cell in compiled_cells.values()),
            },
        }
    if autotuned_cells:
        speedups = [cell["speedup"]
                    for cell in autotuned_cells.values()
                    if cell["speedup"] > 0
                    and not math.isinf(cell["speedup"])]
        geomean = (math.exp(sum(math.log(s) for s in speedups)
                            / len(speedups)) if speedups
                   else float("nan"))
        results["autotuned"] = {
            "cells": autotuned_cells,
            "variants": autotuned_variants,
            "summary": {
                "compiled_total_ms": sum(
                    cell["compiled_ms"]
                    for cell in autotuned_cells.values()),
                "autotuned_total_ms": sum(
                    cell["autotuned_ms"]
                    for cell in autotuned_cells.values()),
                "geomean_speedup": geomean,
            },
        }
    return results


#: Batch-size axis of the serving-throughput benchmark.
SERVE_BATCH_SIZES = (1, 2, 4, 8)

#: Arrival rates of the serving-throughput benchmark, as multiples of
#: the fleet's batch-1 μLayer capacity.  The sub-capacity point shows
#: batching's latency cost at modest load; the overload point must
#: exceed even the largest batch configuration's capacity so every
#: cell stays service-bound -- that is where batching's amortization
#: shows up as completed requests per second rather than being capped
#: by the arrival rate.
SERVE_LOAD_FACTORS = (0.8, 4.0)


def run_serve_batch_bench(model: str = "vgg_mini",
                          batch_sizes: Sequence[int] = SERVE_BATCH_SIZES,
                          load_factors: Sequence[float]
                          = SERVE_LOAD_FACTORS,
                          num_requests: int = 128,
                          num_devices: int = 2,
                          soc_names: Sequence[str] = ("exynos7420",),
                          batch_timeout_s: float = 0.01,
                          slo_factor: float = 16.0,
                          seed: int = 2019) -> Dict:
    """Serving throughput vs. batch size x arrival rate
    (``BENCH_serve_batch.json``).

    For each (max_batch, load) cell a fresh fleet serves one seeded
    Poisson trace under the :class:`~repro.serve.DynamicBatchScheduler`
    capped at ``max_batch``; ``max_batch=1`` is the unbatched baseline.
    All times are *simulated* (the executor's deterministic timing
    model), so the numbers are bit-stable across machines and CI can
    gate on them: at the overload factor, throughput must rise
    monotonically with the batch cap while the reported p99 latency
    shows what that throughput costs.  One plan cache is shared across
    cells so each (mechanism, batch) configuration partitions once.
    """
    from ..runtime.plan_cache import PlanCache
    from ..serve import (DynamicBatchScheduler, Fleet, PoissonWorkload,
                         ServingMetrics, ServingSimulator, default_slos)

    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    plan_cache = PlanCache()
    reference = Fleet.build(soc_names, num_devices,
                            plan_cache=plan_cache)
    capacity = reference.capacity_rps([model])
    slos = default_slos(reference, [model], slo_factor=slo_factor)
    cells: List[Dict[str, float]] = []
    for load in load_factors:
        rate = capacity * load
        trace = PoissonWorkload(rate_rps=rate, models=[model],
                                slo_s=slos, seed=seed
                                ).generate(num_requests)
        for max_batch in batch_sizes:
            fleet = Fleet.build(soc_names, num_devices,
                                plan_cache=plan_cache)
            scheduler = DynamicBatchScheduler(
                max_batch=max_batch, batch_timeout_s=batch_timeout_s)
            result = ServingSimulator(fleet, scheduler).run(trace)
            metrics = ServingMetrics.from_result(result)
            cells.append({
                "max_batch": float(max_batch),
                "load": load,
                "rate_rps": rate,
                "throughput_rps": metrics.throughput_rps,
                "latency_p50_ms": metrics.latency_p50_ms,
                "latency_p99_ms": metrics.latency_p99_ms,
                "queue_wait_p99_ms": metrics.queue_wait_p99_ms,
                "slo_attainment": metrics.slo_attainment,
                "batch_size_mean": metrics.batch_size_mean,
                "num_batches": float(metrics.num_batches),
            })
    return {
        "schema": 1,
        "model": model,
        "socs": list(soc_names),
        "num_devices": num_devices,
        "num_requests": num_requests,
        "batch_timeout_s": batch_timeout_s,
        "slo_factor": slo_factor,
        "seed": seed,
        "capacity_rps": capacity,
        "peak_load": max(load_factors),
        "sweep": cells,
    }


def render_serve_batch_bench(results: Dict) -> str:
    """The serving-batch benchmark as a printable table."""
    from .report import format_table
    rows: List[List] = [
        [int(cell["max_batch"]), cell["load"], cell["throughput_rps"],
         cell["latency_p50_ms"], cell["latency_p99_ms"],
         cell["queue_wait_p99_ms"], cell["batch_size_mean"]]
        for cell in results["sweep"]]
    text = format_table(
        ["max_batch", "load", "req/s", "p50_ms", "p99_ms",
         "wait_p99_ms", "mean_batch"],
        rows,
        title=(f"serving throughput, {results['model']} on "
               f"{'+'.join(results['socs'])} x{results['num_devices']}"))
    text += (f"\n\nbatch-1 capacity {results['capacity_rps']:.1f} req/s;"
             f" {results['num_requests']} requests per cell "
             f"(simulated time)")
    return text


#: Fleet sizes (total replicas across pools) of the fleet-scale
#: benchmark, smallest first.
FLEET_SIZES = (2, 4, 6)


def run_fleet_bench(fleet_sizes: Sequence[int] = FLEET_SIZES,
                    routers: Optional[Sequence[str]] = None,
                    models: Sequence[str] = ("mobilenet_mini",
                                             "squeezenet_mini"),
                    num_requests: int = 100_000,
                    slo_factor: float = 8.0,
                    load_factor: float = 1.3,
                    seed: int = 2019) -> Dict:
    """SLO attainment and tail latency vs. fleet size per router
    (``BENCH_fleet_scale.json``).

    One fixed diurnal reference trace (rate sized to ``load_factor``
    times the *smallest* fleet's capacity, so the small fleet is
    overloaded and the large one has headroom) is replayed against
    clusters of growing total replica count, once per router policy.
    Replica counts are fixed (autoscaler off) and the trace is
    identical across cells, so SLO attainment must be monotone
    non-decreasing in fleet size for every router -- adding replicas
    under an unchanged workload can only help.  All times are
    simulated, so the numbers are bit-stable across machines and CI
    gates on them.
    """
    from ..cluster import (ClusterConfig, ClusterMetrics,
                           ClusterSimulator, PoolSpec, ROUTER_NAMES)
    from ..serve import TenantClass, diurnal_trace

    if num_requests < 1:
        raise ValueError("num_requests must be >= 1")
    sizes = sorted(fleet_sizes)
    if sizes[0] < 2:
        raise ValueError("fleet sizes must be >= 2 (two pools)")
    chosen_routers = tuple(routers) if routers else ROUTER_NAMES

    def pools_of(total: int) -> "tuple[PoolSpec, ...]":
        flagship = (total + 1) // 2
        midrange = total - flagship
        return (
            PoolSpec(name="flagship", soc="exynos7420",
                     max_replicas=flagship, min_replicas=flagship),
            PoolSpec(name="midrange", soc="exynos7880",
                     max_replicas=max(1, midrange),
                     min_replicas=max(1, midrange)),
        )

    # Rate reference: the smallest cluster's all-μLayer capacity,
    # estimated the same way Fleet.capacity_rps does.
    from ..serve import Fleet
    smallest = pools_of(sizes[0])
    capacity = sum(
        Fleet.build([spec.soc], spec.max_replicas).capacity_rps(
            list(models))
        for spec in smallest)
    rate = load_factor * capacity

    probe = Fleet.build([spec.soc for spec in smallest], len(smallest))
    from ..serve import default_slos
    slos = dict(default_slos(probe, list(models),
                             slo_factor=slo_factor))
    # Compress the diurnal period to the run: at these rates the whole
    # trace spans a few seconds, so the default 240 s "day" would keep
    # every request in the trough segment and no fleet would ever see
    # the peak.  Two full cycles per run exercise both extremes.
    expected_span_s = num_requests / rate
    trace = diurnal_trace(
        rate, list(models), slo_s=slos, seed=seed,
        period_s=expected_span_s / 2.0,
        tenants=(TenantClass("premium", 1.0, 0),
                 TenantClass("standard", 2.0, 1))).generate(
                     num_requests)

    cells: List[Dict[str, object]] = []
    for router in chosen_routers:
        for total in sizes:
            config = ClusterConfig(
                pools=pools_of(total), models=tuple(models),
                slos=slos, rate_rps=rate, router=router, seed=seed)
            simulator = ClusterSimulator(config)
            metrics = ClusterMetrics.from_result(simulator.run(trace))
            cells.append({
                "router": router,
                "fleet_size": float(total),
                "rate_rps": rate,
                "throughput_rps": metrics.throughput_rps,
                "slo_attainment": metrics.slo_attainment,
                "latency_p50_ms": metrics.latency_p50_ms,
                "latency_p99_ms": metrics.latency_p99_ms,
                "num_shed": float(metrics.num_shed),
            })
    return {
        "schema": 1,
        "models": list(models),
        "num_requests": num_requests,
        "fleet_sizes": [float(size) for size in sizes],
        "routers": list(chosen_routers),
        "slo_factor": slo_factor,
        "load_factor": load_factor,
        "capacity_rps_smallest": capacity,
        "seed": seed,
        "sweep": cells,
    }


def render_fleet_bench(results: Dict) -> str:
    """The fleet-scale benchmark as a printable table."""
    from .report import format_table
    rows: List[List] = [
        [cell["router"], int(cell["fleet_size"]),
         cell["throughput_rps"], cell["slo_attainment"],
         cell["latency_p50_ms"], cell["latency_p99_ms"],
         int(cell["num_shed"])]
        for cell in results["sweep"]]
    text = format_table(
        ["router", "fleet", "req/s", "attainment", "p50_ms", "p99_ms",
         "shed"],
        rows,
        title=(f"fleet scaling, {'+'.join(results['models'])}, "
               f"{results['num_requests']} requests"))
    text += (f"\n\nrate {results['sweep'][0]['rate_rps']:.1f} req/s = "
             f"{results['load_factor']:.1f}x the smallest fleet's "
             "capacity (simulated time)")
    return text


def render_bench(results: Dict) -> str:
    """The benchmark results as a printable table."""
    from .report import format_table
    text = ""
    compiled = results.get("compiled")
    if compiled:
        rows: List[List] = [
            [cell_name, cell["compile_ms"], cell["compiled_ms"]]
            for cell_name in sorted(compiled["cells"])
            for cell in [compiled["cells"][cell_name]]]
        text += format_table(
            ["model/policy", "compile_ms", "compiled_ms"],
            rows, title="compiled fused path")
        text += (f"\n\ncompiled total "
                 f"{compiled['summary']['compiled_total_ms']:.1f} ms")
    autotuned = results.get("autotuned")
    if autotuned:
        rows = [[cell_name, cell["tune_ms"], cell["compiled_ms"],
                 cell["autotuned_ms"], cell["speedup"],
                 int(cell["tuned_steps"])]
                for cell_name in sorted(autotuned["cells"])
                for cell in [autotuned["cells"][cell_name]]]
        text += "\n\n" + format_table(
            ["model/policy", "tune_ms", "compiled_ms",
             "autotuned_ms", "speedup", "tuned_steps"],
            rows, title="autotuned compiled path vs untuned baseline")
        asummary = autotuned["summary"]
        variants = ", ".join(
            f"{name} x{count}"
            for name, count in sorted(autotuned["variants"].items()))
        text += (f"\n\nautotuned total: untuned "
                 f"{asummary['compiled_total_ms']:.1f} ms, tuned "
                 f"{asummary['autotuned_total_ms']:.1f} ms, geomean "
                 f"speedup {asummary['geomean_speedup']:.2f}x"
                 f"\nvariants: {variants}")
    sweep = results.get("sweep", {})
    if "serial_s" in sweep:
        text += (f"\nverify sweep ({int(sweep.get('cells', 0))} cells): "
                 f"serial {sweep['serial_s']:.2f} s")
        if "parallel_s" in sweep:
            text += (f", {int(sweep['jobs'])} jobs "
                     f"{sweep['parallel_s']:.2f} s")
    return text
