"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list-models`` / ``list-socs`` -- what can be run.
* ``run`` -- one inference through a chosen mechanism; prints latency,
  energy, and optionally the plan and a Gantt chart.
* ``compare`` -- all mechanisms on one model/SoC.
* ``verify`` -- statically verify plans, timelines, and dtype flow for
  one model (or, with ``--all``, the whole zoo) on one or all SoCs.
* ``serve`` -- simulate a multi-request stream against a device fleet
  under a chosen scheduler and report serving metrics.
* ``cluster`` -- simulate a cluster of device pools behind a router,
  with replica placement, autoscaling, and trace-driven workloads.
* ``figure`` -- regenerate one of the paper's figures.
* ``bench`` -- one simulated-time benchmark, ``--serve-batch``
  (serving throughput vs. batch cap) or ``--fleet`` (SLO attainment
  vs. fleet size); wall-clock performance is perfbench's
  (``BENCHMARK.json``).

``run`` and ``verify`` accept ``--compiled`` (run the compiled fused
execution path / prove it consistent, rule PV012).
``run``, ``compare``, ``verify``, ``serve``, ``cluster``, and
``bench`` all accept ``--json`` for machine-readable output.
``verify``, ``figure``, ``serve``, and ``cluster`` accept
``--jobs N`` to fan independent sweep units across a process pool
(results are deterministic either way); the default is the CPU count
capped at 8.

Exit codes: 0 clean, 1 diagnostics dirty (or a compiled run diverged
from the interpreter), 2 usage error -- including an unknown model or
SoC name, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from .harness.parallel import default_cli_jobs
from .errors import UnknownNameError
from .models import build_model, list_models, model_info
from .runtime import (MuLayer, run_layer_to_processor,
                      run_single_processor)
from .soc import SOCS, soc_by_name
from .tensor import parse_dtype

#: Figure harness functions by CLI name (resolved lazily -- some pull
#: in the training stack).
_FIGURES = ("fig05", "fig06", "fig08", "fig10", "fig12", "table1",
            "fig16", "fig17", "fig18")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="uLayer (EuroSys'19) reproduction on a simulated "
                    "mobile SoC")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list registered models")
    sub.add_parser("list-socs", help="list simulated SoCs")

    run = sub.add_parser("run", help="run one inference")
    run.add_argument("--model", required=True)
    run.add_argument("--soc", default="exynos7420",
                     help="exynos7420 | exynos7880 | exynos7420npu")
    run.add_argument("--mechanism", default="mulayer",
                     choices=["mulayer", "l2p", "cpu", "gpu", "npu"])
    run.add_argument("--dtype", default="quint8",
                     help="data type for single-processor mechanisms")
    run.add_argument("--oracle", action="store_true",
                     help="plan with oracle costs instead of the "
                          "latency predictor")
    run.add_argument("--compiled", action="store_true",
                     help="execute one functional inference through "
                          "the compiled fused program (mulayer "
                          "mechanism only): installs weights, checks "
                          "byte-identity against the per-layer "
                          "interpreter, and reports the program's "
                          "fused steps and arena size")
    run.add_argument("--autotune", action="store_true",
                     help="with --compiled: microbenchmark the legal "
                          "kernel variants of every fused step at "
                          "compile time and bake the fastest into the "
                          "program (decisions persist in the tune "
                          "cache)")
    run.add_argument("--tune-cache", default=None, metavar="PATH",
                     help="tune-cache file for --autotune (default: "
                          "~/.cache/repro-tune/cache.json, or "
                          "$XDG_CACHE_HOME when set)")
    run.add_argument("--plan", action="store_true",
                     help="print the execution plan")
    run.add_argument("--gantt", action="store_true",
                     help="print a Gantt chart of the timeline")
    run.add_argument("--json", action="store_true",
                     help="emit the result as JSON")

    compare = sub.add_parser("compare",
                             help="compare all mechanisms on one model")
    compare.add_argument("--model", required=True)
    compare.add_argument("--soc", default="exynos7420")
    compare.add_argument("--json", action="store_true",
                         help="emit the comparison as JSON")

    serve = sub.add_parser(
        "serve",
        help="simulate SLO-aware serving of a request stream on a "
             "fleet of SoC devices")
    serve.add_argument("--soc", action="append", dest="socs",
                       metavar="SOC",
                       help="SoC type; repeat for a mixed fleet "
                            "(default: exynos7420)")
    serve.add_argument("--devices", type=int, default=2,
                       help="number of devices in the fleet")
    serve.add_argument("--requests", type=int, default=200,
                       help="number of requests to simulate")
    serve.add_argument("--seed", type=int, default=0,
                       help="workload seed (same seed, same trace)")
    serve.add_argument("--scheduler", default="edf",
                       choices=["fifo", "least-loaded", "edf", "batch"],
                       help="scheduling policy")
    serve.add_argument("--max-batch", type=int, default=None,
                       metavar="N",
                       help="batch up to N same-model requests per "
                            "dispatch (batch/edf schedulers; "
                            "default: 4 for batch, 1 for edf)")
    serve.add_argument("--batch-timeout-ms", type=float, default=None,
                       metavar="MS",
                       help="batch scheduler: flush a partial batch "
                            "once its oldest request has waited MS "
                            "milliseconds (default 50)")
    serve.add_argument("--workload", default="poisson",
                       choices=["poisson", "bursty", "diurnal",
                                "flash-crowd"],
                       help="arrival process")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="load the workload from a JSON trace file "
                            "(overrides --workload; see "
                            "repro.serve.workload.TraceWorkload)")
    serve.add_argument("--models", default=None,
                       help="comma-separated model names "
                            "(default: the mini zoo)")
    serve.add_argument("--rate", type=float, default=None,
                       help="offered load in requests/s "
                            "(default: 70%% of fleet capacity)")
    serve.add_argument("--load", type=float, default=None,
                       help="offered load as a fraction of fleet "
                            "capacity (overrides --rate)")
    serve.add_argument("--slo-factor", type=float, default=4.0,
                       help="per-model SLO as a multiple of its "
                            "unloaded uLayer latency")
    serve.add_argument("--plan-cache-size", type=int, default=None,
                       metavar="N",
                       help="bound the shared plan cache to N entries "
                            "(LRU; default unbounded)")
    serve.add_argument("--jobs", type=int, default=default_cli_jobs(),
                       metavar="N",
                       help="warm the plan cache with N processes "
                            "before simulating (default: CPU count "
                            "capped at 8; 1 = serial)")
    serve.add_argument("--force", action="store_true",
                       help="simulate even when the schedulability "
                            "lint finds the configuration infeasible "
                            "(SC errors normally abort before any "
                            "request is simulated)")
    serve.add_argument("--json", action="store_true",
                       help="emit serving metrics as JSON")

    cluster = sub.add_parser(
        "cluster",
        help="simulate a cluster of device pools behind a router, "
             "with replica placement and autoscaling")
    cluster.add_argument("--pool", action="append", dest="pools",
                         metavar="NAME:SOC:MAX[:MIN]",
                         help="one device pool (repeatable); MAX is "
                              "the replica ceiling, MIN the floor "
                              "(default pools: flagship:exynos7420:4 "
                              "and midrange:exynos7880:3)")
    cluster.add_argument("--scheduler", default="fifo",
                         choices=["fifo", "least-loaded", "edf",
                                  "batch"],
                         help="per-pool scheduling policy")
    cluster.add_argument("--router", default="round-robin",
                         choices=["round-robin", "p2c",
                                  "least-latency"],
                         help="routing policy in front of the pools")
    cluster.add_argument("--compare", action="store_true",
                         help="run every router policy on the same "
                              "trace and compare")
    cluster.add_argument("--models", default=None,
                         help="comma-separated model names "
                              "(default: the mini zoo)")
    cluster.add_argument("--requests", type=int, default=2000,
                         help="number of requests to simulate")
    cluster.add_argument("--seed", type=int, default=0,
                         help="workload/router seed")
    cluster.add_argument("--workload", default="diurnal",
                         choices=["poisson", "bursty", "diurnal",
                                  "flash-crowd"],
                         help="arrival process")
    cluster.add_argument("--trace", default=None, metavar="PATH",
                         help="load the workload from a JSON trace "
                              "file (overrides --workload)")
    cluster.add_argument("--rate", type=float, default=None,
                         help="offered load in requests/s (default: "
                              "70%% of the cluster's ceiling "
                              "capacity)")
    cluster.add_argument("--load", type=float, default=None,
                         help="offered load as a fraction of ceiling "
                              "capacity (overrides --rate)")
    cluster.add_argument("--slo-factor", type=float, default=8.0,
                         help="per-model SLO as a multiple of its "
                              "unloaded uLayer latency")
    cluster.add_argument("--max-batch", type=int, default=1,
                         metavar="N",
                         help="per-pool batch cap (batch/edf "
                              "schedulers)")
    cluster.add_argument("--batch-timeout-ms", type=float, default=10.0,
                         metavar="MS",
                         help="batch scheduler: partial-batch flush "
                              "window")
    cluster.add_argument("--autoscaler", default="off",
                         choices=["off", "reactive", "predictive"],
                         help="autoscaling mode")
    cluster.add_argument("--cold-start-ms", type=float, default=200.0,
                         metavar="MS",
                         help="delay before a scaled-up replica "
                              "serves its first request")
    cluster.add_argument("--replicas-per-model", type=int, default=None,
                         metavar="N",
                         help="spread each model over at most N pools "
                              "(default: every feasible pool)")
    cluster.add_argument("--tenants", default=None,
                         metavar="NAME:WEIGHT:PRIORITY,...",
                         help="tenant classes for trace workloads, "
                              "e.g. premium:1:0,standard:2:1 "
                              "(lower priority = more urgent)")
    cluster.add_argument("--jobs", type=int,
                         default=default_cli_jobs(), metavar="N",
                         help="warm placement plans with N processes "
                              "(default: CPU count capped at 8; "
                              "1 = serial)")
    cluster.add_argument("--force", action="store_true",
                         help="simulate even when the cluster "
                              "schedulability lint finds the "
                              "configuration infeasible (SC errors "
                              "normally abort with exit code 2 "
                              "before any request is simulated)")
    cluster.add_argument("--json", action="store_true",
                         help="emit cluster metrics as JSON")

    verify = sub.add_parser(
        "verify",
        help="statically verify plans, timelines, and dtype flow")
    verify.add_argument("model", nargs="?", default=None,
                        help="model name (omit with --all)")
    verify.add_argument("soc", nargs="?", default=None,
                        help="SoC name (default: every simulated SoC)")
    verify.add_argument("--mechanism", action="append",
                        dest="mechanisms", metavar="MECH",
                        choices=["mulayer", "l2p", "cpu", "gpu", "npu"],
                        help="mechanism to verify (repeatable; "
                             "default: all the SoC supports)")
    verify.add_argument("--all", action="store_true", dest="all_models",
                        help="verify every model in the zoo")
    verify.add_argument("--jobs", type=int,
                        default=default_cli_jobs(), metavar="N",
                        help="verify (soc, model) cells with N "
                             "processes (default: CPU count capped "
                             "at 8; 1 = serial)")
    verify.add_argument("--memory", action="store_true",
                        help="also check each plan's peak memory "
                             "footprint and arena layout against the "
                             "SoC's shared DRAM (MF rules)")
    verify.add_argument("--compiled", action="store_true",
                        help="also lower each plan into a compiled "
                             "program and prove it consistent with "
                             "the plan (PV012); builds models with "
                             "weights, so it is slow on the full-size "
                             "zoo")
    verify.add_argument("--batch", type=int, default=None, metavar="B",
                        help="batch size for the --memory analysis "
                             "(default: each plan's own batch)")
    verify.add_argument("--lint-src", nargs="?", const="src/repro",
                        default=None, metavar="PATH",
                        help="run the concurrency/determinism source "
                             "lint over PATH (default src/repro; CL "
                             "rules); usable without a model")
    verify.add_argument("--schedulability", action="store_true",
                        help="statically lint the serve configuration "
                             "implied by --devices/--load/--rate/"
                             "--slo-factor for the given models (SC "
                             "rules); usable without a model (lints "
                             "the mini zoo)")
    verify.add_argument("--devices", type=int, default=2,
                        help="--schedulability: fleet size")
    verify.add_argument("--rate", type=float, default=None,
                        help="--schedulability: offered load in "
                             "requests/s")
    verify.add_argument("--load", type=float, default=0.7,
                        help="--schedulability: offered load as a "
                             "fraction of fleet capacity (ignored "
                             "when --rate is given)")
    verify.add_argument("--slo-factor", type=float, default=4.0,
                        help="--schedulability: per-model SLO as a "
                             "multiple of unloaded uLayer latency")
    verify.add_argument("--max-batch", type=int, default=1,
                        metavar="N",
                        help="--schedulability: scheduler batch bound")
    verify.add_argument("--batch-timeout-ms", type=float, default=0.0,
                        metavar="MS",
                        help="--schedulability: batching flush "
                             "timeout")
    verify.add_argument("--sarif", default=None, metavar="PATH",
                        help="write all diagnostics as a SARIF 2.1.0 "
                             "log to PATH")
    verify.add_argument("--baseline", default=None, metavar="PATH",
                        help="suppress findings fingerprinted in this "
                             "baseline file (see lint-baseline.json)")
    verify.add_argument("--json", action="store_true",
                        help="emit diagnostics as JSON")

    figure = sub.add_parser("figure",
                            help="regenerate one paper figure")
    figure.add_argument("name", choices=_FIGURES)
    figure.add_argument("--jobs", type=int,
                        default=default_cli_jobs(), metavar="N",
                        help="generate (soc, model) cells with N "
                             "processes where the figure supports it "
                             "(default: CPU count capped at 8)")

    bench = sub.add_parser(
        "bench",
        help="simulated-time benchmark of the serving or cluster tier")
    bench.add_argument("--models", default=None,
                       help="comma-separated models; each entry may "
                            "be a glob over the registered zoo, e.g. "
                            "'*_mini' or 'vgg*' (default: vgg_mini "
                            "for --serve-batch, mobilenet_mini and "
                            "squeezenet_mini for --fleet)")
    bench.add_argument("--output", default=None, metavar="PATH",
                       help="write the results as JSON to PATH "
                            "(e.g. BENCH_serve_batch.json)")
    bench.add_argument("--json", action="store_true",
                       help="print the results as JSON")
    which = bench.add_mutually_exclusive_group(required=True)
    which.add_argument("--serve-batch", action="store_true",
                       help="serving-throughput benchmark: batch size "
                            "x arrival rate sweep under the dynamic "
                            "batching scheduler (simulated time; e.g. "
                            "--output BENCH_serve_batch.json)")
    which.add_argument("--fleet", action="store_true",
                       help="fleet-scaling benchmark: SLO attainment "
                            "and p99 vs fleet size per router policy "
                            "on one fixed trace (simulated time; e.g. "
                            "--output BENCH_fleet_scale.json)")
    bench.add_argument("--serve-requests", type=int, default=None,
                       metavar="N",
                       help="with --serve-batch: requests per sweep "
                            "cell (default 128)")
    bench.add_argument("--fleet-requests", type=int, default=None,
                       metavar="N",
                       help="with --fleet: requests in the reference "
                            "trace (default 100000)")
    return parser


def _cmd_list_models() -> int:
    for name in list_models():
        info = model_info(name)
        graph = build_model(name, with_weights=False)
        print(f"{name:18s} {info.display_name:22s} "
              f"{graph.total_macs() / 1e6:10.1f} MMACs  "
              f"{info.paper_class}")
    return 0


def _cmd_list_socs() -> int:
    for name, soc in sorted(SOCS.items()):
        processors = ", ".join(
            soc.processor(resource).name
            for resource in soc.resources())
        print(f"{name:16s} {soc.display_name}\n"
              f"{'':16s}   {processors}")
    return 0


def _make_tuner(args: argparse.Namespace):
    """The Tuner ``run --autotune`` asks for, or None."""
    if not args.autotune:
        return None
    from .tune import TuneCache, Tuner, default_cache_path
    path = (args.tune_cache if args.tune_cache is not None
            else default_cache_path())
    return Tuner(cache=TuneCache(path))


def _cmd_run(args: argparse.Namespace) -> int:
    soc = soc_by_name(args.soc)
    if args.compiled and args.mechanism != "mulayer":
        print("run: --compiled requires --mechanism mulayer",
              file=sys.stderr)
        return 2
    if args.autotune and not args.compiled:
        print("run: --autotune requires --compiled", file=sys.stderr)
        return 2
    graph = build_model(args.model, with_weights=args.compiled)
    compiled_info: Optional[Dict[str, object]] = None
    if args.mechanism == "mulayer":
        tuner = _make_tuner(args)
        runtime = MuLayer(soc, use_oracle_costs=args.oracle,
                          compiled=args.compiled, tuner=tuner)
        if args.compiled:
            result, compiled_info = _run_compiled(runtime, graph)
            compiled_info["plan_cache"] = runtime.plan_cache.stats()
            compiled_info["executor"] = runtime.executor.stats()
            if tuner is not None:
                tuner.flush()
        else:
            result = runtime.run(graph)
        plan = runtime.plan(graph)
    elif args.mechanism == "l2p":
        result = run_layer_to_processor(soc, graph)
        plan = None
    else:
        result = run_single_processor(soc, graph, args.mechanism,
                                      parse_dtype(args.dtype))
        plan = None
    if args.json:
        payload = result.to_dict()
        if args.plan and plan is not None:
            payload["plan"] = {
                name: assignment.shares()
                for name, assignment in plan.assignments.items()}
        if compiled_info is not None:
            payload["compiled"] = compiled_info
        print(json.dumps(payload, indent=2))
        return 0 if (compiled_info is None
                     or compiled_info["byte_identical"]) else 1
    print(f"{args.model} on {soc.display_name} via {result.mechanism}:")
    print(f"  latency {result.latency_ms:10.3f} ms")
    print(f"  energy  {result.energy_mj:10.3f} mJ "
          f"(dynamic {result.energy.dynamic_j * 1e3:.1f}, "
          f"idle {result.energy.idle_j * 1e3:.1f}, "
          f"static {result.energy.static_j * 1e3:.1f}, "
          f"dram {result.energy.dram_j * 1e3:.1f})")
    print(f"  traffic {result.traffic_bytes / 1e6:10.3f} MB")
    if args.plan and plan is not None:
        print("\nexecution plan:")
        for name, assignment in plan.assignments.items():
            shares = ", ".join(f"{r}={s:.2f}"
                               for r, s in assignment.shares().items())
            print(f"  {name:30s} {shares}")
        for branch_assignment in plan.branch_assignments:
            region = branch_assignment.region
            print(f"  [branches {region.fork} -> {region.join}: "
                  f"{branch_assignment.mapping}]")
    if compiled_info is not None:
        identical = compiled_info["byte_identical"]
        steps = compiled_info["steps"]
        tuned = ", autotuned" if compiled_info.get("tuned") else ""
        print(f"\ncompiled program ({len(steps)} fused steps, arena "
              f"{compiled_info['arena_bytes']} bytes in "
              f"{compiled_info['arena_slots']} slots{tuned}):")
        for step in steps:
            where = "+".join(p["resource"]
                             for p in step["placements"]) or "-"
            print(f"  {step['layer']:24s} {step['kind']:15s} "
                  f"{step['variant']:12s} [{where}]")
        print(f"  byte-identical to the interpreter: {identical}")
        plans = compiled_info["plan_cache"]
        timings = compiled_info["executor"]
        print(f"  plan cache {plans['hits']:.0f} hits / "
              f"{plans['misses']:.0f} misses, timing memo "
              f"{timings['timing_hits']:.0f} hits / "
              f"{timings['timing_misses']:.0f} misses")
    if args.gantt:
        from .harness import render_gantt
        print("\n" + render_gantt(result.timeline, width=100))
    if compiled_info is not None and not compiled_info["byte_identical"]:
        return 1
    return 0


def _run_compiled(runtime: MuLayer, graph
                  ) -> "tuple[object, Dict[str, object]]":
    """One compiled functional inference plus its identity check."""
    import numpy as np

    from .nn import calibrate_graph

    shape = graph.infer_shapes()[graph.input_layers()[0]]
    x = np.random.default_rng(0).standard_normal(shape).astype(
        np.float32)
    calibration = calibrate_graph(graph, [x])
    result = runtime.run(graph, x, calibration=calibration)
    reference = runtime.run(graph, x, calibration=calibration,
                            compiled=False)
    program = runtime.program(graph, calibration=calibration)
    identical = all(
        result.outputs[name].data.tobytes()
        == reference.outputs[name].data.tobytes()
        for name in reference.outputs)
    info = program.describe()
    info["byte_identical"] = identical
    return result, info


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness import format_table
    from .tensor import DType
    soc = soc_by_name(args.soc)
    graph = build_model(args.model, with_weights=False)
    rows = []
    for resource, dtype in (("cpu", DType.F32), ("cpu", DType.QUINT8),
                            ("gpu", DType.F32), ("gpu", DType.F16)):
        result = run_single_processor(soc, graph, resource, dtype)
        rows.append([f"{resource}-{dtype}", result.latency_ms,
                     result.energy_mj])
    if soc.has_npu:
        result = run_single_processor(soc, graph, "npu", DType.QUINT8)
        rows.append(["npu-quint8", result.latency_ms, result.energy_mj])
    l2p = run_layer_to_processor(soc, graph)
    rows.append(["layer-to-processor", l2p.latency_ms, l2p.energy_mj])
    mulayer = MuLayer(soc).run(graph)
    rows.append(["ulayer", mulayer.latency_ms, mulayer.energy_mj])
    speedup = l2p.latency_s / mulayer.latency_s
    if args.json:
        print(json.dumps({
            "model": args.model,
            "soc": soc.name,
            "mechanisms": [
                {"mechanism": str(row[0]), "latency_ms": row[1],
                 "energy_mj": row[2]} for row in rows],
            "ulayer_speedup_over_l2p": speedup,
        }, indent=2))
        return 0
    print(format_table(["mechanism", "latency_ms", "energy_mj"], rows,
                       title=f"{args.model} on {soc.display_name}"))
    print(f"\nulayer speedup over layer-to-processor: "
          f"{speedup:.2f}x")
    return 0


def _schedulability_report(args: argparse.Namespace,
                           models: Optional[List[str]]):
    """SC-rule lint of the serve configuration the flags imply."""
    from .analysis import lint_serve_config
    from .models import MINI_MODELS
    from .serve import Fleet, ServeConfig, default_slos

    soc_names = [args.soc] if args.soc is not None else ["exynos7420"]
    chosen = list(models) if models else list(MINI_MODELS)
    fleet = Fleet.build(soc_names, args.devices)
    slos = default_slos(fleet, chosen, slo_factor=args.slo_factor)
    rate = (args.rate if args.rate is not None
            else args.load * fleet.capacity_rps(chosen))
    config = ServeConfig(
        models=tuple(chosen), soc_names=tuple(soc_names),
        num_devices=args.devices, rate_rps=rate, slos=slos,
        max_batch=args.max_batch,
        batch_timeout_s=args.batch_timeout_ms / 1e3)
    return lint_serve_config(config, fleet=fleet).sorted()


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses
    import pathlib

    from .analysis import (ConcurrencyLinter, Report, apply_baseline,
                           load_baseline, verify_sweep)

    standalone = args.lint_src is not None or args.schedulability
    if args.all_models:
        models: Optional[List[str]] = None
    elif args.model is not None:
        models = [args.model]
    elif standalone:
        models = []
    else:
        print("verify: give a model name or --all", file=sys.stderr)
        return 2
    socs = [args.soc] if args.soc is not None else None
    entries = []
    if models is None or models:
        entries = verify_sweep(models=models, socs=socs,
                               mechanisms=args.mechanisms,
                               jobs=args.jobs, memory=args.memory,
                               batch=args.batch,
                               compiled=args.compiled)
    lint_report = None
    if args.lint_src is not None:
        lint_report = ConcurrencyLinter().lint_paths(
            [args.lint_src]).sorted()
    sched_report = None
    if args.schedulability:
        sched_report = _schedulability_report(args, models)
    if args.baseline is not None:
        baseline = load_baseline(args.baseline)
        entries = [dataclasses.replace(
            entry, report=apply_baseline(entry.report, baseline))
            for entry in entries]
        if lint_report is not None:
            lint_report = apply_baseline(lint_report, baseline)
        if sched_report is not None:
            sched_report = apply_baseline(sched_report, baseline)
    if args.sarif is not None:
        merged = Report()
        for entry in entries:
            merged.extend(dataclasses.replace(
                diagnostic,
                locus=(f"{entry.model}/{entry.soc}/"
                       f"{entry.mechanism}:{diagnostic.locus}"))
                for diagnostic in entry.report)
        for extra in (lint_report, sched_report):
            if extra is not None:
                merged.extend(extra)
        pathlib.Path(args.sarif).write_text(
            merged.sorted().to_sarif() + "\n", encoding="utf-8")
    sweep_payload = [{"model": e.model, "soc": e.soc,
                      "mechanism": e.mechanism,
                      "diagnostics": [d.to_dict() for d in e.report]}
                     for e in entries]
    if args.json:
        if lint_report is None and sched_report is None:
            print(json.dumps(sweep_payload, indent=2))
        else:
            payload: Dict[str, object] = {"sweep": sweep_payload}
            if lint_report is not None:
                payload["lint"] = lint_report.to_dict()
            if sched_report is not None:
                payload["schedulability"] = sched_report.to_dict()
            print(json.dumps(payload, indent=2))
    else:
        for entry in entries:
            print(f"{entry.model:18s} {entry.soc:14s} "
                  f"{entry.mechanism:8s} {entry.report.summary()}")
            for diagnostic in entry.report:
                print(f"    {diagnostic.render()}")
        for title, extra in (("source lint", lint_report),
                             ("schedulability", sched_report)):
            if extra is None:
                continue
            print(f"{title}: {extra.summary()}")
            for diagnostic in extra:
                print(f"    {diagnostic.render()}")
    dirty = sum(1 for e in entries if not e.report.clean)
    dirty += sum(1 for extra in (lint_report, sched_report)
                 if extra is not None and not extra.clean)
    if not args.json:
        print(f"{len(entries)} mechanism runs verified, "
              f"{dirty} with diagnostics")
    return 1 if dirty else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .models import MINI_MODELS
    from .serve import (Fleet, PoissonWorkload, ServingMetrics,
                        ServingSimulator, bursty_for_rate, default_slos,
                        make_scheduler)

    from .runtime.plan_cache import PlanCache

    soc_names = args.socs or ["exynos7420"]
    models = (args.models.split(",") if args.models
              else list(MINI_MODELS))
    plan_cache = (PlanCache(max_entries=args.plan_cache_size)
                  if args.plan_cache_size is not None else None)
    fleet = Fleet.build(soc_names, args.devices, plan_cache=plan_cache)
    batch_timeout_s = (args.batch_timeout_ms / 1e3
                       if args.batch_timeout_ms is not None else None)
    scheduler = make_scheduler(args.scheduler, max_batch=args.max_batch,
                               batch_timeout_s=batch_timeout_s)
    max_batch = getattr(scheduler, "max_batch", 1)
    if args.jobs is not None:
        fleet.warm_plans(models, jobs=args.jobs,
                         batches=tuple(range(1, max_batch + 1)))
    slos = default_slos(fleet, models, slo_factor=args.slo_factor)
    capacity = fleet.capacity_rps(models)
    if args.load is not None:
        rate = args.load * capacity
    elif args.rate is not None:
        rate = args.rate
    else:
        rate = 0.7 * capacity
    # Static feasibility gate: an unschedulable configuration fails in
    # milliseconds here instead of after a full simulation.
    from .analysis import lint_serve_config
    from .serve import ServeConfig
    config = ServeConfig(
        models=tuple(models), soc_names=tuple(soc_names),
        num_devices=args.devices, rate_rps=rate, slos=slos,
        scheduler=args.scheduler, max_batch=max_batch,
        batch_timeout_s=getattr(scheduler, "batch_timeout_s", 0.0)
        or 0.0)
    feasibility = lint_serve_config(config, fleet=fleet).sorted()
    if not feasibility.clean and not args.json:
        print(f"schedulability: {feasibility.summary()}")
        for diagnostic in feasibility:
            print(f"    {diagnostic.render()}")
    if not feasibility.ok and not args.force:
        if args.json:
            print(json.dumps({
                "error": "configuration is not schedulable",
                "schedulability": feasibility.to_dict()}, indent=2))
        else:
            print("serve: configuration rejected before simulation "
                  "(rerun with --force to simulate anyway)",
                  file=sys.stderr)
        return 2
    from .serve import (WorkloadGenerator, diurnal_trace,
                        flash_crowd_trace, load_trace)
    workload: WorkloadGenerator
    if args.trace is not None:
        workload = load_trace(args.trace, slos, seed=args.seed)
    elif args.workload == "poisson":
        workload = PoissonWorkload(rate, models, slos, seed=args.seed)
    elif args.workload == "bursty":
        workload = bursty_for_rate(rate, models, slos, seed=args.seed)
    elif args.workload == "diurnal":
        workload = diurnal_trace(rate, models, slos, seed=args.seed)
    else:
        workload = flash_crowd_trace(rate, models, slos,
                                     seed=args.seed)
    requests = workload.generate(args.requests)
    result = ServingSimulator(fleet, scheduler).run(requests)
    metrics = ServingMetrics.from_result(result)
    if args.json:
        payload = metrics.to_dict()
        payload["config"] = {
            "socs": soc_names,
            "devices": args.devices,
            "models": models,
            "workload": (f"trace:{args.trace}" if args.trace
                         else args.workload),
            "rate_rps": rate,
            "capacity_rps": capacity,
            "slo_factor": args.slo_factor,
            "seed": args.seed,
            "plan_cache_size": args.plan_cache_size,
            "scheduler": scheduler.name,
            "max_batch": max_batch,
            "batch_timeout_s": getattr(scheduler, "batch_timeout_s",
                                       None),
        }
        payload["plan_cache"] = fleet.plan_cache.stats()
        payload["executor"] = {
            soc_name: fleet.context(soc_name).executor.stats()
            for soc_name in sorted(set(soc_names))}
        print(json.dumps(payload, indent=2))
        return 0
    device_names = ", ".join(d.device_id for d in fleet.devices)
    print(f"fleet: {device_names}")
    print(f"workload: {args.workload}, {len(requests)} requests at "
          f"{rate:.1f} rps (capacity ~{capacity:.1f} rps), seed "
          f"{args.seed}")
    print(f"slo: {args.slo_factor:.1f}x unloaded ulayer latency "
          "per model")
    print()
    print(metrics.render())
    return 0


#: Default cluster pools: a flagship pool next to a mid-range pool.
_DEFAULT_POOLS = ("flagship:exynos7420:4", "midrange:exynos7880:3")


def _parse_pool_specs(args: argparse.Namespace):
    """``NAME:SOC:MAX[:MIN]`` strings into :class:`PoolSpec` values."""
    from .cluster import PoolSpec
    specs = []
    for text in (args.pools or list(_DEFAULT_POOLS)):
        parts = text.split(":")
        if len(parts) < 2:
            raise SystemExit(
                f"cluster: bad --pool {text!r}; expected "
                "NAME:SOC:MAX[:MIN]")
        name, soc = parts[0], parts[1]
        max_replicas = int(parts[2]) if len(parts) > 2 else 2
        min_replicas = int(parts[3]) if len(parts) > 3 else 1
        specs.append(PoolSpec(
            name=name, soc=soc, max_replicas=max_replicas,
            min_replicas=min_replicas, scheduler=args.scheduler,
            max_batch=args.max_batch,
            batch_timeout_s=args.batch_timeout_ms / 1e3))
    return tuple(specs)


def _parse_tenants(text: Optional[str]):
    """``NAME:WEIGHT:PRIORITY,...`` into :class:`TenantClass` values."""
    if text is None:
        return None
    from .serve import TenantClass
    tenants = []
    for part in text.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise SystemExit(
                f"cluster: bad --tenants entry {part!r}; expected "
                "NAME:WEIGHT:PRIORITY")
        tenants.append(TenantClass(name=fields[0],
                                   weight=float(fields[1]),
                                   priority=int(fields[2])))
    return tuple(tenants)


def _cluster_workload(args: argparse.Namespace, models: List[str],
                      slos, rate: float):
    """The workload generator the cluster flags select."""
    from .serve import (PoissonWorkload, bursty_for_rate,
                        diurnal_trace, flash_crowd_trace, load_trace)
    tenants = _parse_tenants(args.tenants)
    if args.trace is not None:
        return load_trace(args.trace, slos, seed=args.seed)
    if args.workload == "poisson":
        return PoissonWorkload(rate, models, slos, seed=args.seed)
    if args.workload == "bursty":
        return bursty_for_rate(rate, models, slos, seed=args.seed)
    if args.workload == "diurnal":
        return diurnal_trace(rate, models, slos, seed=args.seed,
                             tenants=tenants)
    return flash_crowd_trace(rate, models, slos, seed=args.seed,
                             tenants=tenants)


def _cmd_cluster(args: argparse.Namespace) -> int:
    from .analysis import Report, lint_cluster_config
    from .cluster import (AutoscalerConfig, ClusterConfig,
                          ClusterMetrics, ClusterSimulator,
                          PlacementError, ROUTER_NAMES)
    from .models import MINI_MODELS
    from .serve import Fleet, default_slos

    pool_specs = _parse_pool_specs(args)
    models = (args.models.split(",") if args.models
              else list(MINI_MODELS))

    # SLOs and the capacity reference come from one probe fleet with a
    # device per pool SoC type (same predictor fits the pools reuse).
    probe = Fleet.build([spec.soc for spec in pool_specs],
                        len(pool_specs))
    slos = dict(default_slos(probe, models,
                             slo_factor=args.slo_factor))
    # Capacity reference: all-μLayer service at the replica count the
    # cluster can actually reach -- the autoscaler ceiling when
    # scaling is on, the fixed starting replicas when it is off.
    per_soc = {spec.soc: Fleet.build([spec.soc], 1).capacity_rps(models)
               for spec in pool_specs}
    capacity = sum(
        (spec.max_replicas if args.autoscaler != "off"
         else spec.start_replicas) * per_soc[spec.soc]
        for spec in pool_specs)
    if args.load is not None:
        rate = args.load * capacity
    elif args.rate is not None:
        rate = args.rate
    else:
        rate = 0.7 * capacity

    autoscaler = AutoscalerConfig(mode=args.autoscaler,
                                  cold_start_s=args.cold_start_ms / 1e3)
    config = ClusterConfig(
        pools=pool_specs, models=tuple(models), slos=slos,
        rate_rps=rate, router=args.router,
        replicas_per_model=args.replicas_per_model,
        autoscaler=autoscaler, seed=args.seed)

    # Static feasibility gate (SC006-SC008): an infeasible placement
    # or saturated cluster exits 2 before any request is simulated.
    try:
        simulator = ClusterSimulator(config, jobs=args.jobs)
    except PlacementError as error:
        feasibility = Report()
        feasibility.error("SC007", "placement", str(error))
        simulator = None
    else:
        feasibility = lint_cluster_config(config,
                                          pools=simulator.pools)
    feasibility = feasibility.sorted()
    if not feasibility.clean and not args.json:
        print(f"schedulability: {feasibility.summary()}")
        for diagnostic in feasibility:
            print(f"    {diagnostic.render()}")
    if simulator is None or (not feasibility.ok and not args.force):
        if args.json:
            print(json.dumps({
                "error": "cluster configuration is not schedulable",
                "schedulability": feasibility.to_dict()}, indent=2))
        else:
            print("cluster: configuration rejected before simulation "
                  "(rerun with --force to simulate anyway)",
                  file=sys.stderr)
        return 2

    requests = _cluster_workload(args, models, slos,
                                 rate).generate(args.requests)

    def run_one(router_name: str) -> ClusterMetrics:
        if router_name == config.router:
            sim = simulator
        else:
            import dataclasses
            sim = ClusterSimulator(
                dataclasses.replace(config, router=router_name),
                jobs=args.jobs)
        return ClusterMetrics.from_result(sim.run(requests))

    config_payload = config.to_dict()
    config_payload["capacity_rps"] = capacity
    config_payload["requests"] = args.requests
    config_payload["workload"] = (f"trace:{args.trace}" if args.trace
                                  else args.workload)

    if args.compare:
        by_router = {name: run_one(name) for name in ROUTER_NAMES}
        if args.json:
            print(json.dumps({
                "config": config_payload,
                "routers": {name: metrics.to_dict()
                            for name, metrics in by_router.items()},
            }, indent=2, sort_keys=True))
            return 0
        from .harness import format_table
        rows = [[name, metrics.throughput_rps, metrics.slo_attainment,
                 metrics.latency_p50_ms, metrics.latency_p99_ms,
                 float(metrics.num_shed),
                 float(metrics.scale_ups + metrics.scale_downs)]
                for name, metrics in by_router.items()]
        print(format_table(
            ["router", "req/s", "attainment", "p50_ms", "p99_ms",
             "shed", "scale_events"], rows,
            title=(f"router comparison, {args.requests} requests at "
                   f"{rate:.1f} rps")))
        return 0

    metrics = run_one(config.router)
    if args.json:
        payload = metrics.to_dict()
        payload["config"] = config_payload
        payload["placement"] = {
            model: list(hosts)
            for model, hosts in sorted(simulator.placement.items())}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    pool_names = ", ".join(
        f"{pool.name}({pool.spec.soc} x{pool.spec.max_replicas})"
        for pool in simulator.pools)
    print(f"pools: {pool_names}")
    print("placement: " + "; ".join(
        f"{model} -> {', '.join(hosts)}"
        for model, hosts in sorted(simulator.placement.items())))
    print(f"workload: {config_payload['workload']}, {args.requests} "
          f"requests at {rate:.1f} rps (ceiling capacity "
          f"~{capacity:.1f} rps), seed {args.seed}")
    print(f"autoscaler: {args.autoscaler}")
    print()
    print(metrics.render())
    return 0


def _cmd_figure(name: str, jobs: Optional[int] = None) -> int:
    from . import harness
    functions = {
        "fig05": harness.fig05_perlayer_vgg,
        "fig06": harness.fig06_nn_latency,
        "fig08": harness.fig08_quantization_latency,
        "fig10": harness.fig10_quantization_accuracy,
        "fig12": harness.fig12_branch_potential,
        "table1": harness.table1_applicability,
        "fig16": harness.fig16_e2e_latency,
        "fig17": harness.fig17_ablation,
        "fig18": harness.fig18_energy,
    }
    parallel = {"fig06", "fig08", "fig16", "fig17", "fig18"}
    if jobs is not None and name in parallel:
        print(functions[name](jobs=jobs).render())
    else:
        print(functions[name]().render())
    return 0


def _expand_model_globs(text: str) -> List[str]:
    """Comma-separated model names, each optionally a zoo glob."""
    import fnmatch
    registered = list_models()
    chosen: List[str] = []
    for pattern in text.split(","):
        if any(wildcard in pattern for wildcard in "*?["):
            matches = [name for name in registered
                       if fnmatch.fnmatchcase(name, pattern)]
            if not matches:
                raise SystemExit(
                    f"bench: --models pattern {pattern!r} matches no "
                    f"registered model (see list-models)")
            chosen.extend(name for name in matches
                          if name not in chosen)
        elif pattern not in chosen:
            chosen.append(pattern)
    return chosen


def _cmd_bench(args: argparse.Namespace) -> int:
    from .harness.bench import (render_fleet_bench,
                                render_serve_batch_bench,
                                run_fleet_bench, run_serve_batch_bench)
    models = _expand_model_globs(args.models) if args.models else None
    kwargs: Dict[str, object] = {}
    if args.fleet:
        if models:
            kwargs["models"] = tuple(models)
        if args.fleet_requests is not None:
            kwargs["num_requests"] = args.fleet_requests
        results = run_fleet_bench(**kwargs)
        render = render_fleet_bench
    else:
        if models:
            kwargs["model"] = models[0]
        if args.serve_requests is not None:
            kwargs["num_requests"] = args.serve_requests
        results = run_serve_batch_bench(**kwargs)
        render = render_serve_batch_bench
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(results, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        print(render(results))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except UnknownNameError as exc:
        print(exc, file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list-models":
        return _cmd_list_models()
    if args.command == "list-socs":
        return _cmd_list_socs()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "figure":
        return _cmd_figure(args.name, jobs=args.jobs)
    if args.command == "bench":
        return _cmd_bench(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
