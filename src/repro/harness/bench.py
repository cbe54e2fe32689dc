"""Simulated-time benchmarks of the serving and cluster tiers.

Two sweeps whose numbers come from the executor's deterministic timing
model, not from the host's clock, so they are bit-stable across
machines and CI gates on them with
``benchmarks/check_bench_regression.py``:

* :func:`run_serve_batch_bench` -- serving throughput and tail latency
  versus dynamic-batching cap and arrival rate
  (``BENCH_serve_batch.json``).
* :func:`run_fleet_bench` -- SLO attainment and tail latency versus
  fleet size per router policy on one fixed diurnal trace
  (``BENCH_fleet_scale.json``).

Wall-clock performance is measured by perfbench (``BENCHMARK.json``)
alone.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence


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
