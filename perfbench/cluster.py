"""The ``cluster-diurnal`` workload: routed pools in simulated time.

Two pools -- an Exynos 7420 flagship pool under the dynamic-batching
scheduler and an Exynos 7880 mid-range pool under EDF -- sit behind the
power-of-two-choices router with the predictive autoscaler.  Two
tenant classes send a compressed diurnal trace (two days per episode)
over the five paper models, timing-only, at a fixed share of the
cluster's all-replica capacity.  Arrivals follow the trace's schedule
in simulated time (an open loop whose generator is never late), so no
kernel runs: the workload measures ``repro.serve`` and
``repro.cluster``.

A run draws :data:`TRACES` distinct traces from its seed and plays
them in turn, each episode on a freshly built cluster, for the
measured seconds and for at least one full cycle plus one repeat.
``setup_s`` is the median cluster construction time (predictor fits,
placement, warm plans).  The simulated figures come from the first
cycle, so they are exact per seed; every later episode must reproduce
its trace's figures exactly, or the run is incorrect.  Host cost per
simulated request is the gap between consecutive ``Router.route``
calls, pooled over the untraced episodes after the first, which is a
warm-up and is not timed.  The shared host switches, for seconds at a
time, between a fast state and one about a third slower; figures pooled
over the whole run average those states, where a median or a fast end
over its parts flips with them.
"""

from __future__ import annotations

import gc
import statistics
import time
import traceback
from typing import Dict, List, Optional

import numpy as np

from repro.cluster import (AutoscalerConfig, ClusterConfig,
                           ClusterMetrics, ClusterSimulator, PoolSpec)
from repro.models import PAPER_MODELS
from repro.serve import Fleet, TenantClass, default_slos, diurnal_trace

from metrics import (error_rate, percentile, slo_attainment, summarize,
                     tail_supported)
from tracing import Tracer

POOLS = (
    PoolSpec(name="flagship", soc="exynos7420", max_replicas=4,
             min_replicas=1, initial_replicas=2, scheduler="batch",
             max_batch=4, batch_timeout_s=0.01),
    PoolSpec(name="midrange", soc="exynos7880", max_replicas=3,
             min_replicas=1, initial_replicas=2, scheduler="edf"),
)
TENANTS = (TenantClass("premium", 1.0, 0),
           TenantClass("standard", 2.0, 1))
#: Offered load as a share of the all-replica μLayer capacity.
LOAD = 0.45
SLO_FACTOR = 8.0
#: Distinct traces per run, and simulated requests per trace (two
#: compressed diurnal days).  Host cost depends on how congested a
#: trace gets, so a run averages several.
TRACES = 4
EPISODE_REQUESTS = 12_000
#: Clusters built before measuring (more are built between episodes,
#: untimed, as the measured seconds need them).
SETUPS = 3
TAIL_Q = 95.0
#: Per-layer metrics this workload does not measure, reported as 0:
#: it runs no kernels, and graph build, calibration and planning
#: happen inside the ClusterSimulator constructor (timed whole as
#: ``setup_s``).
BYPASSED = (
    "models.build_ms", "nn.calibrate_ms", "runtime.plan_ms",
    "compile.compile_ms", "compile.programs_built",
    "compile.recompiles_per_1k", "compile.steps", "compile.arena_mb",
    "tune.tune_ms", "tune.timed", "tune.cache_hits",
    "tune.nonref_share", "tune.pick_agreement", "runtime.lookup_ms",
    "runtime.executor.sim_ms", "compile.program.run_ms",
    "kernels.gmac_per_s", "kernels.mb_moved", "request.self_ms",
)


def scenario(seed: int):
    """The seeded config and traces (SLOs and rate derived the way
    ``repro cluster`` derives them)."""
    models = list(PAPER_MODELS)
    probe = Fleet.build([spec.soc for spec in POOLS], len(POOLS))
    slos = dict(default_slos(probe, models, slo_factor=SLO_FACTOR))
    capacity = sum(
        spec.max_replicas * Fleet.build([spec.soc], 1).capacity_rps(models)
        for spec in POOLS)
    rate = LOAD * capacity
    config = ClusterConfig(
        pools=POOLS, models=tuple(models), slos=slos, rate_rps=rate,
        router="p2c", autoscaler=AutoscalerConfig(mode="predictive"),
        seed=seed)
    span_s = EPISODE_REQUESTS / rate
    seeds = np.random.default_rng(seed).integers(2 ** 31, size=TRACES)
    traces = [diurnal_trace(rate, models, slos, seed=int(trace_seed),
                            period_s=span_s / 2.0,
                            tenants=TENANTS).generate(EPISODE_REQUESTS)
              for trace_seed in seeds]
    return config, traces


def trace_cluster(simulator: ClusterSimulator, tracer: Tracer) -> None:
    """Spans around the cluster's layer boundaries."""
    route = simulator.router.route

    def traced_route(request, *args, **kwargs):
        tracer.request = request.request_id
        return route(request, *args, **kwargs)

    tracer.shadow(simulator.router, "route", traced_route)
    tracer.wrap(simulator.router, "route", "cluster.router")
    tracer.wrap(simulator.autoscaler, "evaluate", "cluster.autoscaler")
    tracer.wrap(simulator.autoscaler, "observe_arrival",
                "cluster.autoscaler")
    for pool in simulator.pools:
        tracer.wrap(pool.scheduler, "next_action", "serve.scheduler")
        tracer.wrap(pool.fleet, "execute", "serve.fleet")
        tracer.wrap(pool.fleet, "execute_batch", "serve.fleet")


class Episodes:
    """Plays the traces on fresh clusters and checks repeats agree."""

    def __init__(self, config: ClusterConfig, traces) -> None:
        self.config = config
        self.traces = traces
        self.setup_s: List[float] = []
        self._ready: List[ClusterSimulator] = []
        #: First result of each trace, and its summary.
        self.first: Dict[int, object] = {}
        self._summaries: Dict[int, Dict] = {}
        self.played = 0
        #: Trace index of the last episode played.
        self.index = 0
        #: Host seconds of the traced episode.
        self.traced_s = 0.0
        #: Host seconds of the measured episodes, per trace.
        self.untraced_s: Dict[int, List[float]] = {}
        #: Host seconds, requests and gaps between routed requests of
        #: the measured episodes, pooled.
        self.measured_s = 0.0
        self.requests = 0
        self.gaps_ms: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.differs = 0
        self.first_error: Optional[str] = None

    def build(self) -> None:
        start = time.perf_counter()
        self._ready.append(ClusterSimulator(self.config))
        self.setup_s.append(time.perf_counter() - start)

    def play(self, tracer: Optional[Tracer] = None,
             measured: bool = True, index: Optional[int] = None) -> None:
        """One episode: trace ``index`` (by default the next one in
        turn) on a fresh cluster.  An untraced, measured episode adds
        its host figures to the pooled ones."""
        if index is None:
            index = self.played % len(self.traces)
        self.index = index
        self.played += 1
        trace = self.traces[index]
        if not self._ready:
            self.build()
        simulator = self._ready.pop(0)
        stamps: List[float] = []
        route = simulator.router.route

        def stamped(*args, **kwargs):
            stamps.append(time.perf_counter())
            return route(*args, **kwargs)

        simulator.router.route = stamped   # type: ignore[method-assign]
        if tracer is not None:
            trace_cluster(simulator, tracer)
        self.attempted += len(trace)
        # Every episode starts from a collected heap, so garbage left by
        # the previous one is not charged to it.
        gc.collect()
        start = time.perf_counter()
        try:
            if tracer is None:
                result = simulator.run(trace)
            else:
                result = tracer.call("cluster.run", simulator.run, trace)
            elapsed = time.perf_counter() - start
        except Exception:   # a failed episode is counted, not fatal
            self.failed += len(trace)
            if self.first_error is None:
                self.first_error = traceback.format_exc()
            return
        finally:
            if tracer is not None:
                tracer.unwrap()
        if tracer is not None:
            self.traced_s = elapsed
        elif measured:
            self.untraced_s.setdefault(index, []).append(elapsed)
            self.measured_s += elapsed
            self.requests += len(trace)
            self.gaps_ms.extend((b - a) * 1e3
                                for a, b in zip(stamps, stamps[1:]))
        summary = ClusterMetrics.from_result(result).to_dict()
        if result.num_offered != len(trace):
            self.differs += 1
        if index not in self.first:
            self.first[index] = result
            self._summaries[index] = summary
        elif summary != self._summaries[index]:
            self.differs += 1


def simulated_figures(results) -> Dict[str, float]:
    """Simulated figures pooled over finished episodes.

    SoC latency and energy are per sample (a batch's figure over its
    size) and balanced over models -- the mean of each model's mean --
    so they move with plans, not with a trace's model mix or with how
    requests happened to batch.
    """
    completions = [c for result in results for c in result.completions]
    by_model: Dict[str, List] = {}
    for completion in completions:
        by_model.setdefault(completion.request.model, []).append(
            completion)
    shed = sum(len(result.sheds) for result in results)
    unserved = sum(len(result.unserved) for result in results)
    offered = sum(result.num_offered for result in results)
    sojourn_ms = [c.sojourn_s * 1e3 for c in completions]
    return {
        "soc_latency_ms_mean": statistics.fmean(
            statistics.fmean(c.result.latency_ms / c.batch_size
                             for c in served)
            for served in by_model.values()),
        "soc_energy_mj_mean": statistics.fmean(
            statistics.fmean(c.result.energy_mj / c.batch_size
                             for c in served)
            for served in by_model.values()),
        "serve.queue_wait_ms_mean": statistics.fmean(
            c.queue_wait_s * 1e3 for c in completions),
        "serve.batch_size_mean": statistics.fmean(
            c.batch_size for c in completions),
        "cluster.scale_events": statistics.fmean(
            len(result.scale_events) for result in results),
        "cluster.shed_share": shed / offered,
        "cluster.sim_latency_ms_p50": percentile(sojourn_ms, 50.0),
        "cluster.sim_latency_ms_p99": percentile(sojourn_ms, 99.0),
        "cluster.slo_attainment": slo_attainment(
            sum(1 for c in completions if c.met_slo), len(completions),
            shed, unserved),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict:
    """One run of ``cluster-diurnal``; see the module docstring."""
    config, traces = scenario(seed)
    episodes = Episodes(config, traces)
    for _ in range(SETUPS):
        episodes.build()
    # Warm-up: the first episode is checked but not timed.
    episodes.play(measured=False)
    # Untraced: the measured seconds, and at least the rest of the
    # cycle and a repeat (a traced run gets half the seconds and the
    # rest of the cycle; its traced episode is the repeat).
    deadline = time.perf_counter() + (seconds / 2.0 if trace
                                      else seconds)
    minimum = len(traces) + (0 if trace else 1)
    while episodes.played < minimum or time.perf_counter() < deadline:
        episodes.play()
    record: Dict[str, object] = {
        "setup_s_samples": episodes.setup_s,
        "episodes": episodes.played,
        "traces": len(traces),
        "episode_requests": EPISODE_REQUESTS,
        "rate_rps": config.rate_rps,
        "tail_percentile": TAIL_Q,
        "variant_histogram": {},
    }
    complete = len(episodes.first) == len(traces)
    figures = (simulated_figures([episodes.first[i]
                                  for i in sorted(episodes.first)])
               if complete else {})
    tracer = None
    metrics: Dict[str, float] = {}
    if complete and not trace:
        metrics = dict(summarize(episodes.gaps_ms, TAIL_Q))
        metrics.update({
            "setup_s": statistics.median(episodes.setup_s),
            "throughput_sps": episodes.requests / episodes.measured_s,
            "soc_latency_ms_mean": figures["soc_latency_ms_mean"],
            "soc_energy_mj_mean": figures["soc_energy_mj_mean"],
        })
        record["tail_supported"] = tail_supported(len(episodes.gaps_ms),
                                                  TAIL_Q)
    elif complete:
        # One traced episode: ~10^5 spans already pin the per-layer
        # shares, and the span file stays small.
        index = episodes.index
        tracer = Tracer()
        episodes.play(tracer, index=index)
        untraced_s = statistics.fmean(episodes.untraced_s[index])
        per_1k = 1e6 / EPISODE_REQUESTS   # seconds -> ms per 1k
        stats = episodes.first[0].plan_cache.stats()
        metrics = {name: value for name, value in figures.items()
                   if "." in name}
        metrics.update({
            "serve.scheduler_ms": tracer.self_s("serve.scheduler")
            * per_1k,
            "serve.fleet_ms": tracer.self_s("serve.fleet") * per_1k,
            "cluster.router_ms": tracer.self_s("cluster.router")
            * per_1k,
            "cluster.autoscaler_ms": tracer.self_s("cluster.autoscaler")
            * per_1k,
            "cluster.loop_self_ms": tracer.self_s("cluster.run")
            * per_1k,
            "runtime.plans_built": stats["entries"],
            "runtime.plan_cache.hit_rate": stats["hit_rate"],
            "runtime.plan_cache.program_hit_rate":
                stats["program_hit_rate"],
            "runtime.plan_cache.evictions": stats["evictions"]
            + stats["program_evictions"],
            "trace.overhead_pct": (episodes.traced_s / untraced_s - 1.0)
            * 100.0,
        })
        metrics.update(dict.fromkeys(BYPASSED, 0.0))
    record.update(simulated_differs=episodes.differs,
                  first_error=episodes.first_error,
                  error_rate=error_rate(episodes.attempted,
                                        episodes.failed, 0))
    return {
        "correct": (episodes.failed == 0 and episodes.differs == 0
                    and complete),
        "attempted": episodes.attempted,
        "failed": episodes.failed,
        "metrics": metrics,
        "record": record,
        "tracer": tracer,
    }
