"""Serving benchmark: offered load vs. p99 latency and SLO attainment.

Beyond the paper (which measures single-inference latency): sweeps a
Poisson request stream over a two-device fleet at increasing offered
load, comparing the FIFO baseline against the SLO-aware EDF scheduler.
Asserts the serving layer's two headline properties:

* EDF's SLO attainment is at least FIFO's at *every* load level --
  below saturation both serve everyone, past saturation EDF holds the
  line by deadline ordering, mechanism co-scheduling, and admission
  control while FIFO queues collapse;
* the shared plan cache makes partitioning a per-configuration, not
  per-request, cost (>90% hit rate over a run).
"""

from typing import List

import pytest

from repro.harness import ExperimentResult
from repro.serve import (Fleet, PoissonWorkload, ServingMetrics,
                         ServingSimulator, default_slos, make_scheduler)

SOCS = ("exynos7420",)
NUM_DEVICES = 2
SCHEDULERS = ("fifo", "edf")
LOAD_LEVELS = (0.4, 0.8, 1.2, 1.8)
MODELS = ("googlenet_mini", "squeezenet_mini", "vgg_mini")
NUM_REQUESTS = 250
SLO_FACTOR = 4.0
SEED = 0


def serving_load_sweep() -> ExperimentResult:
    """Offered load sweep: one row per (load level, scheduler).

    Every cell re-simulates the *same* seeded arrival trace on a fresh
    fleet, so schedulers are compared on identical workloads and the
    whole table is deterministic for a given seed.
    """
    probe = Fleet.build(SOCS, NUM_DEVICES)
    slos = default_slos(probe, MODELS, slo_factor=SLO_FACTOR)
    capacity = probe.capacity_rps(MODELS)
    rows: List[List[object]] = []
    for load in LOAD_LEVELS:
        rate = load * capacity
        trace = PoissonWorkload(rate, MODELS, slos,
                                seed=SEED).generate(NUM_REQUESTS)
        for name in SCHEDULERS:
            fleet = Fleet.build(SOCS, NUM_DEVICES)
            result = ServingSimulator(fleet,
                                      make_scheduler(name)).run(trace)
            metrics = ServingMetrics.from_result(result)
            rows.append([
                f"{load:.1f}", name, rate,
                metrics.throughput_rps,
                metrics.latency_p50_ms,
                metrics.latency_p99_ms,
                metrics.slo_attainment,
                float(metrics.num_shed),
                metrics.plan_cache["hit_rate"],
            ])
    notes = [
        f"fleet: {NUM_DEVICES} device(s) of {', '.join(SOCS)}; "
        f"capacity ~{capacity:.1f} rps",
        f"models: {', '.join(MODELS)}; SLO = {SLO_FACTOR:.1f}x "
        "unloaded ulayer latency",
        f"{NUM_REQUESTS} Poisson requests per cell, seed {SEED}; "
        "shed requests count against SLO attainment",
    ]
    return ExperimentResult(
        experiment="serving",
        title="offered load vs. p99 latency and SLO attainment "
              "(FIFO vs. SLO-aware EDF)",
        headers=["load", "scheduler", "rate_rps", "throughput_rps",
                 "p50_ms", "p99_ms", "slo_attainment", "shed",
                 "cache_hit_rate"],
        rows=rows,
        notes=notes,
    )


@pytest.fixture(scope="module")
def sweep():
    return serving_load_sweep()


def test_render_and_archive(sweep, archive):
    archive(sweep)


def _by_scheduler(sweep, column):
    values = {}
    for load, scheduler, value in zip(sweep.column("load"),
                                      sweep.column("scheduler"),
                                      sweep.column(column)):
        values[(load, scheduler)] = value
    return values


def test_edf_attainment_dominates_fifo_at_every_load(sweep):
    attainment = _by_scheduler(sweep, "slo_attainment")
    for load in (f"{level:.1f}" for level in LOAD_LEVELS):
        assert attainment[(load, "edf")] >= attainment[(load, "fifo")], (
            f"EDF below FIFO at load {load}")


def test_edf_tail_latency_bounded_past_saturation(sweep):
    """Past saturation FIFO's p99 grows with the queue; EDF sheds
    instead, so its p99 stays within the largest SLO's ballpark."""
    p99 = _by_scheduler(sweep, "p99_ms")
    top = f"{LOAD_LEVELS[-1]:.1f}"
    assert p99[(top, "edf")] < p99[(top, "fifo")]


def test_fifo_collapses_past_saturation(sweep):
    """Sanity check that the sweep actually crosses saturation."""
    attainment = _by_scheduler(sweep, "slo_attainment")
    assert attainment[("0.4", "fifo")] > 0.9
    assert attainment[(f"{LOAD_LEVELS[-1]:.1f}", "fifo")] < 0.5


def test_plan_cache_hit_rate_after_warmup(sweep):
    """Across every cell the cache serves >90% of plan lookups --
    the partitioner ran once per configuration, not per request."""
    for load, scheduler, rate in zip(sweep.column("load"),
                                     sweep.column("scheduler"),
                                     sweep.column("cache_hit_rate")):
        assert rate > 0.9, (
            f"plan cache hit rate {rate:.3f} at load {load} "
            f"({scheduler})")


def test_sweep_is_deterministic(sweep):
    again = serving_load_sweep()
    assert again.rows == sweep.rows
