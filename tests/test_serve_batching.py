"""Dynamic request batching in the serving layer.

Covers the :class:`DynamicBatchScheduler` (coalescing, timeout
flushes via simulator timer wakeups, per-model grouping), batch-aware
EDF admission, ``Fleet.execute_batch`` semantics, per-request latency
attribution (queue wait plus the whole batched run), the batch and
plan-cache rows of :class:`ServingMetrics`, and determinism of batched
simulations.
"""

import pytest

from repro.serve import (Completion, DynamicBatchScheduler,
                         EDFScheduler, Fleet, PoissonWorkload, Request,
                         ServingMetrics, ServingSimulator, Start,
                         default_slos, make_scheduler)

MODEL = "squeezenet_mini"


def burst(count, model=MODEL, arrival_s=0.0, slo_s=1.0, start_id=0,
          spacing_s=0.0):
    """``count`` requests for one model, optionally spaced apart."""
    return [Request(request_id=start_id + i, model=model,
                    arrival_s=arrival_s + i * spacing_s, slo_s=slo_s)
            for i in range(count)]


@pytest.fixture
def fleet():
    return Fleet.build(["exynos7420"], 1)


class TestDynamicBatchScheduler:
    def test_full_batch_dispatches_immediately(self, fleet):
        scheduler = DynamicBatchScheduler(max_batch=4,
                                          batch_timeout_s=10.0)
        result = ServingSimulator(fleet, scheduler).run(burst(4))
        assert len(result.completions) == 4
        assert {c.batch_size for c in result.completions} == {4}
        starts = {c.start_s for c in result.completions}
        assert starts == {0.0}    # no timeout wait: the batch was full

    def test_partial_batch_waits_for_timeout(self, fleet):
        """Two requests under a cap of 4: the flush happens at exactly
        the timeout, driven by a timer wakeup (no arrival or completion
        occurs at that instant)."""
        scheduler = DynamicBatchScheduler(max_batch=4,
                                          batch_timeout_s=0.25)
        result = ServingSimulator(fleet, scheduler).run(burst(2))
        assert len(result.completions) == 2
        assert {c.batch_size for c in result.completions} == {2}
        for completion in result.completions:
            assert completion.start_s == pytest.approx(0.25)
            assert completion.queue_wait_s == pytest.approx(0.25)

    def test_models_never_mix_in_a_batch(self, fleet):
        scheduler = DynamicBatchScheduler(max_batch=4,
                                          batch_timeout_s=0.0)
        requests = (burst(2, model="squeezenet_mini")
                    + burst(2, model="mobilenet_mini", start_id=2))
        result = ServingSimulator(fleet, scheduler).run(requests)
        assert len(result.completions) == 4
        by_dispatch = {}
        for completion in result.completions:
            key = (completion.device_id, completion.start_s,
                   completion.finish_s)
            by_dispatch.setdefault(key, set()).add(
                completion.request.model)
        for models in by_dispatch.values():
            assert len(models) == 1

    def test_batched_run_is_one_amortized_inference(self, fleet):
        """A batch of 4 finishes faster than 4 serial runs, but slower
        than one -- and all members share the batch's makespan."""
        device = fleet.devices[0]
        single = fleet.estimate_service_s(MODEL, device, "mulayer")
        scheduler = DynamicBatchScheduler(max_batch=4,
                                          batch_timeout_s=10.0)
        result = ServingSimulator(fleet, scheduler).run(burst(4))
        finish = {c.finish_s for c in result.completions}
        assert len(finish) == 1
        makespan = finish.pop()
        assert single < makespan < 4 * single

    def test_wakeup_reports_earliest_partial_group(self, fleet):
        scheduler = DynamicBatchScheduler(max_batch=4,
                                          batch_timeout_s=0.5)
        pending = (burst(1, model="squeezenet_mini", arrival_s=0.1)
                   + burst(1, model="mobilenet_mini", arrival_s=0.3,
                           start_id=1))
        assert (scheduler.next_wakeup_s(pending, fleet, 0.3)
                == pytest.approx(0.6))
        assert scheduler.next_wakeup_s([], fleet, 0.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicBatchScheduler(max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatchScheduler(batch_timeout_s=-1.0)


class TestEDFBatching:
    def test_loose_deadlines_batch(self, fleet):
        """With slack, EDF coalesces the queue into fewer dispatches."""
        scheduler = EDFScheduler(max_batch=4)
        result = ServingSimulator(fleet, scheduler).run(
            burst(8, slo_s=5.0))
        metrics = ServingMetrics.from_result(result)
        assert metrics.num_completed == 8
        assert metrics.batch_size_max > 1
        assert metrics.num_batches < 8
        assert all(c.met_slo for c in result.completions)

    def test_batching_never_creates_foreseeable_misses(self, fleet):
        """Deadlines too tight for a batched run: EDF stays unbatched
        rather than trading met SLOs for throughput."""
        device = fleet.devices[0]
        single = fleet.estimate_service_s(MODEL, device, "mulayer")
        batched = fleet.estimate_service_s(MODEL, device, "mulayer",
                                           batch=2)
        tight = (single + batched) / 2.0
        scheduler = EDFScheduler(max_batch=4)
        result = ServingSimulator(fleet, scheduler).run(
            burst(2, slo_s=tight))
        head = min(result.completions,
                   key=lambda c: c.request.request_id)
        assert head.batch_size == 1

    def test_default_edf_unbatched(self):
        assert EDFScheduler().max_batch == 1
        assert make_scheduler("edf").max_batch == 1
        assert make_scheduler("edf", max_batch=2).max_batch == 2

    def test_make_scheduler_batch(self):
        scheduler = make_scheduler("batch", max_batch=8,
                                   batch_timeout_s=0.01)
        assert isinstance(scheduler, DynamicBatchScheduler)
        assert scheduler.max_batch == 8
        assert scheduler.batch_timeout_s == pytest.approx(0.01)


class TestExecuteBatch:
    def test_rejects_empty_and_mixed(self, fleet):
        device = fleet.devices[0]
        with pytest.raises(ValueError):
            fleet.execute_batch([], device, "mulayer", 0.0)
        mixed = (burst(1, model="squeezenet_mini")
                 + burst(1, model="mobilenet_mini", start_id=1))
        with pytest.raises(ValueError):
            fleet.execute_batch(mixed, device, "mulayer", 0.0)

    def test_singleton_batch_equals_execute(self, fleet):
        device = fleet.devices[0]
        (completion,) = fleet.execute_batch(burst(1), device,
                                            "mulayer", 0.0)
        assert isinstance(completion, Completion)
        assert completion.batch_size == 1

    def test_occupancy_counts_members(self, fleet):
        device = fleet.devices[0]
        fleet.execute_batch(burst(3), device, "mulayer", 0.0)
        assert device.completed == 3

    def test_warm_plans_covers_batches(self, fleet):
        built = fleet.warm_plans([MODEL], mechanisms=["mulayer"],
                                 batches=(1, 2, 4))
        assert built == 3
        assert fleet.warm_plans([MODEL], mechanisms=["mulayer"],
                                batches=(1, 2, 4)) == 0


class TestMetricsAndDeterminism:
    def _run(self, seed=7):
        fleet = Fleet.build(["exynos7420"], 2)
        slos = default_slos(fleet, [MODEL], slo_factor=16.0)
        trace = PoissonWorkload(
            rate_rps=2.0 * fleet.capacity_rps([MODEL]), models=[MODEL],
            slo_s=slos, seed=seed).generate(40)
        scheduler = DynamicBatchScheduler(max_batch=4,
                                          batch_timeout_s=0.005)
        result = ServingSimulator(fleet, scheduler).run(trace)
        return ServingMetrics.from_result(result)

    def test_attribution_and_batch_rows(self):
        metrics = self._run()
        assert metrics.num_completed == 40
        assert metrics.num_batches < 40          # coalescing happened
        assert 1.0 < metrics.batch_size_mean <= 4.0
        assert metrics.batch_size_max <= 4
        assert metrics.queue_wait_p99_ms <= metrics.latency_p99_ms
        assert metrics.queue_wait_p50_ms >= 0.0
        data = metrics.to_dict()
        for key in ("num_batches", "batch_size_mean", "batch_size_max",
                    "queue_wait_p50_ms", "queue_wait_p99_ms",
                    "queue_wait_mean_ms", "plan_cache"):
            assert key in data

    def test_render_surfaces_batching_and_plan_cache(self):
        text = self._run().render()
        for row in ("num_batches", "batch_size_mean",
                    "queue_wait_p99_ms", "plan_cache_hits",
                    "plan_cache_misses", "plan_cache_hit_rate",
                    "plan_cache_evictions"):
            assert row in text

    def test_deterministic(self):
        assert self._run().to_dict() == self._run().to_dict()

    def test_completion_to_dict_batch_fields(self, fleet):
        device = fleet.devices[0]
        completions = fleet.execute_batch(burst(2), device, "mulayer",
                                          1.0)
        for completion in completions:
            data = completion.to_dict()
            assert data["batch_size"] == 2
            assert data["queue_wait_s"] == pytest.approx(
                1.0 - completion.request.arrival_s)


class TestStartAction:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one request"):
            Start(requests=(), device_id="d0", mechanism="mulayer")
        mixed = (burst(1, model="squeezenet_mini")
                 + burst(1, model="mobilenet_mini", start_id=1))
        with pytest.raises(ValueError, match="one model"):
            Start(requests=tuple(mixed), device_id="d0",
                  mechanism="mulayer")
        single = Start(requests=tuple(burst(1)), device_id="d0",
                       mechanism="mulayer")
        assert len(single.requests) == 1
